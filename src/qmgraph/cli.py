"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 parse error (graph, word or vertex),
3 mathematical precondition violation (invalid cone, F2 base, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from .evaluators import (Code, Evaluator, SumBothSides, WeightedZ, average,
                         build, evaluate)
from .decide import (EXISTS_CONSTRUCTIVE, decide, find_invariant_cones,
                     witness)
from .scl import DefectEstimate, estimate_defect, scl_aut_lower_bound
from .autos import enum_labelled_graph_autos, labelled_aut_group
from .graphs import (GraphError, LabeledGraph, expand, parse_graph,
                     tau_classes)
from .words import WordError, parse_word

USAGE_ERR, PARSE_ERR, MATH_ERR = 1, 2, 3
LIST_CAP = 10 ** 6  # largest group `autos` lists, by its order read first


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERR)


def _rational(s: str) -> Fraction:
    """An argparse type: a rational p/q (or an integer or decimal)."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational p/q, got {s!r}") from None


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _load_graph(path: str) -> LabeledGraph:
    try:
        with open(path) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(PARSE_ERR)
    except GraphError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(PARSE_ERR)


def _parsed(parse, *args):
    """parse(*args), exiting 2 on a parse error."""
    try:
        return parse(*args)
    except (GraphError, WordError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(PARSE_ERR)


def _vset(g: LabeledGraph, arg: str):
    return _parsed(g.vertex_set, [s for s in arg.split(",") if s])


def _ztuple(arg: str):
    try:
        return tuple(int(s) for s in arg.split(",") if s)
    except ValueError:
        print(f"error: invalid pattern {arg!r}", file=sys.stderr)
        raise SystemExit(USAGE_ERR)


def _add_eval_flags(p):
    p.add_argument("--cone", required=True, help="comma-separated vertices")
    p.add_argument("--partA", required=True, help="side A vertices")
    p.add_argument("--partB", required=True, help="side B vertices")
    p.add_argument("--kind", choices=["code", "wz", "sum"], default="code",
                   help="evaluator kind (default code)")
    p.add_argument("--side", choices=["A", "B"], default="A",
                   help="code side (default A)")
    p.add_argument("--z", default="1,2,3", help="generic pattern (default 1,2,3)")
    p.add_argument("--avg", action="store_true",
                   help="average over labelled graph automorphisms")
    p.add_argument("--max-n", type=int, default=64,
                   help="homogenisation depth (default 64)")
    p.add_argument("--max-period", type=int, default=8,
                   help="period search bound (default 8)")


def _build_from_flags(g: LabeledGraph, args) -> Evaluator:
    z = _ztuple(args.z)
    if args.kind == "code":
        kind = Code(args.side, z)
    elif args.kind == "wz":
        kind = WeightedZ(z)
    else:
        kind = SumBothSides(z)
    e = build(g, _vset(g, args.cone),
              (_vset(g, args.partA), _vset(g, args.partB)), kind,
              homog_params=(args.max_n, args.max_period))
    return average(e) if args.avg else e


def _print_value(v, as_json=False):
    if as_json:
        print(json.dumps({"value": _fmt(v.value), "exact": v.exact}))
    else:
        print(f"value={_fmt(v.value)} exact={v.exact}")


def _witness_json(g, spec):
    return {
        "cone": g.names_of(spec.cone),
        "partA": g.names_of(spec.partition[0]),
        "partB": g.names_of(spec.partition[1]),
        "kind": type(spec.kind).__name__,
        "z": list(spec.kind.z),
        "side": getattr(spec.kind, "side", None),
    }


def _spec_line(verdict) -> str:
    w = _witness_json(verdict.graph, verdict.witness)
    return (f"cone={','.join(w['cone'])} partA={','.join(w['partA'])} "
            f"partB={','.join(w['partB'])} kind={w['kind']}")


def _graph_text(g: LabeledGraph) -> str:
    lines = [f"vertex {g.names[i]} {g.labels[i]}" for i in range(g.n)]
    lines += [f"edge {g.names[i]} {g.names[j]}" for i, j in sorted(g.edges)]
    return "\n".join(lines)


def _cmd_expand(args):
    print(_graph_text(expand(_load_graph(args.file))))
    return 0


def _cmd_classes(args):
    g = expand(_load_graph(args.file))
    tc = tau_classes(g)
    mins = set(tc.minimal_classes())
    for i, cls in enumerate(tc.classes):
        kind, size = tc.class_type[i]
        tag = " minimal" if i in mins else ""
        print(f"{{{','.join(g.names_of(cls))}}} {kind}({size}){tag}")
    return 0


def _cmd_cones(args):
    g = expand(_load_graph(args.file))
    for cone, comps in find_invariant_cones(g):
        split = " * ".join("{" + ",".join(g.names_of(c)) + "}"
                           for c in comps)
        print(f"{{{','.join(g.names_of(cone))}}} = {split}")
    return 0


def _cmd_decide(args):
    g = _load_graph(args.file)
    verdict = decide(g)
    if args.json:
        doc = {"status": verdict.status, "trace": verdict.trace}
        if verdict.witness is not None:
            doc["witness"] = _witness_json(verdict.graph, verdict.witness)
        print(json.dumps(doc))
        return 0
    print(f"status={verdict.status}")
    if args.trace:
        for line in verdict.trace:
            print(f"  {line}")
    if verdict.witness is not None:
        print(_spec_line(verdict))
    return 0


def _cmd_autos(args):
    g = expand(_load_graph(args.file))
    n = labelled_aut_group(g).order
    if n > LIST_CAP:
        raise GraphError(f"too many automorphisms to list ({n} > {LIST_CAP})")
    for sigma in enum_labelled_graph_autos(g):
        print(" ".join(f"{g.names[i]}:{g.names[sigma.perm[i]]}"
                       for i in range(g.n)))
    return 0


def _cmd_eval(args):
    g = expand(_load_graph(args.file))
    e = _build_from_flags(g, args)
    x = _parsed(parse_word, g, args.word)
    _print_value(evaluate(e, x), as_json=args.json)
    return 0


def _cmd_witness(args):
    g = _load_graph(args.file)
    verdict = decide(g)
    if verdict.status != EXISTS_CONSTRUCTIVE:
        print(f"error: status={verdict.status}; no constructive witness",
              file=sys.stderr)
        return MATH_ERR
    print(str(witness(g, verdict)))
    print(_spec_line(verdict))
    return 0


def _cmd_defect(args):
    g = expand(_load_graph(args.file))
    e = _build_from_flags(g, args)
    d = estimate_defect(e, args.samples, args.max_len, args.seed)
    print(f"defect>={_fmt(d.empirical_max)} samples={d.samples} "
          f"skipped={d.skipped}{' vacuous' if d.vacuous else ''}")
    return 0


def _cmd_scl(args):
    g = expand(_load_graph(args.file))
    e = _build_from_flags(g, args)
    x = _parsed(parse_word, g, args.word)
    if args.defect_bound is not None:
        d = DefectEstimate(Fraction(0), 0, args.max_len, args.seed,
                           user_bound=args.defect_bound)
    else:
        d = estimate_defect(e, args.samples, args.max_len, args.seed)
    bound, mode = scl_aut_lower_bound(e, x, d)
    if args.json:
        print(json.dumps({"scl_aut_lb": _fmt(bound), "mode": mode}))
    else:
        print(f"scl_aut_lb={_fmt(bound)} mode={mode}")
    return 0


def corpus_dir() -> str:
    return str(resources.files("qmgraph").joinpath("corpus"))


def run_examples(directory: str) -> tuple[int, list[str]]:
    """Diff every corpus graph's verdict against expected.tsv."""
    expected_path = os.path.join(directory, "expected.tsv")
    if not os.path.isfile(expected_path):
        raise FileNotFoundError(f"no expected.tsv in {directory}")
    expected = {}
    with open(expected_path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                name, status = line.split("\t")
                expected[name] = status
    if not expected:
        raise FileNotFoundError(f"empty corpus in {directory}")
    lines, bad = [], 0
    for name in sorted(expected):
        path = os.path.join(directory, name + ".graph")
        with open(path) as fh:
            verdict = decide(parse_graph(fh.read()))
        if verdict.status == expected[name]:
            lines.append(f"{name}: {verdict.status} OK")
        else:
            bad += 1
            lines.append(f"{name}: MISMATCH expected {expected[name]} "
                         f"got {verdict.status}")
    lines.append("all verdicts match" if bad == 0
                 else f"{bad} mismatch(es)")
    return (0 if bad == 0 else 1, lines)


def _cmd_examples(args):
    directory = args.dir or corpus_dir()
    try:
        code, lines = run_examples(directory)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERR
    print("\n".join(lines))
    return code


def main(argv=None) -> int:
    top = _Parser(prog="qmgraph",
                  description="Aut-invariant quasimorphisms on graph "
                              "products of f.g. abelian groups")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[], help="print the expanded graph")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("classes", help="print ~_tau classes and types")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classes)

    p = sub.add_parser("cones", help="list invariant lower cones")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_cones)

    p = sub.add_parser("decide", help="existence decision")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="show derivation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("autos", help="list labelled graph automorphisms")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_autos)

    p = sub.add_parser("eval", help="evaluate a quasimorphism")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    _add_eval_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("witness", help="decide and emit a witness word")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("defect", help="sample the defect")
    p.add_argument("file")
    _add_eval_flags(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_defect)

    p = sub.add_parser("scl", help="scl_Aut lower bound")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    _add_eval_flags(p)
    p.add_argument("--defect-bound", type=_rational, default=None,
                   help="certified defect bound p/q (rigorous mode)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_scl)

    p = sub.add_parser("examples", help="run the bundled verdict corpus")
    p.add_argument("dir", nargs="?", default=None)
    p.set_defaults(fn=_cmd_examples)

    args = top.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # GraphError, BuildError, WordError and AutError: preconditions
        # and budgets; parse errors have already exited with PARSE_ERR
        print(f"error: {exc}", file=sys.stderr)
        return MATH_ERR


if __name__ == "__main__":
    sys.exit(main())
