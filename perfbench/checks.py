"""Answer checkers.  Each returns None when the answer passes, else a reason.

Answers are plain tuples produced by workloads.run_query:
  eval   -> (value: Fraction, exact: bool)
  scl    -> (bound: Fraction, mode: str)
  defect -> (empirical_max: Fraction, samples: int, skipped: int)
  decide -> (status: str, spec: tuple | None, witness word: str | None)
"""

from __future__ import annotations

from fractions import Fraction

CONSTRUCTIVE = "ExistsConstructive"


def answer_text(kind: str, ans) -> str:
    """Canonical one-line text of an answer, as stored in golden.json."""
    if kind == "decide":
        status, spec, word = ans
        if spec is None:
            return status
        cone, a, b, k, side, z = spec
        return (f"{status} cone={','.join(cone)} A={','.join(a)} "
                f"B={','.join(b)} {k}{'/' + side if side else ''} "
                f"z={','.join(map(str, z))} w={word}")
    return " ".join(str(part) for part in ans)


def verdict(ans, expected: str):
    return None if ans[0] == expected else (
        f"verdict {ans[0]}, corpus/expected.tsv says {expected}")


def value_is(ans, want: Fraction):
    value, exact = ans
    if not exact:
        return f"value {value} is not exact"
    return None if value == want else f"value {value}, expected {want}"


def homogeneous(ans_power, ans_base, k: int):
    """f(x^k) = k f(x), checked on exact values only."""
    (vp, ep), (vb, eb) = ans_power, ans_base
    if not (ep and eb):
        return None
    return None if vp == k * vb else (
        f"f(x^{k}) = {vp} but {k} * f(x) = {k * vb}")


def same_value(ans, ans_ref, why: str):
    """Conjugacy or automorphism invariance: f(y) = f(x) on exact values."""
    (v, e), (vr, er) = ans, ans_ref
    if not (e and er):
        return None
    return None if v == vr else f"{why}: {v} != {vr}"


def scl_bound(ans, f_value: Fraction, defect_bound: Fraction):
    """The rigorous bound is |f(x)| / (2D) for the user-supplied D."""
    bound, mode = ans
    want = abs(f_value) / (2 * defect_bound)
    if mode != "rigorous-given-bound":
        return f"mode {mode} with a user-supplied defect bound"
    return None if bound == want else f"scl bound {bound}, expected {want}"


def defect_sane(ans, samples: int):
    dmax, got, skipped = ans
    if dmax < 0:
        return f"negative defect {dmax}"
    if got != samples or not 0 <= skipped <= samples:
        return f"sample accounting {got}/{skipped} for {samples} requested"
    return None


def golden(kind: str, ans, recorded: str):
    text = answer_text(kind, ans)
    return None if text == recorded else (
        f"answer {text!r} differs from the recorded {recorded!r}")


def witness_builds(qm, graph_text: str, ans):
    """A constructive verdict's witness spec must pass evaluators.build."""
    status, spec, _ = ans
    if status != CONSTRUCTIVE:
        return None
    if spec is None:
        return "constructive verdict without a witness spec"
    g = qm.expand(qm.parse_graph(graph_text))
    try:
        make_evaluator(qm, g, spec)
    except (qm.BuildError, qm.GraphError) as exc:
        return f"witness spec rejected by build: {exc}"
    return None


def make_evaluator(qm, g, spec):
    """evaluators.build from a spec of vertex names, as the CLI flags give."""
    cone, a, b, kind, side, z = spec
    if kind == "Code":
        k = qm.Code(side, tuple(z))
    elif kind == "WeightedZ":
        k = qm.WeightedZ(tuple(z))
    else:
        k = qm.SumBothSides(tuple(z))
    return qm.build(g, g.vertex_set(cone),
                    (g.vertex_set(a), g.vertex_set(b)), k)


def selftest(qm) -> list[str]:
    """Each checker must accept a right answer and reject a tampered one.

    Returns the list of problems; empty means every checker works.
    """
    one, two = Fraction(1), Fraction(2)
    graph = "vertex a Z/5\nvertex b Z/3\n"
    spec = (("a", "b"), ("a",), ("b",), "Code", "A", (1, 2, 3))
    bad_spec = (("a", "b"), ("a", "b"), ("b",), "Code", "A", (1, 2, 3))
    dec = (CONSTRUCTIVE, spec, "a b")
    cases = [
        ("verdict", lambda a: verdict(a, CONSTRUCTIVE),
         dec, ("Unknown", None, None)),
        ("witness value", lambda a: value_is(a, one),
         (one, True), (two, True)),
        ("witness value exactness", lambda a: value_is(a, one),
         (one, True), (one, False)),
        ("homogeneity", lambda a: homogeneous(a, (one, True), 2),
         (two, True), (one, True)),
        ("conjugacy invariance", lambda a: same_value(a, (one, True), "conj"),
         (one, True), (two, True)),
        ("automorphism invariance",
         lambda a: same_value(a, (Fraction(-3), True), "aut"),
         (Fraction(-3), True), (Fraction(3), True)),
        ("scl bound", lambda a: scl_bound(a, Fraction(-1), Fraction(3, 2)),
         (Fraction(1, 3), "rigorous-given-bound"),
         (Fraction(1, 2), "rigorous-given-bound")),
        ("defect accounting", lambda a: defect_sane(a, 4),
         (Fraction(2), 4, 0), (Fraction(2), 3, 0)),
        ("golden", lambda a: golden("eval", a, "1 True"),
         (one, True), (one, False)),
        ("witness spec builds", lambda a: witness_builds(qm, graph, a),
         dec, (CONSTRUCTIVE, bad_spec, "a b")),
    ]
    problems = []
    for name, check, good, tampered in cases:
        if check(good) is not None:
            problems.append(f"{name}: rejects a right answer: {check(good)}")
        if check(tampered) is None:
            problems.append(f"{name}: accepts the tampered answer {tampered}")
    return problems
