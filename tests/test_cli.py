"""CLI surface: output formats, exit codes, and the corpus runner."""

import json
import math
import os
import time
from fractions import Fraction
from itertools import permutations

import pytest

from qmgraph import autos, cli, decide, evaluators, graphs, scl
from qmgraph.cli import corpus_dir, main, run_examples
from qmgraph.codes import HomogValue

from conftest import cubic_graph_text

Z5Z3 = "vertex v0 Z/5\nvertex v1 Z/3\n"
WITNESS_WORD = ("v0^4 v1 v0^2 v1 v0^2 v1 v0^3 v1 v0 v1 v0 v1 "
                "v0^3 v1 v0 v1 v0 v1 v0^2 v1 v0^2 v1 v0^2 v1")


@pytest.fixture
def z5z3_file(tmp_path):
    p = tmp_path / "g.graph"
    p.write_text(Z5Z3)
    return str(p)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("vertex a Z/12\nvertex b Z\nedge a b\n")
    code, out, _ = run(capsys, "expand", str(p))
    assert code == 0
    assert "vertex a_p2k2 Z/4" in out
    assert "vertex a_p3k1 Z/3" in out
    assert "edge a_p2k2 a_p3k1" in out


def test_classes(capsys, z5z3_file):
    code, out, _ = run(capsys, "classes", z5z3_file)
    assert code == 0
    assert "{v0} FiniteAbelian(1) minimal" in out
    assert "{v1} FiniteAbelian(1) minimal" in out


def test_cones(capsys, z5z3_file):
    code, out, _ = run(capsys, "cones", z5z3_file)
    assert code == 0
    assert "{v0,v1} = {v0} * {v1}" in out


def test_cones_full_output(capsys, tmp_path):
    # Z at even positions, Z/3, Z/4, Z/5, Z/9 between: 130 cones, in
    # (size, sorted vertices) order, components by least vertex
    labels = ["Z", "Z/3", "Z", "Z/4", "Z", "Z/5", "Z", "Z/9"]
    path8 = _write(tmp_path, "path8.graph",
                   [f"vertex v{i} {lab}" for i, lab in enumerate(labels)]
                   + [f"edge v{i} v{i + 1}" for i in range(7)])
    code, out, _ = run(capsys, "cones", path8)
    assert code == 0
    pinned = os.path.join(os.path.dirname(__file__), "data",
                          "cones_mixed_path8.txt")
    with open(pinned) as fh:
        assert out == fh.read()
    # figure 1: v0 and v4 joined through v1, v2, v3, all Z
    figure1 = _write(tmp_path, "figure1.graph",
                     [f"vertex v{i} Z" for i in range(5)]
                     + [f"edge v{a} v{m}" for a in (0, 4) for m in (1, 2, 3)])
    code, out, _ = run(capsys, "cones", figure1)
    assert (code, out) == (0, "{v0,v4} = {v0} * {v4}\n")


def test_expand_and_classes_on_corpus_are_pinned(capsys):
    # recorded before graphs were built from index lookups and classes
    # read on vertex masks; both outputs must stay byte for byte
    out = []
    for name in sorted(os.listdir(corpus_dir())):
        if name.endswith(".graph"):
            for cmd in ("expand", "classes"):
                code, text, _ = run(capsys, cmd,
                                    os.path.join(corpus_dir(), name))
                assert code == 0
                out.append(f"== {cmd} {name}\n{text}")
    pinned = os.path.join(os.path.dirname(__file__), "data",
                          "corpus_expand_classes.txt")
    with open(pinned) as fh:
        assert "".join(out) == fh.read()


def test_decide_plain_and_trace(capsys, z5z3_file):
    code, out, _ = run(capsys, "decide", z5z3_file)
    assert code == 0
    assert out.splitlines()[0] == "status=ExistsConstructive"
    assert "cone=v0,v1" in out
    code, out, _ = run(capsys, "decide", "--trace", z5z3_file)
    assert code == 0
    assert any(line.startswith("  ") for line in out.splitlines())


def test_decide_json(capsys, z5z3_file):
    code, out, _ = run(capsys, "decide", "--json", z5z3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ExistsConstructive"
    assert doc["witness"]["cone"] == ["v0", "v1"]
    assert doc["witness"]["kind"] == "Code"


def test_decide_has_no_raag_flag(capsys, z5z3_file):
    # decide routes every all-Z graph to the right-angled Artin procedure
    code, out, err = run(capsys, "decide", "--raag", z5z3_file)
    assert code == 1 and out == ""
    assert "unrecognized arguments: --raag" in err


def test_autos(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("vertex a Z/3\nvertex b Z/3\n")
    code, out, _ = run(capsys, "autos", str(p))
    assert code == 0
    lines = out.splitlines()
    assert "a:a b:b" in lines and "a:b b:a" in lines


def test_autos_lists_a_star_in_lexicographic_order(capsys, tmp_path):
    code, out, _ = run(capsys, "autos", _star(tmp_path, 7))
    assert code == 0
    assert out.splitlines() == [
        "c:c " + " ".join(f"l{i}:l{t}" for i, t in enumerate(p))
        for p in permutations(range(7))]


def test_autos_refuses_a_group_too_large_to_list(capsys, tmp_path):
    # the group search of K_{1,15} stays far inside the budget; its 15!
    # automorphisms would take hours to list, so the order is read first
    star15 = _star(tmp_path, 15)
    start = time.perf_counter()
    code, out, err = run(capsys, "autos", star15)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (f"error: too many automorphisms to list "
                   f"({math.factorial(15)} > {cli.LIST_CAP})\n")


def test_eval_value_line(capsys, z5z3_file):
    code, out, _ = run(capsys, "eval", z5z3_file, "--word", WITNESS_WORD,
                       "--partA", "v0", "--partB", "v1")
    assert code == 0
    assert out.strip() == "value=1 exact=True"


def test_eval_json_and_avg(capsys, z5z3_file):
    code, out, _ = run(capsys, "eval", z5z3_file, "--word", WITNESS_WORD,
                       "--partA", "v0", "--partB", "v1",
                       "--avg", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"value": "1", "exact": True}


NGON5_FLAGS = ("--word", "v2 v0 v3 v0 v3 v0 v2 v0 v2 v0 v2 v0 v3 v0 v3 v0 "
               "v3 v0 v3 v0 v3 v0 v2", "--partA", "v0", "--partB", "v2,v3",
               "--side", "B")


def test_eval_inexact_prints_no_error_bound(capsys, monkeypatch):
    # an inexact value, as the scan's fallback flags it, prints as it is;
    # this word homogenises exactly to 0
    ngon5 = os.path.join(corpus_dir(), "ngon_5_z2.graph")
    with monkeypatch.context() as m:
        evaluate = cli.evaluate
        m.setattr(cli, "evaluate",
                  lambda e, x: HomogValue(evaluate(e, x).value, False))
        code, out, _ = run(capsys, "eval", ngon5, *NGON5_FLAGS)
        assert (code, out) == (0, "value=0 exact=False\n")
        code, out, _ = run(capsys, "eval", ngon5, *NGON5_FLAGS, "--json")
        assert code == 0
        assert json.loads(out) == {"value": "0", "exact": False}
    code, out, _ = run(capsys, "eval", ngon5, *NGON5_FLAGS)
    assert (code, out) == (0, "value=0 exact=True\n")


def test_eval_single_increment_is_not_exact(capsys, monkeypatch):
    # f(x^n) = 1, 0, 0, ... on this word: the first increment, -1, is no
    # evidence of a period, and the scan reads 18 powers, 17 increments,
    # before it takes the limit 0 as exact
    ngon5 = os.path.join(corpus_dir(), "ngon_5_z2.graph")
    seen = []
    homogenise = evaluators.homogenise

    def counted(f, x):
        def read(u):
            seen.append(f(u))
            return seen[-1]
        return homogenise(read, x)

    monkeypatch.setattr(evaluators, "homogenise", counted)
    code, out, _ = run(capsys, "eval", ngon5, *NGON5_FLAGS)
    assert (code, out) == (0, "value=0 exact=True\n")
    assert seen == [1] + [0] * 17


def test_homog_subcommand(capsys, z5z3_file):
    # homog was eval without --avg; it is gone and eval gives its value
    flags = ("--word", WITNESS_WORD, "--partA", "v0", "--partB", "v1")
    code, out, err = run(capsys, "homog", z5z3_file, *flags)
    assert code == 1 and out == ""
    assert "invalid choice: 'homog'" in err
    code, out, _ = run(capsys, "eval", z5z3_file, *flags)
    assert (code, out) == (0, "value=1 exact=True\n")


def test_max_n_env_override(capsys, z5z3_file, monkeypatch):
    # the scan depth is fixed: --max-n is no option, and QMGRAPH_MAX_N is
    # not read, so neither an invalid nor a non-integer value changes
    # anything
    flags = ("--word", WITNESS_WORD, "--partA", "v0", "--partB", "v1")
    code, _, err = run(capsys, "eval", z5z3_file, *flags, "--max-n", "1")
    assert code == 1
    assert "unrecognized arguments: --max-n 1" in err
    for env in ("1", "abc"):
        monkeypatch.setenv("QMGRAPH_MAX_N", env)
        code, out, _ = run(capsys, "eval", z5z3_file, *flags)
        assert (code, out) == (0, "value=1 exact=True\n")


def test_homog_has_no_avg_flag(capsys):
    # on cube_3_z3 the unaveraged value is 1 and the averaged one is 4;
    # homog, which never averaged, is no longer a command
    cube = os.path.join(corpus_dir(), "cube_3_z3.graph")
    word = ("v0 v3 v0^2 v3 v0^2 v3 v0 v3 v0 v3 v0 v3 "
            "v0^2 v3 v0^2 v3 v0^2 v3 v0^2 v3")
    flags = ("--word", word, "--partA", "v0", "--partB", "v3")
    code, out, _ = run(capsys, "eval", cube, *flags)
    assert (code, out.split()[0]) == (0, "value=1")
    code, out, _ = run(capsys, "eval", cube, *flags, "--avg")
    assert (code, out.split()[0]) == (0, "value=4")
    code, out, err = run(capsys, "homog", cube, *flags, "--avg")
    assert code == 1 and out == ""
    assert "invalid choice: 'homog'" in err


def test_scan_depth_flags_are_usage_errors(capsys, z5z3_file):
    # --max-n and --max-period are gone: every value, the defaults, the
    # depths that gave wrong exact values and the ones that once hung are
    # refused by the parser, before any scan
    for flags in (("--max-period", "0"), ("--max-n", "257"),
                  ("--max-period", "64"), ("--max-n", "64"),
                  ("--max-n", "4", "--max-period", "1"),
                  ("--max-n", "20000", "--max-period", "10000")):
        code, out, err = run(capsys, "eval", z5z3_file, "--word",
                             WITNESS_WORD, "--partA", "v0", "--partB", "v1",
                             *flags)
        assert (code, out) == (1, ""), flags
        assert f"unrecognized arguments: {' '.join(flags)}" in err


def test_inexact_evaluations_are_skipped_or_refused(capsys, z5z3_file,
                                                    monkeypatch):
    # every value flagged inexact, as the scan's fallback flags it: defect
    # skips every sampled pair, and scl refuses to bound the word
    monkeypatch.setattr(scl, "evaluate",
                        lambda e, x: HomogValue(Fraction(0), False))
    flags = ("--partA", "v0", "--partB", "v1")
    code, out, _ = run(capsys, "defect", z5z3_file, *flags, "--samples", "10")
    assert (code, out) == (0, "defect>=0 samples=10 skipped=10\n")
    code, out, err = run(capsys, "scl", z5z3_file, *flags, "--word",
                         WITNESS_WORD, "--defect-bound", "1")
    assert (code, out) == (3, "")
    assert err == "error: evaluation of x is not exact\n"


@pytest.mark.parametrize("cmd,flags,message", [
    ("defect", ("--max-len", "0"), "max_len must be >= 1"),
    ("defect", ("--samples", "-3"), "samples must be >= 0"),
    ("scl", ("--word", "v0 v1", "--max-len", "0"), "max_len must be >= 1"),
])
def test_bad_defect_sampling_is_exit_3(capsys, z5z3_file, cmd, flags,
                                       message):
    code, out, err = run(capsys, cmd, z5z3_file, "--partA", "v0",
                         "--partB", "v1", *flags)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and message in err


def test_witness_command(capsys, z5z3_file):
    code, out, _ = run(capsys, "witness", z5z3_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("v0")
    assert "kind=Code" in lines[1]


def _corpus_witnesses(capsys):
    """(graph path, witness word, spec line fields) for every corpus graph
    that witness answers."""
    out = []
    for name in sorted(os.listdir(corpus_dir())):
        path = os.path.join(corpus_dir(), name)
        if name.endswith(".graph"):
            code, text, _ = run(capsys, "witness", path)
            if code == 0:
                word, spec = text.splitlines()
                out.append((path, word, dict(f.split("=")
                                             for f in spec.split())))
    return out


def test_witness_spec_line_is_enough_to_eval(capsys):
    # the spec line's partA and partB fix the cone and the kind
    witnesses = _corpus_witnesses(capsys)
    assert len(witnesses) == 14
    for path, word, spec in witnesses:
        sides = ("--partA", spec["partA"], "--partB", spec["partB"])
        code, out, err = run(capsys, "eval", path, "--word", word, *sides)
        assert (code, out, err) == (0, "value=1 exact=True\n", ""), path
        code, out, err = run(capsys, "scl", path, "--word", word, *sides,
                             "--defect-bound", "1")
        if path.endswith("an_2_mixed.graph"):
            assert (code, out, err) == (
                3, "", "error: scl bound requires a trivial center\n")
        else:
            assert (code, out, err) == (
                0, "scl_aut_lb=1/2 mode=rigorous-given-bound\n", ""), path


@pytest.mark.parametrize("flag,value", [("--cone", "v0,v1"),
                                        ("--kind", "code")])
def test_cone_and_kind_flags_are_gone(capsys, z5z3_file, flag, value):
    sides = ("--partA", "v0", "--partB", "v1")
    for argv in (["eval", z5z3_file, "--word", WITNESS_WORD],
                 ["scl", z5z3_file, "--word", WITNESS_WORD],
                 ["defect", z5z3_file]):
        code, out, err = run(capsys, *argv, *sides, flag, value)
        assert (code, out) == (1, ""), argv
        assert f"unrecognized arguments: {flag} {value}" in err
        code, out, _ = run(capsys, argv[0], "--help")
        assert flag not in out


def test_a_single_z_side_b_becomes_side_a(capsys, tmp_path, monkeypatch):
    # --partA t --partB a, with a the only Z vertex: WeightedZ on (a, t)
    g = _write(tmp_path, "zz3.graph", ["vertex t Z/3", "vertex a Z"])
    code, text, _ = run(capsys, "witness", g)
    assert (code, text.splitlines()[1]) == (
        0, "cone=t,a partA=a partB=t kind=WeightedZ")
    built = []

    def spy(graph, cone, partition, kind, **kw):
        built.append((graph.names_of(partition[0]),
                      graph.names_of(partition[1]), kind))
        return evaluators.build(graph, cone, partition, kind, **kw)

    monkeypatch.setattr(cli, "build", spy)
    code, out, _ = run(capsys, "eval", g, "--word", text.splitlines()[0],
                       "--partA", "t", "--partB", "a")
    assert (code, out) == (0, "value=1 exact=True\n")
    assert built == [(["a"], ["t"], evaluators.WeightedZ((1, 2, 3)))]


def test_witness_without_construction(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("vertex a Z/2\nvertex b Z/2\n")
    code, _, err = run(capsys, "witness", str(p))
    assert code == 3
    assert "ProvablyNone" in err


def test_defect_command(capsys, z5z3_file):
    code, out, _ = run(capsys, "defect", z5z3_file,
                       "--partA", "v0", "--partB", "v1",
                       "--samples", "6", "--max-len", "6", "--seed", "1")
    assert code == 0
    assert out.startswith("defect>=")
    assert "samples=6" in out


def test_scl_rigorous(capsys, z5z3_file):
    code, out, _ = run(capsys, "scl", z5z3_file, "--word", WITNESS_WORD,
                       "--partA", "v0", "--partB", "v1",
                       "--defect-bound", "12")
    assert code == 0
    assert out.strip() == "scl_aut_lb=1/24 mode=rigorous-given-bound"


@pytest.mark.parametrize("bound", ["1/0", "abc"])
def test_bad_defect_bound_is_usage_error(capsys, z5z3_file, bound):
    code, out, err = run(capsys, "scl", z5z3_file, "--word", WITNESS_WORD,
                         "--partA", "v0", "--partB", "v1",
                         "--defect-bound", bound)
    assert code == 1 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == ["error: argument --defect-bound: expected a rational "
                      f"p/q, got '{bound}'"]


@pytest.mark.parametrize("bound,message", [
    pytest.param("0", "defect bound is zero; no valid denominator", id="0"),
    pytest.param("-1/2", "user_bound must be nonnegative", id="-1/2"),
])
def test_nonpositive_defect_bound_is_exit_3(capsys, z5z3_file, bound,
                                            message):
    code, out, err = run(capsys, "scl", z5z3_file, "--word", WITNESS_WORD,
                         "--partA", "v0", "--partB", "v1",
                         f"--defect-bound={bound}")
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


def test_scl_heuristic_json(capsys, z5z3_file):
    code, out, _ = run(capsys, "scl", z5z3_file, "--word", WITNESS_WORD,
                       "--partA", "v0", "--partB", "v1",
                       "--samples", "30", "--max-len", "12", "--seed", "7",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "heuristic"


# -- exit codes ---------------------------------------------------------------

def test_usage_error_is_exit_1(capsys, z5z3_file):
    code, _, _ = run(capsys, "decide")  # missing file argument
    assert code == 1
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1
    code, out, err = run(capsys, "eval", z5z3_file, "--word", "v0",
                         "--partA", "v0", "--partB", "v1",
                         "--z", "1,x")
    assert (code, out, err) == (1, "", "error: invalid pattern '1,x'\n")


def test_parse_error_is_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("vertex a Z/1\n")
    code, _, err = run(capsys, "decide", str(p))
    assert code == 2
    assert "parse error" in err
    code, _, _ = run(capsys, "decide", str(tmp_path / "missing.graph"))
    assert code == 2
    p.write_bytes(b"vertex a Z/2\nvertex b \xff\n")  # not UTF-8
    code, out, err = run(capsys, "decide", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


def test_bad_word_is_exit_2(capsys, z5z3_file):
    code, _, err = run(capsys, "eval", z5z3_file, "--word", "zz",
                       "--partA", "v0", "--partB", "v1")
    assert code == 2
    assert "unknown vertex" in err


@pytest.mark.parametrize("flag", ["--partA", "--partB"])
def test_unknown_vertex_in_a_set_flag_is_exit_2(capsys, z5z3_file, flag):
    sets = {"--partA": "v0", "--partB": "v1"}
    sets[flag] += ",nope"
    flags = [s for pair in sets.items() for s in pair]
    for argv in (["eval", z5z3_file, "--word", "v0"],
                 ["scl", z5z3_file, "--word", "v0"], ["defect", z5z3_file]):
        assert run(capsys, *argv, *flags) == (
            2, "", "parse error: unknown vertex nope\n")


def test_math_error_is_exit_3(capsys, tmp_path):
    # two single Z sides: the F2 base has no evaluator kind
    f2 = _write(tmp_path, "f2.graph", ["vertex a Z", "vertex b Z"])
    code, out, err = run(capsys, "eval", f2, "--word", "a",
                         "--partA", "a", "--partB", "b")
    assert (code, out, err) == (3, "", "error: non-constructive base (F2)\n")


def test_partition_edge_is_exit_3(capsys, tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("vertex a Z/5\nvertex b Z/3\nedge a b\n")
    code, _, err = run(capsys, "eval", str(p), "--word", "a",
                       "--partA", "a", "--partB", "b")
    assert code == 3
    assert "edge between partition sides" in err


def _joined(label):
    return [f"vertex a {label}", f"vertex b {label}", "edge a b"]


@pytest.mark.parametrize("argv", [
    ["eval", "--word", "a"], ["scl", "--word", "a", "--defect-bound", "1"],
    ["defect"]], ids=["eval", "scl", "defect"])
@pytest.mark.parametrize("lines, sides, message", [
    (_joined("Z"), ("a", "b"), "edge between partition sides"),
    (_joined("Z"), ("a", "a"), "partition parts overlap"),
    (_joined("Z/2"), ("a", "b"), "edge between partition sides"),
    (_joined("Z/2"), ("a", "a"), "partition parts overlap"),
    # isolated Z vertices are ~_tau equivalent: {a, b} leaves out d
    (["vertex a Z", "vertex b Z", "vertex d Z"], ("a", "b"),
     "cone is not a lower cone"),
], ids=["Z-edge", "Z-overlap", "Z/2-edge", "Z/2-overlap", "F2-no-cone"])
def test_malformed_pair_without_a_kind_gets_the_structural_error(
        capsys, tmp_path, argv, lines, sides, message):
    # a Z * Z or Z/2 * Z/2 pair has no kind, but a pair that is no free
    # splitting of a lower cone is reported as such first, as build
    # reports it; eval, scl and defect read the pair alike
    g = _write(tmp_path, "g.graph", lines)
    code, out, err = run(capsys, argv[0], g, *argv[1:], "--partA", sides[0],
                         "--partB", sides[1])
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_disconnected_side_is_named_as_weighted_z_orders_the_pair(
        capsys, tmp_path):
    # B is a single Z vertex, so WeightedZ makes it side A: the
    # disconnected --partA is reported as side B
    g = _write(tmp_path, "g.graph", ["vertex a Z/3", "vertex c Z/3",
                                     "vertex y Z"])
    for sides in (("a,c", "y"), ("y", "a,c")):
        assert run(capsys, "eval", g, "--word", "a", "--partA", sides[0],
                   "--partB", sides[1]) == (
            3, "", "error: side B is a nontrivial free product; "
                   "split it into factors instead\n"), sides


def _write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def _star(tmp_path, k):
    return _write(tmp_path, f"star{k}.graph",
                  ["vertex c Z"] + [f"vertex l{i} Z/3" for i in range(k)]
                  + [f"edge c l{i}" for i in range(k)])


def test_search_budget_is_exit_3(capsys, tmp_path):
    # past 16 vertices the searches run, within the budget
    path17 = _write(tmp_path, "path17.graph",
                    [f"vertex v{i} Z/2" for i in range(17)]
                    + [f"edge v{i} v{i + 1}" for i in range(16)])
    code, out, _ = run(capsys, "autos", path17)
    assert (code, len(out.splitlines())) == (0, 2)
    free17 = _write(tmp_path, "free17.graph",
                    ["vertex a Z/5", "vertex b Z/3"]
                    + [f"vertex v{i} Z/2" for i in range(15)])
    code, out, _ = run(capsys, "eval", free17, "--avg", "--word",
                       WITNESS_WORD.replace("v0", "a").replace("v1", "b"),
                       "--partA", "a", "--partB", "b")
    # the 15! automorphisms all fix a and b, each adding the value 1
    assert (code, out) == (0, f"value={math.factorial(15)} exact=True\n")
    # the path's 17 ~_tau classes are 2^17 cone candidates
    code, _, err = run(capsys, "cones", path17)
    assert code == 3
    assert err == ("error: search budget exceeded (cone search: 2^17 "
                   "candidates > 65536)\n")
    # a cubic graph that colour refinement cannot split
    cubic20 = tmp_path / "cubic20.graph"
    cubic20.write_text(cubic_graph_text(20, 0))
    start = time.perf_counter()
    code, out, err = run(capsys, "autos", str(cubic20))
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert err == ("error: search budget exceeded (automorphism search: "
                   "65536 nodes)\n")


def test_huge_orders_factor_or_fail_fast(capsys, tmp_path, monkeypatch):
    # (10^9 + 7)(10^9 + 9) took minutes of trial division
    semiprime = _write(tmp_path, "semi.graph",
                       ["vertex a Z/1000000016000000063", "vertex b Z"])
    code, out, _ = run(capsys, "expand", semiprime)
    assert code == 0
    assert "vertex a_p1000000007k1 Z/1000000007" in out
    assert "vertex a_p1000000009k1 Z/1000000009" in out
    prime = _write(tmp_path, "prime.graph", ["vertex a Z/1000000000039"])
    code, out, _ = run(capsys, "decide", prime)
    assert (code, out) == (0, "status=Finite\n")
    # a prime past the bound of exact Miller-Rabin is refused at once
    mersenne89 = _write(tmp_path, "m89.graph", [f"vertex a Z/{2 ** 89 - 1}"])
    code, _, err = run(capsys, "decide", mersenne89)
    assert code == 3
    assert err == (f"error: cannot factor Z/{2 ** 89 - 1}: primality is "
                   "certified only below 3317044064679887385961981\n")
    # a semiprime beyond the rho budget exits 3 when the budget runs out
    monkeypatch.setattr(graphs, "RHO_STEPS", 1 << 12)
    semi = (10 ** 12 + 39) * (10 ** 12 + 61)
    hard = _write(tmp_path, "hard.graph", [f"vertex a Z/{semi}"])
    code, _, err = run(capsys, "decide", hard)
    assert code == 3
    assert err == (f"error: cannot factor Z/{semi} within 4096 Pollard "
                   "rho steps\n")


def _eval_avg_on_star(capsys, tmp_path, monkeypatch, k):
    """eval --avg of the sum evaluator on the leaf pair (l0, l1) of
    K_{1,k}, refusing to list the group; returns the exit code, the output
    and the generators applied to words."""
    star = _star(tmp_path, k)
    applied = []

    def counted(gen, x, apply=autos.apply_gen):
        applied.append(gen)
        return apply(gen, x)

    def refuse(g):
        raise AssertionError("the automorphism group was listed")

    for module in (autos, evaluators):
        monkeypatch.setattr(module, "apply_gen", counted, raising=False)
    for module in (autos, evaluators, cli, decide):
        monkeypatch.setattr(module, "enum_labelled_graph_autos", refuse,
                            raising=False)
    word = ("l0 l1 l0^2 l1 l0^2 l1 l0 l1 l0 l1 l0 l1 l0^2 l1 l0^2 l1 "
            "l0^2 l1 l0^2 l1")
    code, out, _ = run(capsys, "eval", star, "--avg", "--partA", "l0",
                       "--partB", "l1", "--word", word)
    return code, out, applied


def test_eval_avg_on_a_large_star_sums_over_the_pair_orbit(
        capsys, tmp_path, monkeypatch):
    """K_{1,9} has 9! = 362880 automorphisms but the side pair (l0, l1)
    only 72 images: eval --avg takes one term per image, moves the side
    pair instead of the word, so it applies no automorphism to a word,
    and never lists the group."""
    code, out, applied = _eval_avg_on_star(capsys, tmp_path, monkeypatch, 9)
    assert code == 0
    # 7! automorphisms fix l0 and l1; the images (l0, l1) and (l1, l0)
    # each add the unaveraged value 1
    assert out == "value=10080 exact=True\n"
    assert applied == []


def test_eval_avg_on_k_1_30_sums_over_870_images(capsys, tmp_path,
                                                  monkeypatch):
    """K_{1,30}: 30! automorphisms, 870 images of (l0, l1), and 28! of
    the automorphisms fix both, so the value is 2 * 28!."""
    code, out, applied = _eval_avg_on_star(capsys, tmp_path, monkeypatch,
                                           30)
    assert code == 0
    assert out == "value=609776689223427721003008000000 exact=True\n"
    assert applied == []


def test_witness_on_too_many_classes_is_exit_3(capsys, tmp_path):
    # the mixed path on 17 vertices has 17 ~_tau classes, so its cone
    # search has 2^17 candidates, one class past the budget
    mixed17 = _write(tmp_path, "mixed17.graph",
                     [f"vertex v{i} {'Z' if i % 2 == 0 else 'Z/2'}"
                      for i in range(17)]
                     + [f"edge v{i} v{i + 1}" for i in range(16)])
    for command in ("decide", "witness"):
        code, _, err = run(capsys, command, mixed17)
        assert code == 3, command
        assert err == ("error: search budget exceeded (cone search: 2^17 "
                       "candidates > 65536)\n")


# -- corpus runner ------------------------------------------------------------

def test_examples_bundled_corpus(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert out.splitlines()[-1] == "all verdicts match"
    assert all(line.endswith("OK") for line in out.splitlines()[:-1])


def test_examples_detects_mismatch(capsys, tmp_path):
    (tmp_path / "flip.graph").write_text("vertex a Z/2\nvertex b Z/2\n")
    (tmp_path / "expected.tsv").write_text("flip\tExistsConstructive\n")
    code, out, _ = run(capsys, "examples", str(tmp_path))
    assert code == 1
    assert "MISMATCH expected ExistsConstructive got ProvablyNone" in out
    assert out.splitlines()[-1] == "1 mismatch(es)"


def test_examples_empty_dir_is_error(capsys, tmp_path):
    code, _, err = run(capsys, "examples", str(tmp_path))
    assert code == 2
    assert "expected.tsv" in err


def test_examples_malformed_tsv_line_is_exit_3(capsys, tmp_path):
    (tmp_path / "expected.tsv").write_text("flip ExistsConstructive\n")
    code, out, err = run(capsys, "examples", str(tmp_path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_run_examples_empty_tsv(tmp_path):
    (tmp_path / "expected.tsv").write_text("\n")
    with pytest.raises(FileNotFoundError):
        run_examples(str(tmp_path))


def test_corpus_dir_exists():
    d = corpus_dir()
    assert os.path.isfile(os.path.join(d, "expected.tsv"))
