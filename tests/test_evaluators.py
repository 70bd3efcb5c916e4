"""Evaluator construction rules, averaging, and restriction scaling."""

from fractions import Fraction

import pytest

from qmgraph.evaluators import (BuildError, Code, SumBothSides, WeightedZ,
                                average, build, evaluate, labeled_isomorphic,
                                stabilizer_count)
from qmgraph.graphs import expand, parse_graph
from qmgraph.words import parse_word

from conftest import edgeless, figure1_raag, ngon

Z123 = (1, 2, 3)


def z5z3():
    return expand(edgeless(["Z/5", "Z/3"]))


def part(*sides):
    return tuple(frozenset(s) for s in sides)


def test_build_happy_path_code():
    g = z5z3()
    e = build(g, frozenset({0, 1}), part({0}, {1}), Code("A", Z123))
    assert e.cone == frozenset({0, 1})
    assert not e.averaged


def test_build_structural_errors():
    g = z5z3()
    cone = frozenset({0, 1})
    with pytest.raises(BuildError, match="nonempty"):
        build(g, cone, part({0, 1}, set()), Code("A", Z123))
    with pytest.raises(BuildError, match="overlap"):
        build(g, cone, part({0, 1}, {1}), Code("A", Z123))
    with pytest.raises(BuildError, match="cover"):
        build(g, frozenset({0}), part({0}, {1}), Code("A", Z123))
    with pytest.raises(BuildError, match="side must be A or B"):
        build(g, cone, part({0}, {1}), Code("C", Z123))
    with pytest.raises(BuildError, match="positive"):
        build(g, cone, part({0}, {1}), Code("A", (1, 0, 2)))
    with pytest.raises(BuildError, match="not generic"):
        build(g, cone, part({0}, {1}), Code("A", (1, 2)))


def test_build_rejects_bad_homogenisation_params():
    g = z5z3()
    cone = frozenset({0, 1})
    for params in ((1, 8), (0, 8), (8, 0), (8, -1)):
        with pytest.raises(BuildError, match="max_n >= 2 and max_period"):
            build(g, cone, part({0}, {1}), Code("A", Z123),
                  homog_params=params)
    build(g, cone, part({0}, {1}), Code("A", Z123), homog_params=(2, 1))


def test_build_rejects_unexpanded_graph():
    g = parse_graph("vertex a Z/6\nvertex b Z/5")
    with pytest.raises(BuildError, match="expanded"):
        build(g, frozenset({0, 1}), part({0}, {1}), Code("A", Z123))


def test_build_rejects_partition_with_edges():
    g = expand(ngon(4, "Z/3"))
    with pytest.raises(BuildError, match="edge between"):
        build(g, frozenset({0, 1}), part({0}, {1}), Code("A", Z123))


def test_build_rejects_non_lower_cone():
    from conftest import path_graph
    g = expand(path_graph(["Z/2"] * 4))
    # v0 sits below v1, so {v1, v3} is not downward closed
    with pytest.raises(BuildError, match="lower cone"):
        build(g, frozenset({1, 3}), part({1}, {3}), Code("A", Z123))


def test_build_f2_base_is_hard_error():
    g = expand(edgeless(["Z", "Z"]))
    cone = frozenset({0, 1})
    for kind in (Code("A", Z123), WeightedZ(Z123), SumBothSides(Z123)):
        with pytest.raises(BuildError, match="non-constructive base \\(F2\\)"):
            build(g, cone, part({0}, {1}), kind)


def test_build_kind_case_rules():
    g = expand(edgeless(["Z", "Z/3"]))
    cone = frozenset({0, 1})
    # Z side present: only WeightedZ with A = the Z vertex is allowed
    assert build(g, cone, part({0}, {1}), WeightedZ(Z123))
    with pytest.raises(BuildError, match="single Z vertex"):
        build(g, cone, part({1}, {0}), WeightedZ(Z123))
    with pytest.raises(BuildError, match="both sides non-Z"):
        build(g, cone, part({0}, {1}), Code("B", Z123))
    h = z5z3()
    with pytest.raises(BuildError, match="needs side A = single Z"):
        build(h, frozenset({0, 1}), part({0}, {1}), WeightedZ(Z123))


def test_build_iso_sides_rules():
    g = expand(edgeless(["Z/3", "Z/3"]))
    cone = frozenset({0, 1})
    assert build(g, cone, part({0}, {1}), SumBothSides(Z123))
    with pytest.raises(BuildError, match="isomorphic; use SumBothSides"):
        build(g, cone, part({0}, {1}), Code("A", Z123))
    h = z5z3()
    with pytest.raises(BuildError, match="not isomorphic; use Code"):
        build(h, frozenset({0, 1}), part({0}, {1}), SumBothSides(Z123))


def test_build_z2_side_rules():
    g = expand(edgeless(["Z/2", "Z/2"]))
    cone = frozenset({0, 1})
    with pytest.raises(BuildError, match="D-infinity"):
        build(g, cone, part({0}, {1}), SumBothSides(Z123))
    h = expand(edgeless(["Z/2", "Z/3"]))
    with pytest.raises(BuildError, match="must not be Z/2"):
        build(h, frozenset({0, 1}), part({0}, {1}), Code("A", Z123))
    assert build(h, frozenset({0, 1}), part({0}, {1}), Code("B", Z123))


def test_build_rejects_disconnected_side():
    g = expand(edgeless(["Z/5", "Z/3", "Z/3"]))
    cone = frozenset({0, 1, 2})
    with pytest.raises(BuildError, match="free product"):
        build(g, cone, part({0}, {1, 2}), Code("A", Z123))


def test_unchecked_skips_theorem_gating_only():
    g = expand(edgeless(["Z/2", "Z/2"]))
    cone = frozenset({0, 1})
    e = build(g, cone, part({0}, {1}), SumBothSides(Z123), unchecked=True)
    assert e.unchecked
    # structural checks still apply
    with pytest.raises(BuildError, match="not generic"):
        build(g, cone, part({0}, {1}), SumBothSides((1, 2)), unchecked=True)


def test_labeled_isomorphic():
    g = expand(ngon(4, "Z/3"))
    assert labeled_isomorphic(g, frozenset({0}), frozenset({2}))
    assert not labeled_isomorphic(g, frozenset({0}), frozenset({0, 2}))
    h = z5z3()
    assert not labeled_isomorphic(h, frozenset({0}), frozenset({1}))


def test_evaluate_rejects_foreign_word():
    g, h = z5z3(), z5z3()
    e = build(g, frozenset({0, 1}), part({0}, {1}), Code("A", Z123))
    with pytest.raises(BuildError, match="different graph"):
        evaluate(e, parse_word(h, "v0"))


def test_evaluate_unaveraged_worked_value():
    g = z5z3()
    e = build(g, frozenset({0, 1}), part({0}, {1}), Code("A", Z123),
              homog_params=(16, 4))
    # A-side run-length code (1, 2, 1, 2, 1, 2, 3); stable under powers
    x = parse_word(g, "v0^4 v1 v0^2 v1 v0^2 v1 v0^3 v1 v0 v1 v0 v1 "
                      "v0^3 v1 v0 v1 v0 v1 v0^2 v1 v0^2 v1 v0^2 v1")
    got = evaluate(e, x)
    assert got.exact and got.value == 1
    assert evaluate(e, parse_word(g, "v0")).value == 0


def test_average_shares_cache_and_flags():
    g = z5z3()
    e = build(g, frozenset({0, 1}), part({0}, {1}), Code("A", Z123))
    a = average(e)
    assert a.averaged and not e.averaged
    assert a._homog_cache is e._homog_cache


@pytest.mark.parametrize("graph,cone,sides,expected", [
    (figure1_raag(), {0, 4}, ({0}, {4}), 12),
    (ngon(4, "Z/3"), {0, 2}, ({0}, {2}), 4),
])
def test_stabilizer_count(graph, cone, sides, expected):
    g = expand(graph)
    assert stabilizer_count(g, frozenset(cone), part(*sides)) == expected


def test_restriction_scaling_square_z3():
    g = expand(ngon(4, "Z/3"))
    cone = frozenset({0, 2})
    p = part({0}, {2})
    e = build(g, cone, p, SumBothSides(Z123), homog_params=(12, 4))
    a = average(e)
    x = parse_word(g, "v0 v2 v0^2 v2 v0^3 v2")
    plain = evaluate(e, x)
    summed = evaluate(a, x)
    assert plain.exact and summed.exact
    assert summed.value == stabilizer_count(g, cone, p) * plain.value


def test_restriction_scaling_figure1_raag():
    g = expand(figure1_raag())
    cone = frozenset({0, 4})
    p = part({0}, {4})
    # F2 base: construction is non-constructive, so scale-check it unchecked
    e = build(g, cone, p, SumBothSides(Z123), homog_params=(12, 4),
              unchecked=True)
    a = average(e)
    x = parse_word(g, "v0 v4 v0^2 v4 v0^3 v4")
    plain = evaluate(e, x)
    summed = evaluate(a, x)
    assert plain.exact and summed.exact
    assert summed.value == stabilizer_count(g, cone, p) * plain.value
    assert stabilizer_count(g, cone, p) == 12


def test_averaged_error_bounds_accumulate():
    g = z5z3()
    e = build(g, frozenset({0, 1}), part({0}, {1}), Code("A", Z123),
              homog_params=(3, 8), defect_estimate=Fraction(2))
    a = average(e)
    x = parse_word(g, "v0 v1 v0^2 v1 v0^3 v1")
    got = evaluate(a, x)
    if not got.exact:
        assert got.error_bound >= evaluate(e, x).error_bound
