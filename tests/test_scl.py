"""Defect estimation and the scl lower bound."""

from fractions import Fraction

import pytest

from qmgraph import scl
from qmgraph.codes import HomogValue
from qmgraph.evaluators import (Code, Evaluator, WeightedZ, average, build,
                                evaluate)
from qmgraph.graphs import GraphError, expand, parse_graph
from qmgraph.scl import (HEURISTIC, RIGOROUS, DefectEstimate, estimate_defect,
                         scl_aut_lower_bound)
from qmgraph.words import NormalWord, parse_word

from conftest import edgeless, ngon


def z5z3_eval():
    g = expand(edgeless(["Z/5", "Z/3"]))
    e = build(g, frozenset({0, 1}), (frozenset({0}), frozenset({1})),
              Code("A", (1, 2, 3)))
    return g, e


WITNESS = ("v0^4 v1 v0^2 v1 v0^2 v1 v0^3 v1 v0 v1 v0 v1 "
           "v0^3 v1 v0 v1 v0 v1 v0^2 v1 v0^2 v1 v0^2 v1")


def test_defect_estimate_validation():
    with pytest.raises(ValueError):
        DefectEstimate(Fraction(-1), 1, 1, 0)
    with pytest.raises(ValueError):
        DefectEstimate(Fraction(3), 1, 1, 0, user_bound=Fraction(2))
    with pytest.raises(ValueError, match="user_bound must be nonnegative"):
        DefectEstimate(Fraction(0), 0, 1, 0, user_bound=Fraction(-1))


def test_estimate_defect_vacuous():
    _, e = z5z3_eval()
    d = estimate_defect(e, samples=0, max_len=5, seed=1)
    assert d.vacuous and d.samples == 0 and d.empirical_max == 0


def test_estimate_defect_rejects_bad_arguments():
    _, e = z5z3_eval()
    with pytest.raises(ValueError, match="samples must be >= 0"):
        estimate_defect(e, samples=-3, max_len=5, seed=1)
    for max_len in (0, -1):
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            estimate_defect(e, samples=4, max_len=max_len, seed=1)
    assert estimate_defect(e, samples=2, max_len=1, seed=1).samples == 2


def test_estimate_defect_deterministic():
    _, e = z5z3_eval()
    a = estimate_defect(e, samples=10, max_len=8, seed=4)
    _, e2 = z5z3_eval()
    b = estimate_defect(e2, samples=10, max_len=8, seed=4)
    assert (a.empirical_max, a.skipped) == (b.empirical_max, b.skipped)


def test_homomorphism_has_zero_defect(monkeypatch):
    # the exponent sum on the Z vertex is a homomorphism Z * Z/3 -> Z;
    # evaluated in place of the quasimorphism, its defect is exactly 0
    g = expand(edgeless(["Z", "Z/3"]))
    e = build(g, frozenset({0, 1}), (frozenset({0}), frozenset({1})),
              WeightedZ((1, 2, 3)))

    def exponent_sum(e, x):
        return HomogValue(Fraction(sum(k for v, k in x.letters
                                       if v in e.partition[0])), True)

    monkeypatch.setattr(scl, "evaluate", exponent_sum)
    d = estimate_defect(e, samples=30, max_len=8, seed=2)
    assert d.empirical_max == 0 and d.skipped == 0


def test_inexact_evaluations_are_skipped_or_refused(monkeypatch):
    # every value flagged inexact, as the scan's fallback flags it: each
    # sampled pair is skipped, and no bound is given
    g, e = z5z3_eval()
    monkeypatch.setattr(scl, "evaluate",
                        lambda e, x: HomogValue(Fraction(0), False))
    d = estimate_defect(e, samples=10, max_len=6, seed=0)
    assert (d.empirical_max, d.samples, d.skipped) == (0, 10, 10)
    assert not d.vacuous
    x = parse_word(g, WITNESS)
    d = DefectEstimate(Fraction(0), 0, 6, 0, user_bound=Fraction(1))
    with pytest.raises(ValueError, match="^evaluation of x is not exact$"):
        scl_aut_lower_bound(e, x, d)


def test_sampled_defect_regression_z5z3():
    _, e = z5z3_eval()
    d = estimate_defect(e, samples=60, max_len=14, seed=7)
    assert d.skipped == 0
    assert d.empirical_max == 2


def test_sampled_defect_regression_pentagon():
    from qmgraph.decide import decide
    v = decide(ngon(5, "Z/2"))
    spec = v.witness
    e = build(v.graph, spec.cone, spec.partition, spec.kind)
    d = estimate_defect(e, samples=40, max_len=14, seed=3)
    assert d.skipped == 0
    assert d.empirical_max == 1
    # averaged over the 10 automorphisms, at the default parameters
    e = average(build(v.graph, spec.cone, spec.partition, spec.kind))
    d = estimate_defect(e, samples=40, max_len=8, seed=1)
    assert (d.empirical_max, d.skipped) == (2, 0)


def test_exhaustive_defect_short_words_is_zero():
    g, e = z5z3_eval()
    letters = []
    for v in (0, 1):
        for k in range(1, g.labels[v].order):
            letters.append((v, k))
    words = {NormalWord.identity(g)}
    frontier = [NormalWord.identity(g)]
    for _ in range(3):
        nxt = []
        for w in frontier:
            for l in letters:
                u = w * NormalWord(g, [l])
                if u not in words:
                    words.add(u)
                    nxt.append(u)
        frontier = nxt
    words = sorted(words, key=lambda w: (len(w.letters), w.letters))
    worst = Fraction(0)
    for x in words:
        for y in words:
            vx, vy, vxy = evaluate(e, x), evaluate(e, y), evaluate(e, x * y)
            assert vx.exact and vy.exact and vxy.exact
            worst = max(worst, abs(vx.value + vy.value - vxy.value))
    assert worst == 0


def test_scl_bound_rigorous_one_over_24():
    g, e = z5z3_eval()
    x = parse_word(g, WITNESS)
    d = DefectEstimate(Fraction(0), 0, 0, 0, user_bound=Fraction(12),
                       vacuous=True)
    bound, mode = scl_aut_lower_bound(e, x, d)
    assert bound == Fraction(1, 24)
    assert mode == RIGOROUS


def test_scl_bound_heuristic_flags_itself():
    g, e = z5z3_eval()
    x = parse_word(g, WITNESS)
    d = estimate_defect(e, samples=20, max_len=10, seed=5)
    if d.empirical_max > 0:
        bound, mode = scl_aut_lower_bound(e, x, d)
        assert mode == HEURISTIC
        assert bound == Fraction(1) / (2 * d.empirical_max)


def test_scl_bound_zero_value_is_zero():
    g, e = z5z3_eval()
    d = DefectEstimate(Fraction(0), 0, 0, 0, user_bound=Fraction(12))
    bound, mode = scl_aut_lower_bound(e, NormalWord.letter(g, 0), d)
    assert bound == 0 and mode == RIGOROUS


def test_scl_bound_zero_denominator_rejected():
    g, e = z5z3_eval()
    x = parse_word(g, WITNESS)
    d = DefectEstimate(Fraction(0), 4, 4, 0)
    with pytest.raises(ValueError, match="denominator"):
        scl_aut_lower_bound(e, x, d)


def test_scl_bound_requires_trivial_center():
    g = expand(parse_graph(
        "vertex a Z/3\nvertex b Z/5\nvertex c Z/7\nedge c a\nedge c b"))
    # c is central; a|b is not even a valid partition here, which build
    # would reject
    e = Evaluator(g, frozenset({0, 1}), (frozenset({0}), frozenset({1})),
                  Code("A", (1, 2, 3)))
    d = DefectEstimate(Fraction(0), 0, 0, 0, user_bound=Fraction(1))
    with pytest.raises(GraphError, match="center"):
        scl_aut_lower_bound(e, NormalWord.identity(g), d)


def test_scl_bound_monotone_in_defect():
    g, e = z5z3_eval()
    x = parse_word(g, WITNESS)
    loose = DefectEstimate(Fraction(0), 0, 0, 0, user_bound=Fraction(24))
    tight = DefectEstimate(Fraction(0), 0, 0, 0, user_bound=Fraction(6))
    assert scl_aut_lower_bound(e, x, loose)[0] < \
        scl_aut_lower_bound(e, x, tight)[0]


def test_scl_bound_conjugation_and_inverse_symmetry():
    g, e = z5z3_eval()
    x = parse_word(g, WITNESS)
    y = parse_word(g, "v1 v0^2")
    d = DefectEstimate(Fraction(0), 0, 0, 0, user_bound=Fraction(12))
    b0 = scl_aut_lower_bound(e, x, d)[0]
    assert scl_aut_lower_bound(e, y * x * y.inverse(), d)[0] == b0
    assert scl_aut_lower_bound(e, x.inverse(), d)[0] == b0
