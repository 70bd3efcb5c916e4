"""Evaluator construction rules, averaging, and restriction scaling."""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings

import evaluators_reference as case_rules
from qmgraph.autos import (LabelledGraphAut, apply_gen,
                           enum_labelled_graph_autos, labelled_aut_group)
from qmgraph.codes import HomogValue, homogenise
from qmgraph.evaluators import (BuildError, Code, Evaluator, SumBothSides,
                                WeightedZ, average, build, evaluate,
                                labeled_isomorphic, pair_kind)
from qmgraph.graphs import (connected_components, expand, is_lower_cone,
                            parse_graph)
from qmgraph.words import NormalWord, parse_word, retraction

from conftest import (LABELS, averaged_cases, brute_force_stabilizer_count,
                      edgeless, figure1_raag, ngon)

Z123 = (1, 2, 3)


def z5z3():
    return expand(edgeless(["Z/5", "Z/3"]))


def part(*sides):
    return tuple(frozenset(s) for s in sides)


def test_build_happy_path_code():
    g = z5z3()
    e = build(g, frozenset({0, 1}), part({0}, {1}), Code("A", Z123))
    assert e.cone == frozenset({0, 1})
    assert e.multiplicity == 1 and e.images == ((e.cone, e.partition),)


def test_build_structural_errors():
    g = z5z3()
    cone = frozenset({0, 1})
    with pytest.raises(BuildError, match="nonempty"):
        build(g, cone, part({0, 1}, set()), Code("A", Z123))
    with pytest.raises(BuildError, match="overlap"):
        build(g, cone, part({0, 1}, {1}), Code("A", Z123))
    with pytest.raises(BuildError, match="cover"):
        build(g, frozenset({0}), part({0}, {1}), Code("A", Z123))
    for side in ("C", None):
        with pytest.raises(BuildError, match="side must be A or B"):
            build(g, cone, part({0}, {1}), Code(side, Z123))
    for z in ((1, 0, 2), ()):
        with pytest.raises(BuildError, match="positive"):
            build(g, cone, part({0}, {1}), Code("A", z))
    with pytest.raises(BuildError, match="not generic"):
        build(g, cone, part({0}, {1}), Code("A", (1, 2)))


def test_build_rejects_bad_homogenisation_params():
    # the scan depth is fixed: build and Evaluator take no parameters for
    # it, so neither (4, 1) nor (256, 63), where the scan flagged wrong
    # values as exact, can be asked for
    g = z5z3()
    cone = frozenset({0, 1})
    for params in ((4, 1), (256, 63), (64, 8)):
        with pytest.raises(TypeError, match="homog_params"):
            build(g, cone, part({0}, {1}), Code("A", Z123),
                  homog_params=params)
        with pytest.raises(TypeError):
            Evaluator(g, cone, part({0}, {1}), Code("A", Z123), params)


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


def _refused(g, pair, kind):
    """build's BuildError message for the two-vertex cone {0, 1}."""
    with pytest.raises(BuildError) as exc:
        build(g, frozenset({0, 1}), pair, kind)
    return str(exc.value)


def test_build_kind_case_rules():
    g = expand(edgeless(["Z", "Z/3"]))
    cone = frozenset({0, 1})
    # Z side present: only WeightedZ with A = the Z vertex is allowed
    assert build(g, cone, part({0}, {1}), WeightedZ(Z123))
    use_wz = ("a side is a single Z vertex; use WeightedZ with it as "
              "side A")
    assert _refused(g, part({1}, {0}), WeightedZ(Z123)) == (
        "WeightedZ does not fit this pair: " + use_wz)
    assert _refused(g, part({0}, {1}), Code("B", Z123)) == (
        "Code does not fit this pair: " + use_wz)
    assert _refused(g, part({0}, {1}), SumBothSides(Z123)) == (
        "SumBothSides does not fit this pair: " + use_wz)
    h = z5z3()
    assert _refused(h, part({0}, {1}), WeightedZ(Z123)) == (
        "WeightedZ does not fit this pair: no side is a single Z vertex "
        "and the sides are not isomorphic; use Code")

    # a kind of no known type is refused at build, before its z is read
    @dataclass(frozen=True)
    class Other:
        z: tuple[int, ...]

    with pytest.raises(BuildError, match="unknown kind"):
        build(h, frozenset({0, 1}), part({0}, {1}), Other(Z123))


def test_build_iso_sides_rules():
    g = expand(edgeless(["Z/3", "Z/3"]))
    cone = frozenset({0, 1})
    assert build(g, cone, part({0}, {1}), SumBothSides(Z123))
    for kind in (Code("A", Z123), WeightedZ(Z123)):
        assert _refused(g, part({0}, {1}), kind) == (
            f"{type(kind).__name__} does not fit this pair: sides "
            "isomorphic; use SumBothSides")
    assert _refused(z5z3(), part({0}, {1}), SumBothSides(Z123)) == (
        "SumBothSides does not fit this pair: no side is a single Z vertex "
        "and the sides are not isomorphic; use Code")


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


def _free_pairs(g):
    """Every pair (A, B) of disjoint, non-adjacent, connected vertex sets."""
    sides = [frozenset(X) for r in range(1, g.n + 1)
             for X in combinations(range(g.n), r)
             if len(connected_components(g, X)) == 1]
    for A in sides:
        for B in sides:
            if not A & B and not any(g.adjacent(a, b) for a in A for b in B):
                yield A, B


def _accepts(check, *args):
    try:
        check(*args)
    except BuildError:
        return False
    return True


def _rule_fits(g, A, B, kind):
    try:
        got = pair_kind(g, A, B, kind.z, getattr(kind, "side", None))
    except BuildError:
        return False
    return got == (A, B, kind)


def test_pair_kind_matches_the_old_case_rules():
    # the case block build ran kind by kind and the kind decide picked,
    # against the one rule, on every free pair of 300 seeded graphs; a
    # pair whose union is not a lower cone has no kind
    rng = random.Random(20261020)
    kinds = [Code("A", Z123), Code("B", Z123), WeightedZ(Z123),
             SumBothSides(Z123)]
    seen, pairs = set(), 0
    for _ in range(300):
        n = rng.randint(2, 6)
        density = rng.uniform(0, 0.7)
        g = expand(parse_graph(
            "".join(f"vertex v{i} {rng.choice(LABELS)}\n" for i in range(n))
            + "".join(f"edge v{i} v{j}\n"
                      for i, j in combinations(range(n), 2)
                      if rng.random() < density)))
        for A, B in _free_pairs(g):
            pairs += 1
            if not is_lower_cone(g, A | B):
                with pytest.raises(BuildError, match="^cone is not a lower "
                                                     "cone$"):
                    pair_kind(g, A, B)
                continue
            try:
                picked = pair_kind(g, A, B)  # decide's pick
            except BuildError:
                picked = None
            assert picked == case_rules.kind_for_pair(g, A, B)
            for kind in kinds:
                old = _accepts(case_rules.check_kind, g, A, B, kind)
                assert _rule_fits(g, A, B, kind) == old, (g.labels, A, B,
                                                          kind)
                assert _accepts(build, g, A | B, (A, B), kind) == old
                seen.add((type(kind).__name__, old))
    assert pairs > 4000 and len(seen) == 6, (pairs, seen)


def test_unchecked_skips_theorem_gating_only():
    # build gates the D-infinity base; the constructor checks nothing
    g = expand(edgeless(["Z/2", "Z/2"]))
    cone = frozenset({0, 1})
    with pytest.raises(BuildError, match="D-infinity"):
        build(g, cone, part({0}, {1}), SumBothSides(Z123))
    e = Evaluator(g, cone, part({0}, {1}), SumBothSides(Z123))
    x = parse_word(g, "v0 v1")
    assert evaluate(e, x) == HomogValue(Fraction(0), True)


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
    e = build(g, frozenset({0, 1}), part({0}, {1}), Code("A", Z123))
    # A-side run-length code (1, 2, 1, 2, 1, 2, 3); stable under powers
    x = parse_word(g, "v0^4 v1 v0^2 v1 v0^2 v1 v0^3 v1 v0 v1 v0 v1 "
                      "v0^3 v1 v0 v1 v0 v1 v0^2 v1 v0^2 v1 v0^2 v1")
    got = evaluate(e, x)
    assert got.exact and got.value == 1
    assert evaluate(e, parse_word(g, "v0")).value == 0


def _side_word(g, side, rng):
    """A nontrivial normal word of 1 to 4 letters over the vertices of side."""
    while True:
        letters = []
        for _ in range(rng.randint(1, 4)):
            v = rng.choice(sorted(side))
            order = g.labels[v].order
            letters.append((v, rng.choice([-3, -2, -1, 1, 2, 3])
                            if order is None else rng.randrange(1, order)))
        w = NormalWord(g, letters)
        if w.letters:
            return w


def _short_word_params():
    """The graph, cone, partition and kind of an evaluator of each kind,
    with a side of two vertices for Code, and a pattern of length 1,
    which build refuses as not generic."""
    g_code = expand(parse_graph(
        "vertex a1 Z/2\nvertex a2 Z/3\nvertex b Z/5\nedge a1 a2"))
    g_wz = expand(edgeless(["Z", "Z/3"]))
    g_sum = expand(edgeless(["Z/3", "Z/3"]))
    all3, both = frozenset({0, 1, 2}), frozenset({0, 1})
    return [(g_code, all3, part({0, 1}, {2}), Code("A", Z123)),
            (g_code, all3, part({0, 1}, {2}), Code("B", (2, 1, 3))),
            (g_wz, both, part({0}, {1}), WeightedZ(Z123)),
            (g_sum, both, part({0}, {1}), SumBothSides(Z123)),
            (z5z3(), both, part({0}, {1}), Code("A", (2,)))]


@pytest.mark.parametrize("params", _short_word_params())
def test_short_words_skip_scan_with_scan_result(params):
    rng = random.Random(11)
    e = Evaluator(*params)
    g, (A, B) = e.graph, e.partition
    words = [NormalWord.identity(g)]
    for _ in range(6):
        a, b = _side_word(g, A, rng), _side_word(g, B, rng)
        words += [a, b, a * b, b * a]
    for w in words:
        assert e._homog(w, e.partition) == homogenise(
            lambda u: e.base(u, e.partition), w), w
    assert e._homog(words[0], e.partition) == HomogValue(Fraction(0), True)


def test_average_sets_images_and_multiplicity():
    g = expand(edgeless(["Z/3", "Z/3"]))  # Aut swaps v0 and v1
    cone, p = frozenset({0, 1}), part({0}, {1})
    e = build(g, cone, p, SumBothSides(Z123))
    a = average(e)
    assert (a.cone, a.partition, a.kind) == (e.cone, e.partition, e.kind)
    assert e.multiplicity == 1 and e.images == ((cone, p),)
    assert a.multiplicity == 1
    assert a.images == ((cone, p), (cone, part({1}, {0})))
    # without automorphisms the average is the evaluator itself
    b = average(build(z5z3(), cone, p, Code("A", Z123)))
    assert (b.multiplicity, b.images) == (1, ((cone, p),))


def test_restriction_scaling_square_z3():
    g = expand(ngon(4, "Z/3"))
    cone = frozenset({0, 2})
    p = part({0}, {2})
    e = build(g, cone, p, SumBothSides(Z123))
    a = average(e)
    x = parse_word(g, "v0 v2 v0^2 v2 v0^3 v2")
    plain = evaluate(e, x)
    summed = evaluate(a, x)
    assert plain.exact and summed.exact
    assert summed.value == brute_force_stabilizer_count(g, cone, p) \
        * plain.value


def test_restriction_scaling_figure1_raag():
    g = expand(figure1_raag())
    cone = frozenset({0, 4})
    p = part({0}, {4})
    # F2 base: build rejects it as non-constructive, so construct directly
    e = Evaluator(g, cone, p, SumBothSides(Z123))
    a = average(e)
    x = parse_word(g, "v0 v4 v0^2 v4 v0^3 v4")
    plain = evaluate(e, x)
    summed = evaluate(a, x)
    assert plain.exact and summed.exact
    j = brute_force_stabilizer_count(g, cone, p)
    assert summed.value == j * plain.value and j == 12


# -- orbit-level averaging against the whole group ---------------------------

def full_group_sum(e, x):
    """The averaged value as a sum of one term per labelled graph
    automorphism, listed by enumeration."""
    total, exact = Fraction(0), True
    for sigma in enum_labelled_graph_autos(e.graph):
        term = e._homog(retraction(apply_gen(sigma, x), e.cone),
                        e.partition)
        total += term.value
        exact = exact and term.exact
    return HomogValue(total, exact)


def test_terms_multiplicity_matches_brute_force():
    """An averaged evaluator's multiplicity is the number of automorphisms
    fixing A and B as an ordered pair (so also the cone A | B), and its
    images are the distinct images of (A, B), one per coset of them, with
    (A, B) first."""
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(2, 8)
        density = rng.random()
        g = expand(parse_graph(
            "".join(f"vertex v{i} {rng.choice(['Z', 'Z/2', 'Z/3'])}\n"
                    for i in range(n))
            + "".join(f"edge v{i} v{j}\n" for i in range(n)
                      for j in range(i + 1, n) if rng.random() < density)))
        vs = rng.sample(range(g.n), rng.randint(2, g.n))
        k = rng.randint(1, len(vs) - 1)
        A, B = frozenset(vs[:k]), frozenset(vs[k:])
        images = [(frozenset(s.perm[v] for v in A),
                   frozenset(s.perm[v] for v in B))
                  for s in enum_labelled_graph_autos(g)]
        e = average(Evaluator(g, A | B, (A, B), Code("A", Z123)))
        m = e.multiplicity
        assert m == images.count((A, B))
        assert m * len(e.images) == len(images)
        assert {pair for _, pair in e.images} == set(images)
        assert all(cone == pair[0] | pair[1] for cone, pair in e.images)
        assert e.images[0] == (A | B, (A, B))


@settings(max_examples=150, deadline=None)
@given(averaged_cases())
def test_averaged_evaluate_matches_full_group_sum(case):
    e, x = case
    # one oracle scan per automorphism: groups past 720 are left to the
    # K_{1,9} and K_{1,30} eval --avg pins in test_cli.py
    assume(len(enum_labelled_graph_autos(e.graph)) <= 720)
    got = evaluate(average(e), x)
    want = full_group_sum(e, x)
    assert (got.value, got.exact) == (want.value, want.exact)


def _coset_case():
    """An evaluator and a word on which f(rho x) and f(rho^-1 x) differ
    for some labelled automorphism rho, which generated cases rarely show."""
    g = expand(edgeless(["Z", "Z/2", "Z/3", "Z/3", "Z/3", "Z/4", "Z"]))
    e = Evaluator(g, frozenset({0, 4, 5, 6}), part({4, 5, 6}, {0}),
                  SumBothSides(Z123))
    x = parse_word(g, "v5^2 v0^2 v6^-1 v0^-1 v6^-1 v0^-1 v5^2 v0^-2 v5^2 "
                      "v0^-1 v5^2 v0 v3^2 v5^2")
    return e, x


@settings(max_examples=100, deadline=None)
@given(averaged_cases())
@example(_coset_case())
def test_moving_the_pair_equals_moving_the_word(case):
    """The transport lemma averaging rests on: for every labelled
    automorphism rho, the evaluator of (rho A, rho B) over rho(cone) at x
    equals the evaluator of (A, B) at rho^-1 x."""
    e, x = case
    autos = enum_labelled_graph_autos(e.graph)
    assume(len(autos) <= 720)  # as in the test above
    moved = {}  # one evaluator per image, so that each scans once
    for rho in autos:
        p = rho.perm
        cone, A, B = (frozenset(p[v] for v in S)
                      for S in (e.cone, *e.partition))
        inverse = [0] * len(p)
        for v, t in enumerate(p):
            inverse[t] = v
        got = evaluate(moved.setdefault(
            (cone, A, B),
            Evaluator(e.graph, cone, (A, B), e.kind)), x)
        want = evaluate(e, apply_gen(LabelledGraphAut(tuple(inverse)), x))
        assert (got.value, got.exact) == (want.value, want.exact), rho


def test_averaged_evaluate_sums_over_right_cosets():
    """f(rho x) and f(rho^-1 x) differ here for the 3-cycle rho of v2, v3
    and v4, so a sum that confused rho with rho^-1 would read 4, not 2."""
    e, x = _coset_case()
    a = average(e)
    got = evaluate(a, x)
    assert got == full_group_sum(e, x)
    assert got == HomogValue(Fraction(2), True)
    f = lambda p: e._homog(retraction(apply_gen(LabelledGraphAut(p), x),
                                      e.cone), e.partition)
    assert (f((0, 1, 3, 4, 2, 5, 6)), f((0, 1, 4, 2, 3, 5, 6))) == (
        HomogValue(Fraction(1), True), HomogValue(Fraction(0), True))
    reps = labelled_aut_group(e.graph).pair_orbit(*e.partition).values()
    assert a.multiplicity * sum(f(rho).value for rho in reps) == 4
