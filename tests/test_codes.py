"""Codes, pattern counting, genericity, and homogenisation."""

import random
from fractions import Fraction
from importlib import resources
from itertools import groupby, product

import pytest
from hypothesis import example, given, settings, strategies as st

import codes_reference as two_pass
import homog_reference
from qmgraph import codes
from qmgraph.autos import apply_gen
from qmgraph.codes import (HomogValue, code, code_qm, count_disjoint,
                           homogenise, is_generic, weighted_code_qm,
                           weighted_z_code)
from qmgraph.decide import EXISTS_CONSTRUCTIVE, decide, witness
from qmgraph.evaluators import (Code, Evaluator, SumBothSides, WeightedZ,
                                build, evaluate)
from qmgraph.graphs import expand, parse_graph
from qmgraph.scl import _cone_word
from qmgraph.words import (NormalWord, WordError, parse_word, random_word,
                           retraction, syllable_letters)

from conftest import (aut_invariance_cases, averaged_cases,
                      constructive_pool, edgeless, lambda_raag, ngon)


@pytest.fixture
def z5b():
    """Z/5 * Z/3 with the torsion side A = {a}."""
    g = expand(parse_graph("vertex a Z/5\nvertex b Z/3"))
    return g, (frozenset({0}), frozenset({1}))


def test_worked_example_codes(z5b):
    g, part = z5b
    word = "a^4 b a^2 b a^2 b a^3 b a b a b a^3 b a b a b a^2 b a^2 b a^2 b"
    x = parse_word(g, word)
    assert code(x, part, "A") == (1, 2, 1, 2, 1, 2, 3)
    assert code(x.inverse(), part, "A") == (3, 2, 1, 2, 1, 2, 1)

    assert count_disjoint(code(x, part, "A"), (1, 2, 1)) == 1
    assert count_disjoint(code(x.inverse(), part, "A"), (1, 2, 1)) == 1
    assert code_qm(x, part, "A", (1, 2, 1)) == 0

    assert count_disjoint(code(x, part, "A"), (1, 2, 3)) == 1
    assert count_disjoint(code(x.inverse(), part, "A"), (1, 2, 3)) == 0
    assert code_qm(x, part, "A", (1, 2, 3)) == 1

    for n in range(1, 33):
        assert code_qm(x ** n, part, "A", (1, 2, 3)) == n

    h = homogenise(lambda w: code_qm(w, part, "A", (1, 2, 3)), x)
    assert h.exact and h.value == 1


def test_weighted_code_example():
    g = expand(parse_graph("vertex a Z\nvertex b Z/3"))
    part = (frozenset({0}), frozenset({1}))
    exps = (8, -4, -4, -1, 7, 2, -3)
    letters = []
    for e in exps:
        letters.append((0, e))
        letters.append((1, 1))
    x = NormalWord(g, letters[:-1])  # trailing Z letter omitted; code is equal
    assert weighted_z_code(x, part) == (8, 9, 9, 3)


def test_weighted_code_requires_z_side():
    g = expand(parse_graph("vertex a Z/5\nvertex b Z/3"))
    part = (frozenset({0}), frozenset({1}))
    with pytest.raises(WordError):
        weighted_z_code(NormalWord.identity(g), part)


def test_weighted_qm_on_alternating_word():
    g = expand(parse_graph("vertex a Z\nvertex b Z/3"))
    part = (frozenset({0}), frozenset({1}))
    # runs 1, 2, 3 with alternating signs stay separate in the weighted code
    x = parse_word(g, "a b a^-2 b a^3 b")
    assert weighted_z_code(x, part) == (1, 2, 3)
    assert count_disjoint(weighted_z_code(x, part), (1, 2, 3)) == 1
    assert weighted_code_qm(x, part, (1, 2, 3)) == 1


def test_genericity_basics():
    assert is_generic((1, 2, 3))
    assert is_generic((1, 3, 2))
    assert is_generic((1, 2, 4))
    assert not is_generic((1, 1, 2))
    assert not is_generic((1, 2, 1))
    assert not is_generic((2, 2, 2))


def test_short_tuples_never_generic():
    for k in (1, 2):
        for z in product(range(1, 5), repeat=k):
            assert not is_generic(z)


def _reverse_occurs_oracle(z):
    z = tuple(z)
    rev = z[::-1]
    k = len(z)
    doubled = z + z
    return any(doubled[i:i + k] == rev for i in range(len(doubled) - k + 1))


def test_genericity_exhaustive_against_oracle():
    for k in range(1, 6):
        for z in product(range(1, 5), repeat=k):
            assert is_generic(z) == (not _reverse_occurs_oracle(z))


def test_count_disjoint_greedy():
    assert count_disjoint((1, 2, 1, 2, 1), (1, 2, 1)) == 1
    assert count_disjoint((1, 2, 1, 1, 2, 1), (1, 2, 1)) == 2
    assert count_disjoint((), (1,)) == 0
    with pytest.raises(ValueError):
        count_disjoint((1, 2), ())


def test_code_of_identity_and_letters(z5b):
    g, part = z5b
    assert code(NormalWord.identity(g), part, "A") == ()
    assert code(NormalWord.letter(g, 0), part, "A") == (1,)
    assert code(NormalWord.letter(g, 1), part, "A") == ()


def test_code_side_validation(z5b):
    g, part = z5b
    with pytest.raises(WordError):
        code(NormalWord.identity(g), part, "C")


def test_homogenise_conjugacy_invariance(z5b):
    g, part = z5b
    f = lambda w: code_qm(w, part, "A", (1, 2, 3))
    x = parse_word(g, "a b a^2 b a^3 b")
    y = parse_word(g, "b a^2")
    hx = homogenise(f, x)
    hy = homogenise(f, y * x * y.inverse())
    assert hx.exact and hy.exact
    assert hx.value == hy.value


def test_homogenise_torsion_vanishes(z5b):
    g, part = z5b
    f = lambda w: code_qm(w, part, "A", (1, 2, 3))
    h = homogenise(f, NormalWord.letter(g, 0))
    assert h.exact and h.value == 0


def test_homogenise_inexact_reports_bound():
    # f(x^n) = (n |x|)^2 never settles: no period shows among the 64
    # powers, so the scan falls back to f(x^64)/64 and flags it inexact
    g = expand(ngon(5, "Z/2"))
    x = parse_word(g, "v2 v0 v3 v0 v3 v0 v2 v0 v2 v0 v2 v0 v3 v0 v3 v0 "
                      "v3 v0 v3 v0 v3 v0 v2")
    f = lambda w: len(w.letters) ** 2
    assert homogenise(f, x) == HomogValue(Fraction(f(x ** 64), 64), False)
    # a code quasimorphism reads 1, 0, 0, ... on the same word and
    # settles at once, exactly
    part = (frozenset({0}), frozenset({2, 3}))
    f = lambda w: code_qm(w, part, "B", (1, 2, 3))
    assert [f(x ** n) for n in (1, 2, 3)] == [1, 0, 0]
    assert homogenise(f, x) == HomogValue(Fraction(0), True)


def test_empirical_defect_bounded(z5b):
    g, part = z5b
    from qmgraph.words import random_word
    f = lambda w: code_qm(w, part, "A", (1, 2, 3))
    worst = 0
    for s in range(100):
        x = random_word(g, 6, seed=2 * s)
        y = random_word(g, 6, seed=2 * s + 1)
        worst = max(worst, abs(f(x) + f(y) - f(x * y)))
    assert worst <= 6


# -- one code per value, against the two-pass definition ----------------------

@st.composite
def free_product_words(draw):
    """W_A * W_B with 1..3 vertices a side (A a single Z vertex when
    weighted) and a word of <= 30 letters on it."""
    weighted = draw(st.booleans())
    side = st.lists(st.sampled_from(["Z", "Z/2", "Z/3", "Z/4"]),
                    min_size=1, max_size=3)
    labels_a = ["Z"] if weighted else draw(side)
    labels = labels_a + draw(side)
    na, n = len(labels_a), len(labels)
    text = "".join(f"vertex v{i} {lab}\n" for i, lab in enumerate(labels))
    for lo, hi in ((0, na), (na, n)):
        text += "".join(f"edge v{i} v{j}\n" for i in range(lo, hi)
                        for j in range(i + 1, hi) if draw(st.booleans()))
    g = expand(parse_graph(text))
    letter = st.tuples(st.integers(0, n - 1),
                       st.sampled_from([-3, -2, -1, 1, 2, 3]))
    x = NormalWord(g, draw(st.lists(letter, max_size=30)))
    return g, (frozenset(range(na)), frozenset(range(na, n))), x, weighted


NON_PALINDROMES = st.lists(st.integers(1, 4), min_size=2, max_size=4).map(
    tuple).filter(lambda z: z != z[::-1])


@settings(max_examples=300, deadline=None)
@given(free_product_words(), NON_PALINDROMES, st.sampled_from([1, 2, 3, -2]))
def test_one_code_matches_two_pass_definition(case, z, k):
    g, part, x, weighted = case
    x = x ** k
    a, b = (two_pass.code_qm(x, part, side, z) for side in "AB")
    assert code_qm(x, part, "A", z) == a
    assert code_qm(x, part, "B", z) == b
    kinds = [(Code("A", z), a), (Code("B", z), b), (SumBothSides(z), a + b)]
    if weighted:
        want = two_pass.weighted_code_qm(x, part, z)
        assert weighted_code_qm(x, part, z) == want
        kinds.append((WeightedZ(z), want))
    for kind, want in kinds:
        e = Evaluator(g, part[0] | part[1], part, kind)
        assert e.base(x, part) == want


@settings(max_examples=100, deadline=None)
@given(free_product_words(), st.sampled_from([1, 2, 3, -2]))
def test_code_matches_block_run_lengths(case, k):
    """code reads letter tuples; the definition compares the blocks."""
    g, part, x, _ = case
    x = x ** k
    for side in "AB":
        blocks = [NormalWord(x.graph, run)
                  for s, run in syllable_letters(x, part) if s == side]
        assert code(x, part, side) == tuple(
            len(list(run)) for _, run in groupby(blocks))


# -- the power scan against exact homogenisation by cyclic reduction --------

def _assert_scan_matches_reference(e, w):
    """The scan is exact and equals the reference."""
    want = homog_reference.homog_value(e, w)
    got = homogenise(lambda u: e.base(u, e.partition), w)
    assert got == HomogValue(want, True), w.letters
    return want


def _pinned_ngon_case():
    """The code quasimorphism of test_homogenise_inexact_reports_bound, as
    an evaluator on the corpus n-gon, with its word, which test_cli
    evaluates too."""
    g = expand(parse_graph(
        (resources.files("qmgraph") / "corpus" / "ngon_5_z2.graph")
        .read_text()))
    e = Evaluator(g, frozenset({0, 2, 3}), (frozenset({0}),
                                           frozenset({2, 3})),
                  Code("B", (1, 2, 3)))
    x = parse_word(g, "v2 v0 v3 v0 v3 v0 v2 v0 v2 v0 v2 v0 v3 v0 v3 v0 "
                      "v3 v0 v3 v0 v3 v0 v2")
    return e, x


def _half_rate_case():
    """z = (1, 2, 3, 1, 2) is generic but overlaps itself, so greedy
    counting on code (1, 2, 3)^n finds one copy every two periods."""
    g = expand(edgeless(["Z/5", "Z/3"]))
    e = Evaluator(g, frozenset({0, 1}), (frozenset({0}), frozenset({1})),
                  Code("A", (1, 2, 3, 1, 2)))
    x = parse_word(g, "v0 v1 v0^2 v1 v0^2 v1 v0^3 v1 v0^3 v1 v0^3 v1")
    assert homog_reference.homog_value(e, x) == Fraction(1, 2)
    return e, x


@settings(max_examples=150, deadline=None)
@given(averaged_cases(), st.integers(2, 3), st.integers(0, 2 ** 32))
@example(_pinned_ngon_case(), 2, 0)
@example(_half_rate_case(), 2, 0)
def test_homogenise_matches_cyclic_reduction(case, k, seed):
    e, x = case
    y = random_word(e.graph, 4, seed=seed)
    for word in (x, x ** k, x.inverse(), y * x * y.inverse()):
        _assert_scan_matches_reference(e, retraction(word, e.cone))


@settings(max_examples=60, deadline=None)
@given(averaged_cases(), st.integers(0, 2 ** 32))
def test_homogenise_matches_cyclic_reduction_on_products(case, seed):
    """Products g h as estimate_defect draws them, from pairs of cone words
    and of uniform words, and with x, which realises z, as a factor."""
    e, x = case
    rng = random.Random(seed)
    for _ in range(2):
        c = _cone_word(e, rng, 8)
        pairs = [(_cone_word(e, rng, 8), _cone_word(e, rng, 8)),
                 tuple(random_word(e.graph, rng.randrange(1, 9),
                                   seed=rng.randrange(1 << 30))
                       for _ in "gh"),
                 (x, c), (c, x), (x, c * x * c.inverse())]
        for g, h in pairs:
            for word in (g, h, g * h):
                _assert_scan_matches_reference(e, retraction(word, e.cone))


def test_homogenise_matches_cyclic_reduction_on_criterion_06():
    """Every term of every evaluation in acceptance criterion 06, and the
    averaged value."""
    for a, x, gen in aut_invariance_cases(constructive_pool()):
        terms = [Evaluator(a.graph, cone, pair, a.kind)
                 for cone, pair in a.images]
        for word in (x, apply_gen(gen, x)):
            want = a.multiplicity * sum(
                _assert_scan_matches_reference(t, retraction(word, t.cone))
                for t in terms)
            assert evaluate(a, word) == HomogValue(want, True), word.letters


@pytest.mark.parametrize("params,exact", [((3, 1), False), ((2, 1), False),
                                          ((2, 2), False), ((4, 1), True),
                                          ((64, 8), True)])
def test_cli_inexact_case_matches_cyclic_reduction(params, exact,
                                                   monkeypatch):
    """The eval word of test_cli on the corpus n-gon, scanned at the
    depths the CLI once let a user pick: too shallow to see the period,
    the scan falls back to s_N/N and flags it inexact; from (4, 1) on it
    is exact and equals cyclic reduction."""
    e, x = _pinned_ngon_case()
    f = lambda u: e.base(u, e.partition)
    max_n, max_period = params
    monkeypatch.setattr(codes, "MAX_N", max_n)
    monkeypatch.setattr(codes, "MAX_PERIOD", max_period)
    got = homogenise(f, x)
    want = homog_reference.homog_value(e, x)
    if exact:
        assert got == HomogValue(want, True)
    else:
        assert got == HomogValue(Fraction(f(x ** max_n), max_n), False)
    monkeypatch.undo()
    assert _assert_scan_matches_reference(e, x) == 0


@pytest.mark.xfail(strict=True, reason="the power scan reads a period "
                   "that a long pattern breaks only after the scanned "
                   "powers, and flags the wrong value exact")
@pytest.mark.parametrize("copies,want", [(8, Fraction(1, 9)),
                                         (20, Fraction(1, 21))])
def test_long_pattern_value_is_exact(copies, want):
    """z = (1, 2, 3)^copies 1 on the word of _half_rate_case: greedy
    counting on the code (1, 2, 3)^n finds one copy of z every copies + 1
    periods.  Exact homogenisation passes this test; the marker goes
    with the scan."""
    g = expand(edgeless(["Z/5", "Z/3"]))
    e = build(g, frozenset({0, 1}), (frozenset({0}), frozenset({1})),
              Code("A", (1, 2, 3) * copies + (1,)))
    x = parse_word(g, "v0 v1 v0^2 v1 v0^2 v1 v0^3 v1 v0^3 v1 v0^3 v1")
    assert homog_reference.homog_value(e, x) == want
    assert evaluate(e, x) == HomogValue(want, True)


def _witness_graphs():
    root = resources.files("qmgraph") / "corpus"
    for line in (root / "expected.tsv").read_text().splitlines():
        name, status = line.split("\t")
        if status == EXISTS_CONSTRUCTIVE:
            yield pytest.param(
                parse_graph((root / f"{name}.graph").read_text()), id=name)
    # WeightedZ witnesses on a RAAG and on two free products, and a
    # SumBothSides witness on a star with a Z centre
    yield pytest.param(lambda_raag(), id="lambda_raag")
    yield pytest.param(edgeless(["Z", "Z/3"]), id="free_z_z3")
    yield pytest.param(edgeless(["Z/2", "Z/3", "Z"]), id="free_z2_z3_z")
    yield pytest.param(parse_graph(
        "vertex c Z\n" + "".join(f"vertex l{i} Z/{2 + i % 2}\nedge c l{i}\n"
                                 for i in range(4))), id="star_z_4")


@pytest.mark.parametrize("graph", _witness_graphs())
def test_witness_homogenises_to_the_reference_value(graph):
    """The scan at its defaults agrees with the reference on each witness,
    its powers, its inverse and its conjugates, and the reference reads 1
    on the witness and on every conjugate of it."""
    v = decide(graph)
    spec = v.witness
    e = build(v.graph, spec.cone, spec.partition, spec.kind)
    x = witness(graph, v)
    for k in (1, 2, 3, -1):
        w = retraction(x ** k, e.cone)
        assert _assert_scan_matches_reference(e, w) == k
    for seed in range(3):
        y = random_word(v.graph, 5, seed=seed)
        w = retraction(y * x * y.inverse(), e.cone)
        assert _assert_scan_matches_reference(e, w) == 1
