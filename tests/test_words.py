"""Normal-form arithmetic: group axioms, parsing, and the rewriting oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from qmgraph.graphs import parse_graph, expand
from qmgraph.words import (NormalWord, WordError, parse_word, random_word,
                           retraction, syllables)

from conftest import (CLOSURE_CASES, closure_canonical, closure_words,
                      edgeless, ngon)
from words_reference import reference_normal_form


def z5z3():
    return expand(edgeless(["Z/5", "Z/3"]))


def test_parse_and_str_roundtrip():
    g = z5z3()
    w = parse_word(g, "v0^4 v1 v0^2")
    assert str(w) == "v0^4 v1 v0^2"
    assert parse_word(g, str(w)) == w


def test_parse_identity_and_errors():
    g = z5z3()
    assert parse_word(g, "e").is_identity()
    assert parse_word(g, "").is_identity()
    with pytest.raises(WordError):
        parse_word(g, "v9")
    with pytest.raises(WordError):
        parse_word(g, "v0^x")
    with pytest.raises(WordError):
        parse_word(g, "v0^0")


def test_torsion_exponents_normalized():
    g = z5z3()
    assert parse_word(g, "v0^5").is_identity()
    assert parse_word(g, "v0^7") == parse_word(g, "v0^2")
    assert parse_word(g, "v0^-1") == parse_word(g, "v0^4")


def test_adjacent_letters_sort_and_merge():
    g = expand(ngon(4, "Z/3"))  # v0-v1-v2-v3-v0; v0,v2 and v1,v3 non-adjacent
    # v1 and v0 are adjacent so commute; least vertex comes first
    assert parse_word(g, "v1 v0") == parse_word(g, "v0 v1")
    # merge through a commuting letter
    assert parse_word(g, "v0 v1 v0^2") == parse_word(g, "v0^3 v1") == \
        parse_word(g, "v1")
    # non-adjacent letters do not commute
    assert parse_word(g, "v0 v2") != parse_word(g, "v2 v0")


def test_group_axioms_sampled():
    g = expand(ngon(5, "Z/2"))
    words = [random_word(g, 6, s) for s in range(12)]
    e = NormalWord.identity(g)
    for x in words:
        assert x * x.inverse() == e
        assert x.inverse().inverse() == x
        assert (x * e) == x and (e * x) == x
    for x in words[:6]:
        for y in words[6:]:
            assert (x * y).inverse() == y.inverse() * x.inverse()
    a, b, c = words[0], words[4], words[8]
    assert (a * b) * c == a * (b * c)


def test_powers():
    g = z5z3()
    x = parse_word(g, "v0 v1")
    assert x ** 0 == NormalWord.identity(g)
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()
    assert len((x ** 10).letters) == 20


def test_conjugate_and_support():
    g = z5z3()
    x = parse_word(g, "v0 v1")
    y = parse_word(g, "v1^2")
    assert x.conjugate_by(y) == y * x * y.inverse()
    assert x.support() == frozenset({0, 1})


def test_retraction_is_homomorphism():
    g = expand(ngon(5, "Z/3"))
    X = frozenset({0, 2, 3})
    for s in range(10):
        x = random_word(g, 5, seed=2 * s)
        y = random_word(g, 5, seed=2 * s + 1)
        assert retraction(x * y, X) == retraction(x, X) * retraction(y, X)
    x = parse_word(g, "v0 v1 v2 v4^2 v3")
    assert retraction(x, X).support() <= X


def test_syllables_alternate_and_multiply_back():
    g = z5z3()
    A, B = frozenset({0}), frozenset({1})
    x = parse_word(g, "v0^4 v1 v0^2 v1^2 v0")
    blocks = syllables(x, (A, B))
    sides = [s for s, _ in blocks]
    assert sides == ["A", "B", "A", "B", "A"]
    prod = NormalWord.identity(g)
    for _, blk in blocks:
        prod = prod * blk
    assert prod == x
    with pytest.raises(WordError):
        syllables(x, (A, frozenset()))  # support escapes the partition


def test_syllables_reject_partition_with_edges():
    g = expand(ngon(4, "Z/2"))
    with pytest.raises(WordError):
        syllables(NormalWord.identity(g), (frozenset({0}), frozenset({1})))


def test_random_word_deterministic():
    g = expand(ngon(5, "Z/2"))
    assert random_word(g, 8, seed=11) == random_word(g, 8, seed=11)
    assert random_word(g, 8, seed=11) != random_word(g, 8, seed=12)


# -- exhaustive rewriting-closure oracle -------------------------------------

@pytest.mark.parametrize("graph,exps,max_len", CLOSURE_CASES,
                         ids=[f"graph{i}" for i in range(len(CLOSURE_CASES))])
def test_normal_form_matches_rewriting_closure(graph, exps, max_len):
    g = expand(graph)
    for letters in closure_words(g, exps, max_len):
        assert NormalWord(g, letters).letters == closure_canonical(g, letters)


# -- differential test against the previous normaliser ------------------------

LABELS = ["Z", "Z/2", "Z/3", "Z/4", "Z/6"]


@st.composite
def graphs_and_words(draw):
    """An expanded graph on <= 6 vertices and three words of <= 40 letters."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6))
    # Z/6 expands to two vertices; keep the expanded graph at <= 6
    while sum(2 if lab == "Z/6" else 1 for lab in labels) > 6:
        labels.pop()
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    text = "".join(f"vertex v{i} {lab}\n" for i, lab in enumerate(labels))
    text += "".join(f"edge v{i} v{j}\n" for i, j in edges)
    g = expand(parse_graph(text))
    letter = st.tuples(st.integers(0, g.n - 1),
                       st.sampled_from([-3, -2, -1, 1, 2, 3]))
    words = [draw(st.lists(letter, max_size=40)) for _ in range(3)]
    return g, words


def _inverse_letters(letters):
    return [(v, -e) for v, e in reversed(letters)]


@settings(max_examples=500, deadline=None)
@given(graphs_and_words(), st.integers(-4, 4))
def test_normal_form_matches_previous_normaliser(gw, k):
    g, (a, b, c) = gw
    x, y, z = (NormalWord(g, w) for w in (a, b, c))
    for w, word in ((a, x), (b, y), (c, z)):
        assert word.letters == reference_normal_form(g, w)
    assert (x * y).letters == reference_normal_form(g, a + b)
    assert (x * y * z).letters == reference_normal_form(g, a + b + c)
    assert x.inverse().letters == reference_normal_form(g, _inverse_letters(a))
    power = a * k if k >= 0 else _inverse_letters(a) * -k
    assert (x ** k).letters == reference_normal_form(g, power)
    # y x y^-1 cancels y against its inverse around x
    conj = b + a + _inverse_letters(b)
    assert (y * x * y.inverse()).letters == reference_normal_form(g, conj)
    assert x.conjugate_by(y).letters == reference_normal_form(g, conj)
