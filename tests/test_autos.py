"""Automorphism generators: validation, action, and enumeration."""

import itertools
import math
import random
import time

import pytest

import autos_reference as letterwise
from autos_reference import pair_orbit as frozenset_pair_orbit
from qmgraph.autos import (AutError, AutWord, FactorAut, LabelledGraphAut,
                           PartialConj, Transvection, apply_gen,
                           enum_labelled_graph_autos, labelled_aut_group,
                           labelled_isomorphisms, random_aut0,
                           valid_aut0_gens, validate_gen)
from qmgraph.evaluators import labeled_isomorphic
from qmgraph.graphs import GraphError, expand, parse_graph, tau_classes
from qmgraph.words import NormalWord, parse_word, random_word

from conftest import (cubic_graph_text, edgeless, figure1_raag, ngon,
                      path_graph)


def brute_force_lgas(g):
    out = []
    for perm in itertools.permutations(range(g.n)):
        if any(g.labels[v] != g.labels[perm[v]] for v in range(g.n)):
            continue
        if all(g.adjacent(perm[i], perm[j]) == g.adjacent(i, j)
               for i in range(g.n) for j in range(i + 1, g.n)):
            out.append(perm)
    return sorted(out)


@pytest.mark.parametrize("graph,count", [
    (ngon(4, "Z/2"), 8),           # dihedral group of the square
    (path_graph(["Z/2", "Z/3", "Z/5"]), 1),  # distinct labels pin everything
    (path_graph(["Z/2", "Z/3", "Z/2"]), 2),  # swap the equal ends
    (edgeless(["Z/5", "Z/5", "Z/5"]), 6),    # free symmetric action
])
def test_lga_enumeration_counts(graph, count):
    g = expand(graph)
    autos = enum_labelled_graph_autos(g)
    assert len(autos) == count
    assert sorted(a.perm for a in autos) == brute_force_lgas(g)
    for a in autos:
        ok, reason = validate_gen(g, a)
        assert ok, reason


def test_labelled_isomorphisms_match_brute_force():
    rng = random.Random(7)
    n = 6
    for _ in range(100):
        g = expand(parse_graph(
            "".join(f"vertex v{i} {rng.choice(['Z', 'Z/2'])}\n"
                    for i in range(n))
            + "".join(f"edge v{i} v{j}\n" for i in range(n)
                      for j in range(i + 1, n) if rng.random() < 0.4)))
        for k in range(1, 5):
            xs = sorted(rng.sample(range(n), k))
            ys = sorted(rng.sample(range(n), k))
            want = [p for p in itertools.permutations(ys)
                    if all(g.labels[v] == g.labels[t]
                           for v, t in zip(xs, p))
                    and all(g.adjacent(xs[a], xs[b])
                            == g.adjacent(p[a], p[b])
                            for a in range(k) for b in range(a + 1, k))]
            assert list(labelled_isomorphisms(g, xs, ys)) == want
            # a fixed partial map keeps exactly the maps that contain it
            a, b = rng.randrange(k), rng.randrange(k)
            fixed = [(xs[a], ys[b])]
            assert list(labelled_isomorphisms(g, xs, ys, fixed)) == [
                p for p in want if p[a] == ys[b]]
            assert labeled_isomorphic(g, frozenset(xs),
                                      frozenset(ys)) == bool(want)


def test_lga_search_budget_refills_at_each_map(monkeypatch):
    # no vertex cap: 17 vertices are searched like any other
    assert (labelled_aut_group(expand(edgeless(["Z/2"] * 17))).order
            == math.factorial(17))
    path17 = expand(path_graph(["Z/2"] * 17))
    assert [a.perm for a in enum_labelled_graph_autos(path17)] == [
        tuple(range(17)), tuple(range(16, -1, -1))]
    # on five free vertices the first map takes 6 nodes and each next one
    # at most 5, so a budget of 6 lists all 5! maps, about e * 5! nodes in
    # all, and a budget of 5 finds none
    five = expand(edgeless(["Z/2"] * 5))
    monkeypatch.setattr("qmgraph.autos.SEARCH_BUDGET", 6)
    assert len(enum_labelled_graph_autos(five)) == 120
    assert labelled_aut_group(five).order == 120
    monkeypatch.setattr("qmgraph.autos.SEARCH_BUDGET", 5)
    for search in (enum_labelled_graph_autos, labelled_aut_group):
        with pytest.raises(GraphError, match=r"^search budget exceeded "
                           r"\(automorphism search: 5 nodes\)$"):
            search(five)


def test_search_budget_stops_hard_graphs():
    # colour refinement cannot split these graphs.  At n=16 the group
    # searches spend about 20k nodes in all.  At n=18 and 20 no single
    # search needs 2^16 nodes, but the shared meter runs out.  (Seed 0 at
    # n=18 spends 63k nodes and returns |Aut| = 1: on a rigid graph every
    # search fails, so the level order does not change the count.)
    for seed, order in ((0, 1), (1, 2)):
        g = expand(parse_graph(cubic_graph_text(16, seed)))
        assert labelled_aut_group(g).order == order
    for n, seed in ((18, 1), (20, 0), (24, 0)):
        g = expand(parse_graph(cubic_graph_text(n, seed)))
        start = time.perf_counter()
        with pytest.raises(GraphError, match=r"^search budget exceeded "
                           r"\(automorphism search: 65536 nodes\)$"):
            labelled_aut_group(g)
        assert time.perf_counter() - start < 10


def test_aut_group_matches_brute_force():
    """|Aut|, the vertex orbits and the orbit of a side pair, with its
    representatives, against all permutations of seeded graphs."""
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 6)
        density = rng.random()
        g = expand(parse_graph(
            "".join(f"vertex v{i} {rng.choice(['Z', 'Z/2', 'Z/3'])}\n"
                    for i in range(n))
            + "".join(f"edge v{i} v{j}\n" for i in range(n)
                      for j in range(i + 1, n) if rng.random() < density)))
        perms = brute_force_lgas(g)
        group = labelled_aut_group(g)
        assert group.order == len(perms)
        orbits = {frozenset(p[v] for p in perms) for v in range(g.n)}
        assert group.vertex_orbits() == sorted(orbits, key=min)
        A = frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
        B = frozenset(rng.sample(range(g.n), rng.randint(0, g.n)))
        image = lambda p, S: frozenset(p[v] for v in S)
        reps = group.pair_orbit(A, B)
        assert set(reps) == {(image(p, A), image(p, B)) for p in perms}
        for (pA, pB), rho in reps.items():
            assert rho in perms
            assert (image(rho, A), image(rho, B)) == (pA, pB)


def _graph(n, adjacent):
    """v0..v{n-1}, every label Z/2, with the edges adjacent(i, j)."""
    return expand(parse_graph(
        "".join(f"vertex v{i} Z/2\n" for i in range(n))
        + "".join(f"edge v{i} v{j}\n" for i in range(n)
                  for j in range(i + 1, n) if adjacent(i, j))))


def _star(k):
    """K_{1,k}: a Z centre c and k Z/3 leaves l0..l{k-1}."""
    return expand(parse_graph(
        "vertex c Z\n" + "".join(f"vertex l{i} Z/3\n" for i in range(k))
        + "".join(f"edge c l{i}\n" for i in range(k))))


@pytest.mark.parametrize("k", [7, 15, 30])
def test_star_group_has_k_minus_1_generators(k):
    """The levels are searched deepest first, so S_k on the leaves needs
    one new generator per level, not one per pair of leaves."""
    g = _star(k)
    group = labelled_aut_group(g)
    assert group.order == math.factorial(k)
    assert len(group.gens) <= k - 1
    A, B = frozenset({1}), frozenset({2})
    reps = group.pair_orbit(A, B)
    assert len(reps) == k * (k - 1)
    for (pA, pB), rho in reps.items():
        assert validate_gen(g, LabelledGraphAut(rho))[0]
        assert ({rho[v] for v in A}, {rho[v] for v in B}) == (pA, pB)


_PAIRS5 = list(itertools.combinations(range(5), 2))


@pytest.mark.parametrize("n,adjacent,order", [
    # Petersen: the 2-subsets of 5 points, adjacent when disjoint
    (10, lambda i, j: not set(_PAIRS5[i]) & set(_PAIRS5[j]), 120),
    (13, lambda i, j: (j - i) % 13 in {1, 3, 4, 9, 10, 12}, 78),  # Paley(13)
    (16, lambda i, j: i // 4 == j // 4 or i % 4 == j % 4, 1152),  # 4x4 rook
    # Shrikhande: Z/4 x Z/4, steps +-(0, 1), +-(1, 0), +-(1, 1)
    (16, lambda i, j: ((j // 4 - i // 4) % 4, (j - i) % 4) in
     {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}, 192),
    # Clebsch: (Z/2)^4, steps of weight 1 and 1111
    (16, lambda i, j: bin(i ^ j).count("1") in (1, 4), 1920),
], ids=["petersen", "paley13", "rook4x4", "shrikhande", "clebsch"])
def test_aut_group_of_strongly_regular_graphs(n, adjacent, order):
    """Colour refinement cannot split these graphs: each is regular and
    every label is Z/2.  Each group is vertex-transitive."""
    group = labelled_aut_group(_graph(n, adjacent))
    assert group.order == order
    assert group.vertex_orbits() == [frozenset(range(n))]


def _twin_blowup(rng):
    """A seeded graph of 9 to 24 vertices: a random base graph whose
    vertices are blown up into modules of 1 to 3 twins, in a shuffled
    vertex order, so that its group is a product of symmetric groups
    and the base graph's symmetries."""
    sizes = [rng.randint(1, 3)]
    while sum(sizes) < 9 or (rng.random() < 0.7 and sum(sizes) < 22):
        sizes.append(rng.randint(1, 3))
    m = len(sizes)
    base = {(a, b) for a in range(m) for b in range(a, m)
            if rng.random() < 0.4}
    labels = [rng.choice(["Z", "Z/2", "Z/3"]) for _ in range(m)]
    owner = [a for a in range(m) for _ in range(sizes[a])]
    rng.shuffle(owner)
    n = len(owner)
    return parse_graph(
        "".join(f"vertex v{i} {labels[owner[i]]}\n" for i in range(n))
        + "".join(f"edge v{i} v{j}\n" for i in range(n)
                  for j in range(i + 1, n)
                  if (min(owner[i], owner[j]), max(owner[i], owner[j]))
                  in base))


def _grid(r, c):
    """The r x c grid, every label Z/2."""
    return _graph(r * c, lambda i, j: j - i == c or (j - i == 1 and j % c))


def _pair_orbit_graphs():
    rng = random.Random(17)
    for _ in range(40):
        yield expand(_twin_blowup(rng))
    for n in (9, 16, 24):
        yield expand(ngon(n, "Z/2"))
    yield _star(9)
    for r, c in ((3, 3), (3, 5), (4, 4)):
        yield _grid(r, c)


def test_pair_orbit_matches_frozenset_search():
    """The orbit of side pairs of several vertices, past the 8 vertices a
    brute force reaches, against the search on frozenset pairs."""
    rng = random.Random(19)
    for g in _pair_orbit_graphs():
        group = labelled_aut_group(g)
        for _ in range(3):
            A = frozenset(rng.sample(range(g.n), rng.randint(2, 4)))
            B = frozenset(rng.sample(sorted(set(range(g.n)) - A),
                                     rng.randint(1, 4)))
            reps = group.pair_orbit(A, B)
            assert set(reps) == set(frozenset_pair_orbit(group, A, B))
            assert next(iter(reps.items())) == ((A, B), tuple(range(g.n)))
            for (pA, pB), rho in reps.items():
                assert validate_gen(g, LabelledGraphAut(rho))[0]
                assert ({rho[v] for v in A}, {rho[v] for v in B}) == (pA, pB)


def test_lga_preserves_tau_classes():
    g = expand(figure1_raag())
    tc = tau_classes(g)
    for a in enum_labelled_graph_autos(g):
        for c in tc.classes:
            assert frozenset(a.perm[v] for v in c) in tc.classes


def test_factor_aut_validation():
    g = expand(parse_graph("vertex a Z/4\nvertex b Z"))
    assert validate_gen(g, FactorAut(0, 3))[0]
    assert not validate_gen(g, FactorAut(0, 2))[0]   # gcd(2,4) != 1
    assert validate_gen(g, FactorAut(1, -1))[0]
    assert not validate_gen(g, FactorAut(1, 2))[0]   # infinite order needs +-1


def test_factor_aut_rejects_vertex_outside_graph(z5z3):
    for v in (-1, 2, 5):
        ok, reason = validate_gen(z5z3, FactorAut(v, 2))
        assert not ok and "not in V" in reason


def test_transvection_validation():
    g = expand(figure1_raag())
    assert validate_gen(g, Transvection(0, 4))[0]
    assert validate_gen(g, Transvection(4, 0))[0]
    assert not validate_gen(g, Transvection(0, 0))[0]
    assert not validate_gen(g, Transvection(1, 0))[0]  # v4 not in st(v0)


def test_no_transvections_on_pentagon_raag():
    g = expand(ngon(5, "Z"))
    assert not any(isinstance(gen, Transvection)
                   for gen in valid_aut0_gens(g))


def test_partial_conj_validation():
    g = expand(path_graph(["Z/2"] * 4))
    # star complement of v1 is {v3}
    assert validate_gen(g, PartialConj(1, frozenset({3})))[0]
    assert not validate_gen(g, PartialConj(1, frozenset({2, 3})))[0]


def test_transvection_exponent_bump():
    # finite-order transvection onto a larger power of the same prime
    g = expand(parse_graph("vertex v Z/2\nvertex w Z/4\nedge v w"))
    assert g.leq_tau(0, 1)
    x = apply_gen(Transvection(0, 1), NormalWord.letter(g, 0))
    assert x == parse_word(g, "v w^2")
    # the image still squares to the identity
    assert not (x * x).letters


def test_apply_is_homomorphism():
    g = expand(figure1_raag())
    gens = [Transvection(0, 4), FactorAut(2, -1),
            PartialConj(0, frozenset({4})),
            enum_labelled_graph_autos(g)[1]]
    words = [(random_word(g, 5, seed=3 * s), random_word(g, 5, seed=3 * s + 1))
             for s in range(6)]
    for gen in gens:
        for x, y in words:
            assert apply_gen(gen, x * y) == \
                apply_gen(gen, x) * apply_gen(gen, y)
            assert apply_gen(gen, x.inverse()) == apply_gen(gen, x).inverse()


def test_apply_invalid_generator_raises():
    g = expand(figure1_raag())
    with pytest.raises(AutError):
        apply_gen(Transvection(1, 0), NormalWord.identity(g))
    # the path v0 - v1 - v2 labelled Z/2, Z/2, Z/3
    h = expand(path_graph(["Z/2", "Z/2", "Z/3"]))
    for perm, reason in (((0, 0, 1), "not a permutation of V"),
                         ((2, 1, 0), "labels not preserved"),
                         ((1, 0, 2), "edges not preserved")):
        assert validate_gen(h, LabelledGraphAut(perm)) == (False, reason)
        with pytest.raises(AutError, match=reason):
            apply_gen(LabelledGraphAut(perm), NormalWord.identity(h))
    with pytest.raises(GraphError, match="expanded graphs"):
        validate_gen(path_graph(["Z/6", "Z/2"]), LabelledGraphAut((0, 1)))
    unexpanded = parse_graph("vertex a Z/6")
    for search in (lambda: next(enum_labelled_graph_autos(unexpanded)),
                   lambda: labelled_aut_group(unexpanded)):
        with pytest.raises(GraphError, match="^enumeration is defined on "
                                             "expanded graphs$"):
            search()


def test_aut_word_composition_and_apply():
    g = expand(figure1_raag())
    t = Transvection(0, 4)
    f = FactorAut(0, -1)
    x = random_word(g, 6, seed=9)
    w = AutWord((t, f))
    assert w(x) == apply_gen(t, apply_gen(f, x))
    assert AutWord()(x) == x


def test_random_aut0_deterministic():
    g = expand(figure1_raag())
    x = random_word(g, 6, seed=1)
    a = random_aut0(g, 4, seed=5)
    b = random_aut0(g, 4, seed=5)
    assert a(x) == b(x)


def test_random_aut0_without_type_2_to_4_generators():
    # Z/2 has no factor automorphism but the identity, and one vertex has
    # no transvection or partial conjugation: the pool is empty
    g = expand(parse_graph("vertex a Z/2"))
    assert len(valid_aut0_gens(g)) == 0
    phi = random_aut0(g, 4, seed=0)
    assert phi == AutWord()
    x = parse_word(g, "a")
    assert phi(x) == x


def test_valid_aut0_gens_all_validate():
    for graph in (figure1_raag(), ngon(4, "Z/3"), path_graph(["Z/2"] * 4)):
        g = expand(graph)
        for gen in valid_aut0_gens(g):
            ok, reason = validate_gen(g, gen)
            assert ok, reason


def test_valid_aut0_gens_is_lazy_on_a_huge_order():
    # one Z/(10^9+7) vertex has 10^9 + 5 factor automorphisms m = 2..p-1
    p = 10 ** 9 + 7
    start = time.perf_counter()
    gens = valid_aut0_gens(expand(edgeless([f"Z/{p}"])))
    assert len(gens) == p - 2
    assert (gens[0], gens[p - 3]) == (FactorAut(0, 2), FactorAut(0, p - 1))
    assert time.perf_counter() - start < 1


# -- one normalisation per image, against the letterwise definition ----------

def _small_graphs():
    yield figure1_raag()
    yield ngon(4, "Z/3")
    yield ngon(5, "Z")
    yield path_graph(["Z/2", "Z/4", "Z/2"])  # transvections bump exponents
    yield path_graph(["Z", "Z/2", "Z", "Z/4"])
    yield edgeless(["Z/2", "Z/4", "Z"])
    yield parse_graph("vertex c Z\nvertex a Z/3\nvertex b Z/3\n"
                      "vertex d Z\nedge c a\nedge c b\nedge c d")
    rng = random.Random(5)
    for _ in range(12):
        n = rng.randint(2, 5)
        labels = [rng.choice(["Z", "Z/2", "Z/4", "Z/3"]) for _ in range(n)]
        text = "".join(f"vertex v{i} {lab}\n" for i, lab in enumerate(labels))
        text += "".join(f"edge v{i} v{j}\n" for i in range(n)
                        for j in range(i + 1, n) if rng.random() < 0.5)
        yield parse_graph(text)


@pytest.mark.parametrize("graph", list(_small_graphs()))
def test_apply_gen_matches_letterwise_definition(graph):
    g = expand(graph)
    gens = list(valid_aut0_gens(g)) + enum_labelled_graph_autos(g)
    words = [random_word(g, k, seed=k) for k in range(0, 16, 3)]
    # a large exponent on every vertex, then the product of all of them
    words += [NormalWord.letter(g, v, 1000 + v) for v in range(g.n)]
    words.append(NormalWord(g, [(v, 1000 + v) for v in range(g.n)]))
    for gen in gens:
        for x in words:
            assert apply_gen(gen, x) == letterwise.apply_gen(gen, x)


def _aut0_graphs():
    yield from _small_graphs()
    # higher prime powers, and composite orders split by expand
    yield edgeless(["Z/8", "Z/9", "Z/25", "Z/49", "Z/360", "Z"])
    yield path_graph(["Z/27", "Z/16", "Z/27"])


@pytest.mark.parametrize("graph", list(_aut0_graphs()))
def test_aut0_pool_matches_list_version(graph):
    g = expand(graph)
    assert list(valid_aut0_gens(g)) == letterwise.valid_aut0_gens(g)
    for seed in range(200):
        assert random_aut0(g, 3, seed) == letterwise.random_aut0(g, 3, seed)


def test_random_aut0_on_huge_cyclic_order_is_fast():
    g = expand(edgeless([f"Z/{10**9 + 7}", "Z/3"]))
    start = time.perf_counter()
    phi = random_aut0(g, 4, seed=0)
    assert time.perf_counter() - start < 0.5
    assert all(validate_gen(g, gen)[0] for gen in phi.gens)
    assert any(isinstance(gen, FactorAut) and gen.vertex == 0
               for gen in phi.gens)
