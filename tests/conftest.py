import random
from itertools import combinations, product

import pytest
from hypothesis import assume, strategies as st

from qmgraph.autos import enum_labelled_graph_autos, valid_aut0_gens
from qmgraph.decide import EXISTS_CONSTRUCTIVE, decide
from qmgraph.evaluators import (Code, Evaluator, SumBothSides, WeightedZ,
                                average, build)
from qmgraph.graphs import (connected_components, expand, is_lower_cone,
                            parse_graph)
from qmgraph.words import NormalWord, random_word


def ngon(n, label):
    text = "\n".join(f"vertex v{i} {label}" for i in range(n)) + "\n"
    text += "\n".join(f"edge v{i} v{(i + 1) % n}" for i in range(n))
    return parse_graph(text)


def path_graph(labels):
    n = len(labels)
    text = "\n".join(f"vertex v{i} {labels[i]}" for i in range(n)) + "\n"
    text += "\n".join(f"edge v{i} v{i + 1}" for i in range(n - 1))
    return parse_graph(text)


def edgeless(labels):
    return parse_graph("\n".join(f"vertex v{i} {labels[i]}"
                                 for i in range(len(labels))))


def b_graph(n, label):
    """Path v0..v_{n-2} with v_{n-1} and v_n both attached to v_{n-2}."""
    text = "\n".join(f"vertex v{i} {label}" for i in range(n + 1)) + "\n"
    edges = [f"edge v{i} v{i + 1}" for i in range(n - 2)]
    edges += [f"edge v{n - 2} v{n - 1}", f"edge v{n - 2} v{n}"]
    return parse_graph(text + "\n".join(edges))


def octahedron(label):
    text = "\n".join(f"vertex {x} {label}" for x in "abcdvw") + "\n"
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    edges += [(x, y) for x in ("v", "w") for y in ("a", "b", "c", "d")]
    return parse_graph(text + "\n".join(f"edge {x} {y}" for x, y in edges))


def cube(label):
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)
             if bin(i ^ j).count("1") == 1]
    text = "\n".join(f"vertex v{i} {label}" for i in range(8)) + "\n"
    return parse_graph(text + "\n".join(f"edge v{i} v{j}"
                                        for i, j in pairs))


def cubic_graph_text(n, seed):
    """A seeded random cubic graph on v0..v{n-1}, every label Z/3, drawn
    by the pairing model; colour refinement cannot split it."""
    rng = random.Random(seed)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return ("".join(f"vertex v{i} Z/3\n" for i in range(n))
                    + "".join(f"edge v{a} v{b}\n" for a, b in sorted(edges)))


def figure1_raag():
    """Two degree-3 vertices v0, v4 joined through v1, v2, v3; all Z."""
    text = "\n".join(f"vertex v{i} Z" for i in range(5)) + "\n"
    text += "\n".join(f"edge v{a} v{m}" for a in (0, 4) for m in (1, 2, 3))
    return parse_graph(text)


def lambda_raag():
    """figure1 on w0..w4 plus a cherry w5, w6 hanging off w4; all Z."""
    text = "\n".join(f"vertex w{i} Z" for i in range(7)) + "\n"
    text += "\n".join(f"edge w{a} w{m}" for a in (0, 4) for m in (1, 2, 3))
    return parse_graph(text + "\nedge w4 w5\nedge w4 w6")


def brute_force_stabilizer_count(g, cone, partition):
    """|J| by enumeration: labelled graph automorphisms that map the cone
    onto itself and the side pair {A, B} onto itself as a set."""
    A, B = partition
    count = 0
    for sigma in enum_labelled_graph_autos(g):
        pA = frozenset(sigma.perm[v] for v in A)
        pB = frozenset(sigma.perm[v] for v in B)
        count += pA | pB == cone and {pA, pB} == {A, B}
    return count


def constructive_pool():
    """Five constructive graphs with averaged evaluators and generators."""
    pool = []
    for graph, npairs in [(edgeless(["Z/5", "Z/3"]), 60),
                          (path_graph(["Z/2", "Z/4", "Z/3"]), 40),
                          (b_graph(4, "Z/2"), 40),
                          (ngon(5, "Z/2"), 30),
                          (lambda_raag(), 30)]:
        v = decide(graph)
        assert v.status == EXISTS_CONSTRUCTIVE
        g = v.graph
        spec = v.witness
        a = average(build(g, spec.cone, spec.partition, spec.kind))
        gens = list(valid_aut0_gens(g)) + list(enum_labelled_graph_autos(g))
        pool.append((g, a, gens, npairs))
    return pool


def aut_invariance_cases(pool):
    """The (averaged evaluator, word, generator) triples of acceptance
    criterion 06, in its seeded order."""
    rng = random.Random(20260826)
    for g, a, gens, npairs in pool:
        for _ in range(npairs):
            gen = rng.choice(gens)
            yield a, random_word(g, rng.randrange(2, 5),
                                 seed=rng.randrange(10**6)), gen


LABELS = ["Z", "Z/2", "Z/3", "Z/4"]


def _letter(rng, g, S):
    v = rng.choice(sorted(S))
    order = g.labels[v].order
    return (v, rng.choice([-2, -1, 1, 2]) if order is None
            else rng.randrange(1, order))


@st.composite
def averaged_cases(draw):
    """An evaluator of each kind on a free product of two graphs with at
    most 8 vertices, over a lower cone that splits, and a word u w v:
    w realises z in the evaluator's code as decide's witnesses do, and u, v
    are short words on the whole graph, so the terms differ by image."""
    sizes = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    labels = [draw(st.sampled_from(LABELS)) for _ in range(sum(sizes))]
    n = len(labels)
    text = "".join(f"vertex v{i} {lab}\n" for i, lab in enumerate(labels))
    for lo, hi in ((0, sizes[0]), (sizes[0], n)):
        text += "".join(f"edge v{i} v{j}\n" for i in range(lo, hi)
                        for j in range(i + 1, hi) if draw(st.booleans()))
    g = expand(parse_graph(text))
    assume(g.n <= 8)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    cones = [(frozenset(X), comps)
             for r in range(2, g.n + 1)
             for X in combinations(range(g.n), r)
             if is_lower_cone(g, frozenset(X))
             and len(comps := connected_components(g, X)) > 1]
    cone, comps = rng.choice(cones)
    picked = rng.sample(comps, rng.randint(1, len(comps) - 1))
    A = frozenset().union(*picked)
    B = cone - A
    z = rng.choice([(1, 2, 3), (2, 1, 3)])
    kinds = [Code("A", z), Code("B", z), SumBothSides(z)]
    if len(A) == 1 and g.labels[min(A)].is_infinite:
        kinds.append(WeightedZ(z))
    kind = rng.choice(kinds)
    e = Evaluator(g, cone, (A, B), kind)
    S, T = (B, A) if kind == Code("B", z) else (A, B)
    blocks = [_letter(rng, g, S), _letter(rng, g, S)]
    # with an odd number of runs the last run merges into the first one
    # of the next power, so the code of w^n is not n copies of w's
    runs = rng.choice([z, z + (4,)])
    w = [c for i, r in enumerate(runs) for _ in range(r)
         for c in (blocks[i % 2], _letter(rng, g, T))]
    if isinstance(kind, WeightedZ):
        w = [c for i, r in enumerate(runs)
             for c in ((min(A), (-1) ** i * r), _letter(rng, g, T))]
    V = range(g.n)
    u, v = ([_letter(rng, g, V) for _ in range(rng.randint(0, 3))]
            for _ in range(2))
    return e, NormalWord(g, u + w + v)


@pytest.fixture
def z5z3():
    return expand(parse_graph("vertex a Z/5\nvertex b Z/3"))


@pytest.fixture
def pentagon_z2():
    return expand(ngon(5, "Z/2"))


# -- exhaustive rewriting-closure oracle for the normal form -----------------

def closure_canonical(g, letters):
    """Least representative of the rewriting closure of a letter sequence.

    Moves: swap two adjacent letters at adjacent vertices; merge two
    consecutive letters at the same vertex; reduce exponents mod the
    vertex order and drop trivial letters.  The canonical representative
    is the minimum tuple among the shortest words reachable.  Finite
    labels only.
    """
    def norm(seq):
        return tuple((v, e % g.labels[v].order) for v, e in seq
                     if e % g.labels[v].order != 0)

    start = norm(letters)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for word in frontier:
            for i in range(len(word) - 1):
                (v, e), (w, f) = word[i], word[i + 1]
                if v == w:
                    cand = norm(word[:i] + ((v, e + f),) + word[i + 2:])
                elif g.adjacent(v, w):
                    cand = word[:i] + ((w, f), (v, e)) + word[i + 2:]
                else:
                    continue
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    best_len = min(len(w) for w in seen)
    return min(w for w in seen if len(w) == best_len)


# (graph, exponents, longest word): Z/2 letters only merge to the
# identity; Z/3 with exponents {1, 2} also merges to a nonzero letter
CLOSURE_CASES = [
    (edgeless(["Z/2"] * 4), (1,), 6),
    (path_graph(["Z/2"] * 4), (1,), 6),
    (ngon(4, "Z/2"), (1,), 6),
    (ngon(4, "Z/3"), (1, 2), 5),
]


def closure_words(g, exps, max_len):
    """Every letter sequence over the graph's vertices up to max_len."""
    letters = [(v, e) for v in range(g.n) for e in exps]
    for length in range(max_len + 1):
        yield from product(letters, repeat=length)
