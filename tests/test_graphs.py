import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qmgraph import cli
from qmgraph.graphs import (GraphError, LabeledGraph, VertexGroupSpec, Z,
                            _prime_factors, center_support,
                            connected_components, cyclic, expand,
                            is_lower_cone, lower_cone_L, parse_graph,
                            primary, tau_classes, FREE, FREE_ABELIAN,
                            FINITE_ABELIAN)
import graphs_reference as reference
from conftest import figure1_raag, lambda_raag, ngon, path_graph


def test_parse_basic():
    g = parse_graph("# a comment\nvertex a Z\nvertex b Z/6\nedge a b\n")
    assert g.n == 2
    assert g.labels[0].is_infinite
    assert g.labels[1].order == 6
    assert g.adjacent(0, 1)


def _trial_division(n):
    out, p = [], 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    return out + [(n, 1)] if n > 1 else out


def test_prime_factors_match_trial_division():
    big = (1_000_003 * 1_000_033, 1021 ** 3 * 1031, 2 ** 61 - 1,
           (2 ** 31 - 1) ** 2, 1009 * 1013 * 1019, 3 ** 7 * 1_000_000_007)
    for n in list(range(2, 3000)) + [n * 7 for n in big[:2]]:
        assert _prime_factors(n) == _trial_division(n), n
    assert _prime_factors(2 ** 61 - 1) == [(2 ** 61 - 1, 1)]
    assert _prime_factors((2 ** 31 - 1) ** 2) == [(2 ** 31 - 1, 2)]
    assert _prime_factors(3 ** 7 * 1_000_000_007) == [(3, 7),
                                                      (1_000_000_007, 1)]
    assert _prime_factors(2 ** 100 * (2 ** 61 - 1)) == [(2, 100),
                                                         (2 ** 61 - 1, 1)]


def test_construction_ignores_edge_order_and_repeats():
    verts = [("a", Z), ("b", cyclic(2)), ("c", Z), ("d", cyclic(9))]
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
    g = LabeledGraph(verts, pairs)
    # the index pairs (i, j), i < j, that the edge list names
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2), (2, 3)})
    for perm in itertools.permutations(pairs):
        edges = [(b, a) if k % 2 else (a, b) for k, (a, b) in enumerate(perm)]
        for h in (LabeledGraph(verts, edges),
                  LabeledGraph(verts, edges + edges[::-1])):
            assert h.edges == g.edges
            assert h == g and hash(h) == hash(g)
    assert LabeledGraph(verts, pairs[:3]) != g
    assert LabeledGraph(verts[::-1], pairs) != g


def test_construction_errors():
    verts = [("a", Z), ("b", cyclic(2))]
    with pytest.raises(GraphError, match="^undefined endpoint in edge a x$"):
        LabeledGraph(verts, [("a", "b"), ("a", "x")])
    with pytest.raises(GraphError, match="^undefined endpoint in edge x b$"):
        LabeledGraph(verts, [("x", "b")])
    with pytest.raises(GraphError, match="^self-loop at b$"):
        LabeledGraph(verts, [("a", "b"), ("b", "b")])
    with pytest.raises(GraphError, match="^duplicate vertex id$"):
        LabeledGraph(verts + [("a", Z)], [])
    with pytest.raises(GraphError,
                       match="^finite vertex group needs order >= 2$"):
        cyclic(1)
    with pytest.raises(GraphError,
                       match="^primary label inconsistent with order$"):
        VertexGroupSpec(4, 2, 1)  # 4 is not 2^1


PARSE_ERRORS = [
    ("vertex a Z\nvertex a Z", "line 2: duplicate vertex a"),
    ("vertex a Z\nedge a b", "line 2: undefined endpoint b"),
    ("vertex a Z\nedge b b", "line 2: undefined endpoint b"),
    ("vertex a Z\nedge a a", "line 2: self-loop at a"),
    ("vertex a Z/1", "line 1: Z/1 needs n >= 2"),
    ("vertex a Z/0", "line 1: Z/0 needs n >= 2"),
    ("wibble a Z", "line 1: syntax error: 'wibble a Z'"),
    ("vertex a Z\nedge a", "line 2: syntax error: 'edge a'"),
    ("vertex 1a Z", "line 1: bad vertex id '1a'"),
    ("vertex a Z/x", "line 1: bad label 'Z/x'"),
    # int() alone takes an underscore, a sign and non-ASCII digits
    ("vertex a Z/1_0", "line 1: bad label 'Z/1_0'"),
    ("vertex b Z/+7", "line 1: bad label 'Z/+7'"),
    ("vertex c Z/\u0663", "line 1: bad label 'Z/\u0663'"),
    ("vertex a Z\nvertex b Q", "line 2: bad label 'Q'"),
    ("", "graph has no vertices"),
    ("# c\n\nvertex a Z\nedge b a", "line 4: undefined endpoint b"),
]


def test_parse_errors():
    for text, message in PARSE_ERRORS:
        with pytest.raises(GraphError) as exc:
            parse_graph(text)
        assert str(exc.value) == message, text


def test_expand_splits_composite_orders():
    g = parse_graph("vertex a Z/12\nvertex b Z/5\nedge a b")
    h = expand(g)
    assert h.n == 3
    labels = sorted(str(s) for s in h.labels)
    assert labels == ["Z/3", "Z/4", "Z/5"]
    # primary factors of a are mutually adjacent and inherit a's edges
    idx = {name: i for i, name in enumerate(h.names)}
    a4, a3, b = idx["a_p2k2"], idx["a_p3k1"], idx["b"]
    assert h.adjacent(a4, a3) and h.adjacent(a4, b) and h.adjacent(a3, b)
    assert h.is_expanded()
    assert expand(h).names == h.names


def test_expand_keeps_primary_ids():
    h = expand(parse_graph("vertex a Z/8\nvertex b Z"))
    assert list(h.names) == ["a", "b"]


def test_preorders_on_path():
    g = expand(path_graph(["Z/2"] * 4))
    # st(v0) = {v0, v1} is contained in st(v1)
    assert g.leq_tau(0, 1)
    assert g.leq_tau(0, 0)  # reflexive by convention
    assert not g.leq_tau(1, 2)


def test_leq_tau_mixed_primes():
    g = expand(parse_graph("vertex a Z/2\nvertex b Z/3\nedge a b"))
    # different primes never compare (except reflexively)
    assert not g.leq_tau(0, 1)
    assert not g.leq_tau(1, 0)


def test_tau_classes_figure1():
    tc = tau_classes(expand(figure1_raag()))
    classes = sorted(sorted(c) for c in tc.classes)
    assert classes == [[0, 4], [1, 2, 3]]
    assert sorted(tc.class_type) == [(FREE, 2), (FREE, 3)]
    assert len(tc.minimal_classes()) == 2


def test_tau_classes_lambda():
    g = expand(lambda_raag())
    tc = tau_classes(g)
    named = sorted(sorted(g.names_of(c)) for c in tc.classes)
    assert named == [["w0"], ["w1", "w2", "w3"], ["w4"], ["w5", "w6"]]
    mins = {tuple(sorted(g.names_of(tc.classes[i])))
            for i in tc.minimal_classes()}
    assert ("w4",) not in mins
    assert len(mins) == 3


def test_class_types_trichotomy():
    g = expand(parse_graph(
        "vertex a Z/2\nvertex b Z/2\nedge a b\n"
        "vertex c Z\nvertex d Z\nedge c d\nedge c a\nedge c b\n"
        "edge d a\nedge d b"))
    tc = tau_classes(g)
    kinds = sorted(tc.class_type)
    assert (FINITE_ABELIAN, 2) in kinds
    assert (FREE_ABELIAN, 2) in kinds


def test_lower_cones_pentagon():
    g = expand(ngon(5, "Z/2"))
    assert is_lower_cone(g, frozenset({0, 2, 3}))
    assert is_lower_cone(g, frozenset(range(5)))
    L = lower_cone_L(g, frozenset({0}))
    assert sorted(L) == [2, 3]


def test_lower_cone_rejects_non_cone():
    g = expand(path_graph(["Z/2"] * 4))
    # v0 lies below v1, so a set containing v1 without v0 is not closed
    assert not is_lower_cone(g, frozenset({1}))
    assert is_lower_cone(g, frozenset({0, 1}))


def test_center_support():
    g = expand(path_graph(["Z/2", "Z/4", "Z/2"]))
    assert sorted(center_support(g)) == [1]
    assert center_support(expand(ngon(5, "Z/2"))) == frozenset()


def test_connected_components_order():
    g = expand(parse_graph(
        "vertex a Z/2\nvertex b Z/2\nvertex c Z/2\nedge b c"))
    comps = connected_components(g, range(3))
    assert comps == [frozenset({0}), frozenset({1, 2})]


def test_tau_requires_expanded():
    g = parse_graph("vertex a Z/6")
    with pytest.raises(GraphError):
        tau_classes(g)


# -- the <=_tau table against its definition --------------------------------

LABELS = ["Z", "Z/2", "Z/3", "Z/4", "Z/6"]


def _expanded_size(label):
    return 1 if label == "Z" else len(_prime_factors(int(label[2:])))


@st.composite
def raw_graphs(draw, labels=LABELS, max_n=7):
    """A graph, not expanded, whose expansion has at most max_n vertices."""
    labs = draw(st.lists(st.sampled_from(labels), min_size=1,
                         max_size=max_n))
    while sum(map(_expanded_size, labs)) > max_n:
        labs.pop()
    n = len(labs)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    text = "".join(f"vertex v{i} {lab}\n" for i, lab in enumerate(labs))
    text += "".join(f"edge v{i} v{j}\n" for i, j in edges)
    return parse_graph(text)


def expanded_graphs():
    return raw_graphs().map(expand)


def reference_leq_tau(g, v, w):
    """v <=_tau w from the definition: for Z-labelled v, lk(v) is in st(w);
    for finite v, w has the same prime and st(v) is in st(w)."""
    if v == w:
        return True
    link = {u for u in range(g.n) if g.adjacent(v, u)}
    star_v = link | {v}
    star_w = {u for u in range(g.n) if g.adjacent(w, u)} | {w}
    gv, gw = g.labels[v], g.labels[w]
    if gv.is_infinite:
        return link <= star_w
    return not gw.is_infinite and gv.prime == gw.prime and star_v <= star_w


@settings(max_examples=150, deadline=None)
@given(expanded_graphs())
def test_tau_table_matches_definition(g):
    for v in range(g.n):
        for w in range(g.n):
            want = reference_leq_tau(g, v, w)
            assert g.leq_tau(v, w) == want
            assert bool(g.tau_down[w] >> v & 1) == want


@settings(max_examples=60, deadline=None)
@given(expanded_graphs())
def test_is_lower_cone_matches_brute_force(g):
    for r in range(g.n + 1):
        for X in itertools.combinations(range(g.n), r):
            want = all(s in X for t in X for s in range(g.n)
                       if reference_leq_tau(g, s, t))
            assert is_lower_cone(g, frozenset(X)) == want


@settings(max_examples=150, deadline=None)
@given(expanded_graphs())
def test_class_table_matches_definition(g):
    tc = tau_classes(g)
    k = len(tc.classes)
    # class i <=_tau class j: the transitive closure of "some v in class i
    # is strongly below some w in class j", where strongly below means
    # st(v) in st(w) for Z-labelled v and v <=_tau w for finite v
    def star(u):
        return {t for t in range(g.n) if g.adjacent(u, t)} | {u}

    def strong(v, w):
        if g.labels[v].is_infinite:
            return star(v) <= star(w)
        return reference_leq_tau(g, v, w)

    rel = {(i, j): i == j or any(strong(v, w) for v in tc.classes[i]
                                 for w in tc.classes[j])
           for i in range(k) for j in range(k)}
    changed = True
    while changed:
        changed = False
        for i, m, j in itertools.product(range(k), repeat=3):
            if rel[(i, m)] and rel[(m, j)] and not rel[(i, j)]:
                rel[(i, j)] = changed = True
    for i in range(k):
        for j in range(k):
            assert bool(tc.below[j] >> i & 1) == rel[(i, j)]
    assert tc.minimal_classes() == [
        i for i in range(k)
        if not any(rel[(j, i)] for j in range(k) if j != i)]


@settings(max_examples=100, deadline=None)
@given(expanded_graphs(), st.data())
def test_connected_components_match_previous_version(g, data):
    X = data.draw(st.sets(st.integers(0, g.n - 1)))
    for S in (X, range(g.n)):
        assert connected_components(g, S) == \
            reference.connected_components(g, S)


# -- the mask classification against the induced-graph one -------------------

TAU_LABELS = ["Z", "Z/2", "Z/3", "Z/4", "Z/9", "Z/6", "Z/12", "Z/18"]


def _or_error(f, *args):
    try:
        return f(*args)
    except GraphError as exc:
        return "GraphError", str(exc)


@settings(max_examples=200, deadline=None)
@given(raw_graphs(TAU_LABELS, 10), st.data())
def test_mask_classification_matches_induced_graph_version(raw, data):
    # the unexpanded graph checks that both raise the same "requires an
    # expanded graph" error, and that a set X avoiding the composite
    # vertices classifies on both
    for g in (raw, expand(raw)):
        assert (_or_error(lambda: g.tau_down)
                == _or_error(reference.tau_down, g))
        assert (_or_error(tau_classes, g)
                == _or_error(reference.tau_classes, g))
        X = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        for S in (X, frozenset(range(g.n))):
            assert (_or_error(tau_classes, g, S)
                    == _or_error(reference.classes_in, g, S))


# -- expand against the name-pair rebuild it replaced ------------------------

EXPAND_LABELS = ["Z", "Z/2", "Z/4", "Z/9", "Z/6", "Z/12", "Z/30"]


@settings(max_examples=200, deadline=None)
@given(raw_graphs(EXPAND_LABELS, 10))
def test_expand_matches_name_pair_rebuild(g):
    h, want = expand(g), reference.expand(g)
    assert (h.names, h.labels, h.adj) == (want.names, want.labels, want.adj)
    assert h.index == want.index and h.n == want.n
    assert cli._graph_text(h) == cli._graph_text(want)
    assert expand(h) is h
    if h.n == g.n:  # no label split: the adjacency is shared
        assert h.adj is g.adj and h.names is g.names
    else:
        assert not g.is_expanded()


def test_expand_keeps_the_duplicate_id_error():
    g = parse_graph("vertex a Z/6\nvertex a_p2k1 Z")
    with pytest.raises(GraphError, match="^duplicate vertex id$"):
        reference.expand(g)
    with pytest.raises(GraphError, match="^duplicate vertex id$"):
        expand(g)


def test_tau_table_checks_indices_and_expansion():
    g = expand(path_graph(["Z/2", "Z"]))
    for v, w in ((-1, 0), (0, 2), (2, 0)):
        with pytest.raises(GraphError):
            g.leq_tau(v, w)
    with pytest.raises(GraphError):
        is_lower_cone(g, frozenset({2}))
    for bad in (-1, 2):
        with pytest.raises(GraphError, match="not contained in V"):
            lower_cone_L(g, frozenset({bad}))
    raw = parse_graph("vertex a Z/6\nvertex b Z\nedge a b")
    for check in (lambda: raw.leq_tau(0, 1), lambda: raw.tau_down,
                  lambda: is_lower_cone(raw, frozenset({0})),
                  lambda: tau_classes(raw)):
        with pytest.raises(GraphError, match="expanded"):
            check()
