"""Decision procedure: verdict table, witnesses, and invariant cones."""

import json
import math
import random
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from qmgraph.cli import main
from qmgraph.decide import (ABELIAN, EXISTS_CONSTRUCTIVE,
                            EXISTS_NONCONSTRUCTIVE, FINITE, PROVABLY_NONE,
                            UNKNOWN, Verdict, WitnessSpec, decide,
                            find_invariant_cones, witness)
from qmgraph.evaluators import Code, WeightedZ, average, build, evaluate
from qmgraph.graphs import GraphError, expand, parse_graph
from qmgraph.words import NormalWord

from conftest import (b_graph, cube, edgeless, figure1_raag, lambda_raag,
                      ngon, octahedron, path_graph)
import decide_reference


def corpus_cases():
    root = resources.files("qmgraph") / "corpus"
    rows = []
    for line in (root / "expected.tsv").read_text().splitlines():
        name, status = line.split("\t")
        rows.append((name, status, (root / f"{name}.graph").read_text()))
    return rows


@pytest.mark.parametrize("name,status,text",
                         [pytest.param(*c, id=c[0]) for c in corpus_cases()])
def test_corpus_verdicts(name, status, text):
    assert decide(parse_graph(text)).status == status


def test_verdict_table_direct():
    assert decide(ngon(3, "Z/2")).status == FINITE
    assert decide(ngon(3, "Z")).status == ABELIAN
    assert decide(ngon(4, "Z/2")).status == PROVABLY_NONE
    assert decide(ngon(4, "Z/3")).status == EXISTS_CONSTRUCTIVE
    assert decide(ngon(4, "Z")).status == EXISTS_NONCONSTRUCTIVE
    assert decide(ngon(5, "Z/2")).status == EXISTS_CONSTRUCTIVE
    assert decide(octahedron("Z/2")).status == PROVABLY_NONE
    assert decide(octahedron("Z/3")).status == EXISTS_CONSTRUCTIVE
    assert decide(octahedron("Z")).status == EXISTS_NONCONSTRUCTIVE
    assert decide(cube("Z/2")).status == EXISTS_CONSTRUCTIVE
    assert decide(b_graph(3, "Z/2")).status == UNKNOWN
    assert decide(b_graph(4, "Z/2")).status == EXISTS_CONSTRUCTIVE


def test_free_product_branch():
    # D-infinity
    assert decide(edgeless(["Z/2", "Z/2"])).status == PROVABLY_NONE
    # free products of three or more Z/2 factors are open
    assert decide(edgeless(["Z/2"] * 3)).status == UNKNOWN
    # a factor differing from Z/2 gives a construction
    assert decide(edgeless(["Z/5", "Z/3"])).status == EXISTS_CONSTRUCTIVE
    assert decide(edgeless(["Z", "Z/3"])).status == EXISTS_CONSTRUCTIVE
    # F2 exists but has no constructive witness here
    assert decide(edgeless(["Z", "Z"])).status == EXISTS_NONCONSTRUCTIVE


def test_free_product_composite_orders_expand():
    v = decide(parse_graph("vertex a Z/6\nvertex b Z/5"))
    # Z/6 splits into Z/2 * ... no: expansion is a complete pair {2,3}
    assert v.status == EXISTS_CONSTRUCTIVE
    assert v.graph.n == 3


def test_mixed_connected_uses_invariant_cone():
    g = parse_graph(
        "vertex a Z\nvertex b Z/3\nvertex c Z/3\nedge a b\nedge a c")
    v = decide(g)
    assert v.status == EXISTS_CONSTRUCTIVE


def test_lambda_raag_weighted_witness():
    v = decide(lambda_raag())
    assert v.status == EXISTS_CONSTRUCTIVE
    assert isinstance(v.witness.kind, WeightedZ)
    assert v.graph.names_of(v.witness.cone) == ["w0", "w4", "w5", "w6"]


def test_figure1_raag_nonconstructive():
    v = decide(figure1_raag())
    assert v.status == EXISTS_NONCONSTRUCTIVE
    assert v.witness is None


def test_figure1_raag_classifies_the_graph_once(monkeypatch):
    import qmgraph.decide
    import qmgraph.graphs
    seen = []
    classify = qmgraph.graphs.tau_classes

    def counting(g, *args):
        seen.append(g)
        return classify(g, *args)

    # decide may hold the function by name as well as through graphs
    monkeypatch.setattr(qmgraph.graphs, "tau_classes", counting)
    monkeypatch.setattr(qmgraph.decide, "tau_classes", counting,
                        raising=False)
    v = decide(figure1_raag())
    # the free class of two or more vertices sends decide to the cone
    # search, which needs the same classification again
    assert v.status == EXISTS_NONCONSTRUCTIVE
    assert sum(g is v.graph for g in seen) == 1


def test_decide_deterministic():
    a = decide(ngon(6, "Z/2"))
    b = decide(ngon(6, "Z/2"))
    assert a.status == b.status
    assert a.witness == b.witness
    assert a.trace == b.trace


def test_verdict_carries_trace_and_graph():
    v = decide(ngon(5, "Z/2"))
    assert v.trace and v.graph is not None
    assert v.graph.is_expanded()


RAAG_STEP = "all labels infinite cyclic: right-angled Artin case"


def test_decide_raag_rejects_finite_labels():
    # only graphs whose every label is Z reach the right-angled Artin step
    assert RAAG_STEP in decide(ngon(5, "Z")).trace
    for g in (ngon(5, "Z/2"), path_graph(["Z", "Z/2", "Z"]),
              parse_graph("vertex a Z\nvertex b Z/6")):
        assert RAAG_STEP not in decide(g).trace


def test_decide_raag_abelian():
    v = decide(ngon(3, "Z"))
    assert v.status == ABELIAN
    assert v.trace == ["complete graph: infinite abelian group"]


# Two terminal reasons that no pinned graph reaches.  No RAAG on 4 or 5
# vertices reaches the second one.
UNPINNED_REASONS = [
    pytest.param("vertex a Z\nvertex b Z\nvertex c Z\nvertex d Z/2\n",
                 UNKNOWN,
                 ["free product of 4 freely indecomposable factors: "
                  "{a}, {b}, {c}, {d}",
                  "3 > 2 infinite cyclic factors: existence hypothesis "
                  "fails; open case"], id="three-z-free-factors"),
    pytest.param("".join(f"vertex v{i} Z\n" for i in range(6))
                 + "edge v0 v1\nedge v0 v2\nedge v0 v3\nedge v0 v5\n"
                 "edge v1 v2\nedge v1 v3\nedge v1 v4\n",
                 EXISTS_NONCONSTRUCTIVE,
                 ["all labels infinite cyclic: right-angled Artin case",
                  "an invariant lower cone with a valid free split exists; "
                  "non-constructive"], id="raag-invariant-cone"),
]


@pytest.mark.parametrize("text,status,trace", UNPINNED_REASONS)
def test_unpinned_terminal_reasons(capsys, tmp_path, text, status, trace):
    v = decide(parse_graph(text))
    assert (v.status, v.trace, v.witness) == (status, trace, None)
    path = tmp_path / "g.graph"
    path.write_text(text)
    assert main(["decide", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"status": status,
                                                   "trace": trace}


def test_find_invariant_cones_figure1():
    g = expand(figure1_raag())
    cones = find_invariant_cones(g)
    assert frozenset({0, 4}) in [c for c, _ in cones]


def test_find_invariant_cones_a4():
    g = expand(path_graph(["Z/2"] * 5))
    cones = [c for c, _ in find_invariant_cones(g)]
    assert frozenset({0, 1, 3, 4}) in cones


def test_find_invariant_cones_complete_graph_empty():
    g = expand(ngon(3, "Z"))
    assert find_invariant_cones(g) == []


def test_find_invariant_cones_requires_expanded():
    with pytest.raises(GraphError):
        find_invariant_cones(parse_graph("vertex a Z/6\nvertex b Z/5"))


# -- the bitmask cone search against the frozenset one -----------------------

PRIME_POWERS = ("Z/2", "Z/3", "Z/4", "Z/5", "Z/7", "Z/8", "Z/9")


def _graph(labels, edges, order=None):
    """Graph text on v0..v{n-1}, vertices listed in `order` if given."""
    order = range(len(labels)) if order is None else order
    text = "".join(f"vertex v{i} {labels[i]}\n" for i in order)
    text += "".join(f"edge v{a} v{b}\n" for a, b in edges)
    return parse_graph(text)


def _seeded_families(rng, n):
    """Mixed path, mixed tree, star, finite cycle, RAAG path and RAAG
    cycle on n vertices (the star has n - 1 leaves)."""
    path = [(i, i + 1) for i in range(n - 1)]
    cycle = path + [(n - 1, 0)]
    yield _graph(["Z" if i % 2 == 0 else rng.choice(PRIME_POWERS)
                  for i in range(n)], path)
    parent = [rng.randrange(i) for i in range(1, n)]
    depth = [0]
    for p in parent:
        depth.append(depth[p] + 1)
    yield _graph(["Z" if d % 2 == 0 else rng.choice(PRIME_POWERS)
                  for d in depth], [(p, i + 1) for i, p in enumerate(parent)])
    yield _graph(["Z"] + [rng.choice(("Z/2", "Z/3"))] * (n - 1),
                 [(0, i) for i in range(1, n)])
    finite = [rng.choice(PRIME_POWERS) for _ in range(n)]
    finite[rng.randrange(n)] = rng.choice(("Z/6", "Z/10"))
    yield _graph(finite, cycle)
    for edges in (path, cycle):
        yield _graph(["Z"] * n, edges, rng.sample(range(n), n))


def _cones_or_error(find, g):
    try:
        return find(g)
    except GraphError as exc:
        return "GraphError", str(exc)


def _assert_same_cones(g):
    assert (_cones_or_error(find_invariant_cones, g)
            == _cones_or_error(decide_reference.find_invariant_cones, g))


@pytest.mark.parametrize("seed", range(4))
def test_cone_search_matches_frozenset_version_on_families(seed):
    rng = random.Random(seed)
    for n in range(3, 11):
        for graph in _seeded_families(rng, n):
            _assert_same_cones(expand(graph))


def test_cone_search_errors_match_frozenset_version():
    path17 = path_graph(["Z/2"] * 17)
    mixed21 = path_graph(["Z" if i % 2 == 0 else "Z/2" for i in range(21)])
    for g in (parse_graph("vertex a Z/6\nvertex b Z/5"), expand(path17),
              expand(mixed21)):
        got = _cones_or_error(find_invariant_cones, g)
        assert got[0] == "GraphError"
        _assert_same_cones(g)


@st.composite
def mixed_graphs(draw):
    labels = draw(st.lists(st.sampled_from(("Z",) + PRIME_POWERS + ("Z/6",)),
                           min_size=1, max_size=9))
    n = len(labels)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    return expand(_graph(labels, edges))


@settings(max_examples=150, deadline=None)
@given(mixed_graphs())
def test_cone_search_matches_frozenset_version(g):
    _assert_same_cones(g)


# -- every constructive spec builds -------------------------------------------

SPEC_LABELS = ("Z", "Z/2", "Z/3", "Z/4", "Z/9", "Z/6")


def _random_graph(rng):
    """A graph on 2 to 9 vertices, with one label or mixed labels."""
    n = rng.randint(2, 9)
    if rng.random() < 0.5:
        labels = [rng.choice(SPEC_LABELS)] * n
    else:
        labels = [rng.choice(SPEC_LABELS) for _ in range(n)]
    density = rng.uniform(0.2, 0.85)
    return _graph(labels, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < density])


def test_every_constructive_spec_builds():
    # decide tests each candidate for the cone only; build checks it all
    rng = random.Random(20261019)
    kinds = Counter()
    for _ in range(400):
        v = decide(_random_graph(rng))
        if v.status == EXISTS_CONSTRUCTIVE:
            spec = v.witness
            build(v.graph, spec.cone, spec.partition, spec.kind)
            kinds[type(spec.kind).__name__] += 1
    assert set(kinds) == {"Code", "SumBothSides", "WeightedZ"}, kinds


def test_witness_requires_constructive_verdict():
    g = ngon(4, "Z/2")
    v = decide(g)
    assert v.status == PROVABLY_NONE
    with pytest.raises(GraphError):
        witness(g, v)


def test_witness_words_evaluate_to_one():
    cases = [ngon(4, "Z/3"), ngon(5, "Z/2"), ngon(6, "Z/2"),
             path_graph(["Z/2", "Z/4", "Z/3"]), b_graph(4, "Z/2"),
             edgeless(["Z/5", "Z/3"]), edgeless(["Z", "Z/3"]),
             lambda_raag(), octahedron("Z/3"), cube("Z/3")]
    for graph in cases:
        v = decide(graph)
        assert v.status == EXISTS_CONSTRUCTIVE, graph
        x = witness(graph, v)
        spec = v.witness
        e = build(v.graph, spec.cone, spec.partition, spec.kind,
                  homog_params=(12, 4))
        got = evaluate(e, x)
        assert got.exact and got.value == 1, (graph, got)


def test_witness_supported_in_cone():
    v = decide(ngon(5, "Z/2"))
    x = witness(ngon(5, "Z/2"), v)
    assert x.support() <= v.witness.cone


def _averaged_witness_value(graph, v):
    spec = v.witness
    e = average(build(v.graph, spec.cone, spec.partition, spec.kind))
    return evaluate(e, witness(graph, v))


@pytest.mark.parametrize("n", (17, 24, 32))
def test_family_sweep_past_sixteen_vertices(n):
    for label in ("Z/2", "Z/3"):
        v = decide(ngon(n, label))
        assert v.status == EXISTS_CONSTRUCTIVE, label
        # neither the verdict nor the averaged witness value moves with n
        got = _averaged_witness_value(ngon(n, label), v)
        assert got.exact and got.value == 2, (label, got)
    assert decide(ngon(n, "Z")).status == EXISTS_NONCONSTRUCTIVE


def _finite_families(n):
    """B_n, paths and n-gons with finite labels, on about n vertices."""
    for label in ("Z/2", "Z/3"):
        yield f"b_{label}", b_graph(n, label)
        yield f"path_{label}", path_graph([label] * n)
    yield "path_z2_z3", path_graph((["Z/2", "Z/3"] * n)[:n])
    for label in ("Z/4", "Z/6"):
        yield f"ngon_{label}", ngon(n, label)


@pytest.mark.parametrize("n", (5, 8, 17, 32, 64))
def test_family_sweep_finite_families_to_64_vertices(n):
    # the verdict at the corpus sizes 5 and 8 holds to 64 vertices
    for name, graph in _finite_families(n):
        v = decide(graph)
        assert v.status == EXISTS_CONSTRUCTIVE, name
        spec = v.witness
        e = build(v.graph, spec.cone, spec.partition, spec.kind)
        got = evaluate(e, witness(graph, v))
        assert got.exact and got.value == 1, (name, got)


@pytest.mark.parametrize("k", (9, 12, 15))
def test_family_sweep_stars(k):
    star = parse_graph("vertex c Z\n" + "".join(
        f"vertex l{i} Z/3\nedge c l{i}\n" for i in range(k)))
    v = decide(star)
    assert v.status == EXISTS_CONSTRUCTIVE
    # (k - 2)! automorphisms fix the witness pair of leaves, and it and
    # its swap each add 1
    got = _averaged_witness_value(star, v)
    assert got.exact and got.value == 2 * math.factorial(k - 2)


def test_manual_constructive_verdict_witness():
    # a hand-built verdict is enough to produce a witness word
    g = expand(edgeless(["Z/5", "Z/3"]))
    spec = WitnessSpec(frozenset({0, 1}),
                       (frozenset({0}), frozenset({1})),
                       Code("A", (1, 3, 2)))
    v = Verdict(EXISTS_CONSTRUCTIVE, spec, [], g)
    x = witness(g, v)
    e = build(g, spec.cone, spec.partition, spec.kind, homog_params=(12, 4))
    got = evaluate(e, x)
    assert got.exact and got.value == 1
