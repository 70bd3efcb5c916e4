"""Pinned decide output: status, witness spec, witness word and trace.

The expected outputs live in data/decide_pinned.json.  They were recorded
from the decision procedure before its peeling, spec-checking and
automorphism code was consolidated, so any change to a verdict, a
witness or a trace line fails here.  Regenerate the file with
`PYTHONPATH=src python tests/test_decide_pinned.py` only when a change to
the output is intended.
"""

import json
import random
from importlib import resources
from pathlib import Path

import pytest

from qmgraph.decide import EXISTS_CONSTRUCTIVE, WitnessSpec, decide, witness
from qmgraph.evaluators import build, evaluate
from qmgraph.graphs import parse_graph
from qmgraph.words import NormalWord

from conftest import (b_graph, cube, edgeless, figure1_raag, lambda_raag,
                      ngon, octahedron, path_graph)

DATA = Path(__file__).parent / "data" / "decide_pinned.json"


def star(k, centre, leaf):
    text = f"vertex c {centre}\n"
    text += "\n".join(f"vertex l{i} {leaf}" for i in range(k)) + "\n"
    return parse_graph(text + "\n".join(f"edge c l{i}" for i in range(k)))


def random_graph(seed):
    """A seeded graph on 2..6 vertices, all Z/2, all Z or mixed labels."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    pool = rng.choice([["Z/2"], ["Z"], ["Z/2", "Z/3", "Z/4"],
                       ["Z", "Z/2", "Z/3", "Z/4", "Z/6"]])
    text = "".join(f"vertex v{i} {rng.choice(pool)}\n" for i in range(n))
    p = rng.random()
    text += "".join(f"edge v{i} v{j}\n" for i in range(n)
                    for j in range(i + 1, n) if rng.random() < p)
    return parse_graph(text)


def cases():
    root = resources.files("qmgraph") / "corpus"
    out = []
    for line in (root / "expected.tsv").read_text().splitlines():
        name = line.split("\t")[0]
        out.append((f"corpus/{name}",
                    parse_graph((root / f"{name}.graph").read_text())))
    for label in ("Z/2", "Z/3", "Z"):
        out += [(f"ngon_{n}_{label}", ngon(n, label)) for n in range(3, 8)]
        out += [(f"cube_{label}", cube(label)),
                (f"octahedron_{label}", octahedron(label))]
        out += [(f"b_{n}_{label}", b_graph(n, label)) for n in range(3, 6)]
    out += [(f"path_z2_{n}", path_graph(["Z/2"] * n)) for n in range(1, 9)]
    out += [(f"path_raag_{n}", path_graph(["Z"] * n)) for n in range(2, 8)]
    out += [(f"path_z_z2_{n}", path_graph(["Z", "Z/2"] * (n // 2)
                                          + ["Z"] * (n % 2)))
            for n in range(2, 9)]
    out += [("path_z2_z4_z3", path_graph(["Z/2", "Z/4", "Z/3"])),
            ("path_z6_z_z10", path_graph(["Z/6", "Z", "Z/10"]))]
    out += [(f"star_{k}_z_z3", star(k, "Z", "Z/3")) for k in range(2, 6)]
    out += [("star_3_z2_z", star(3, "Z/2", "Z"))]
    for labels in (["Z/2", "Z/2"], ["Z/2"] * 3, ["Z/5", "Z/3"], ["Z", "Z/3"],
                   ["Z", "Z"], ["Z", "Z", "Z"], ["Z/6", "Z/5"],
                   ["Z/2", "Z/4"], ["Z/4", "Z/4"]):
        out.append(("edgeless_" + "_".join(labels), edgeless(labels)))
    out += [("figure1_raag", figure1_raag()), ("lambda_raag", lambda_raag())]
    out += [(f"random_{seed}", random_graph(seed)) for seed in range(200)]
    return out


def record(graph) -> dict:
    v = decide(graph)
    doc = {"status": v.status, "trace": v.trace, "witness": None,
           "word": None}
    if v.witness is not None:
        g, spec = v.graph, v.witness
        doc["witness"] = {
            "cone": g.names_of(spec.cone),
            "sides": [g.names_of(spec.partition[0]),
                      g.names_of(spec.partition[1])],
            "kind": type(spec.kind).__name__,
            "side": getattr(spec.kind, "side", None),
            "z": list(spec.kind.z),
        }
    if v.status == EXISTS_CONSTRUCTIVE:
        doc["word"] = str(witness(graph, v))
    return doc


PINNED = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_pinned_cases_cover_every_case():
    assert sorted(PINNED) == sorted(name for name, _ in cases())


@pytest.mark.parametrize("name,graph",
                         [pytest.param(n, g, id=n) for n, g in cases()])
def test_decide_output_pinned(name, graph):
    assert record(graph) == PINNED[name]


def renamed(graph, seed):
    """The graph under fresh vertex ids, with its vertex lines and its edge
    lines shuffled and each edge's endpoints in random order, and the map
    from old ids to new ones."""
    rng = random.Random(seed)
    new = [f"u{k}" for k in rng.sample(range(10 * graph.n), graph.n)]
    rename = dict(zip(graph.names, new))
    vertices = [f"vertex {rename[v]} {s}"
                for v, s in zip(graph.names, graph.labels)]
    edges = [f"edge {rename[graph.names[i]]} {rename[graph.names[j]]}"
             if rng.random() < 0.5 else
             f"edge {rename[graph.names[j]]} {rename[graph.names[i]]}"
             for i, j in sorted(graph.edges)]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return parse_graph("\n".join(vertices + edges)), rename


def _expanded_name(rename, name):
    """The new id of an expanded vertex: the old vertex's new id, with the
    primary-factor suffix kept."""
    if name in rename:
        return rename[name]
    old, suffix = name.rsplit("_p", 1)
    return f"{rename[old]}_p{suffix}"


def _plain_value(g, spec, word):
    got = evaluate(build(g, spec.cone, spec.partition, spec.kind), word)
    return got.value if got.exact else None


@pytest.mark.parametrize("name,graph",
                         [pytest.param(n, g, id=n) for n, g in cases()])
def test_decide_ignores_vertex_names_and_order(name, graph):
    v = decide(graph)
    assert v.status == PINNED[name]["status"]
    x = witness(graph, v) if v.status == EXISTS_CONSTRUCTIVE else None
    for seed in range(2):
        other, rename = renamed(graph, seed)
        u = decide(other)
        assert u.status == v.status, seed
        if x is None:
            continue
        h = u.graph
        to_h = [h.index[_expanded_name(rename, nm)] for nm in v.graph.names]
        cone, (A, B) = v.witness.cone, v.witness.partition
        moved = WitnessSpec(frozenset(to_h[i] for i in cone),
                            (frozenset(to_h[i] for i in A),
                             frozenset(to_h[i] for i in B)), v.witness.kind)
        word = NormalWord(h, [(to_h[i], e) for i, e in x.letters])
        assert _plain_value(h, moved, word) == 1, seed
        assert _plain_value(h, u.witness, witness(other, u)) == 1, seed


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({n: record(g) for n, g in cases()},
                               indent=1, sort_keys=True) + "\n")
