from itertools import product

import pytest

from qmgraph.graphs import LabeledGraph, expand, parse_graph


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
