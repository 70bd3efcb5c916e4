"""Earlier versions of `qmgraph.graphs` routines, kept as test oracles.

- `connected_components`: the pairwise-adjacency search that ran before
  the search on adjacency bitmasks.
- `expand`: the expansion that rebuilt every graph from name-pair edge
  lists, factoring each finite order once per vertex.  The library now
  returns an expanded graph as it is, shares the adjacency when no label
  splits, and maps the adjacency masks through the old-to-new index map
  when one does.
- `tau_down` and `tau_classes`: the per-pair <=_tau loop and the
  classification built on it, and `classes_in`, which classified a
  vertex set by building the induced graph and mapping its classes back
  to the ambient indices.  The library now reads all of these on
  adjacency masks cut to the vertex set.

Each is the oracle of a differential test in test_graphs.py.
"""

from dataclasses import replace

from qmgraph.graphs import (FINITE_ABELIAN, FREE, FREE_ABELIAN, GraphError,
                            LabeledGraph, TauClassification, Z,
                            _prime_factors, primary)


def connected_components(g, X):
    """Components of the induced subgraph on X, ordered by least vertex."""
    remaining = set(X)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in remaining - comp:
                if g.adjacent(v, w):
                    comp.add(w)
                    frontier.append(w)
        comps.append(frozenset(comp))
        remaining -= comp
    return sorted(comps, key=min)


def expand(g):
    """Replace each Z/n vertex by the complete graph on its primary
    factors, building a new graph from name-pair edge lists."""
    vertices = []
    groups = []  # replacement ids per old vertex
    for name, spec in zip(g.names, g.labels):
        if spec.is_infinite:
            vertices.append((name, Z))
            groups.append([name])
            continue
        factors = _prime_factors(spec.order)
        if len(factors) == 1:
            p, k = factors[0]
            vertices.append((name, primary(p, k)))
            groups.append([name])
        else:
            ids = []
            for p, k in factors:
                nid = f"{name}_p{p}k{k}"
                vertices.append((nid, primary(p, k)))
                ids.append(nid)
            groups.append(ids)
    edges = []
    for ids in groups:
        edges.extend((a, b) for i, a in enumerate(ids) for b in ids[i + 1:])
    for i, j in g.edges:
        edges.extend((a, b) for a in groups[i] for b in groups[j])
    return LabeledGraph(vertices, edges)


def induced(g, X):
    """The labelled graph induced on X, its vertices renumbered in order."""
    idxs = sorted(set(X))
    verts = [(g.names[i], g.labels[i]) for i in idxs]
    edges = [(g.names[i], g.names[j]) for i in idxs for j in idxs
             if i < j and g.adjacent(i, j)]
    return LabeledGraph(verts, edges)


def tau_down(g):
    """tau_down[w]: bitmask of every v with v <=_tau w, pair by pair."""
    if not g.is_expanded():
        raise GraphError("<=_tau requires an expanded graph")
    stars = [g.adj[v] | 1 << v for v in range(g.n)]
    down = []
    for w, gw in enumerate(g.labels):
        mask = 1 << w
        for v, gv in enumerate(g.labels):
            if gv.is_infinite:
                below = g.adj[v] & ~stars[w] == 0
            else:
                below = (gv.prime == gw.prime
                         and stars[v] & ~stars[w] == 0)
            if below:
                mask |= 1 << v
        down.append(mask)
    return tuple(down)


def tau_classes(g):
    """~_tau classes, the induced order, and each class's group type."""
    n = g.n
    down = tau_down(g)
    assigned = [-1] * n
    classes = []
    for v in range(n):
        if assigned[v] >= 0:
            continue
        cls = frozenset(w for w in range(n)
                        if down[w] >> v & 1 and down[v] >> w & 1)
        for w in cls:
            assigned[w] = len(classes)
        classes.append(cls)
    stars = [g.adj[v] | 1 << v for v in range(n)]
    below = []
    for j, c in enumerate(classes):
        bits = 1 << j
        for w in c:
            for v in range(n):
                if g.labels[v].is_infinite:
                    strong = stars[v] & ~stars[w] == 0
                else:
                    strong = down[w] >> v & 1
                if strong:
                    bits |= 1 << assigned[v]
        below.append(bits)
    types = []
    for c in classes:
        members = sorted(c)
        finite = not g.labels[members[0]].is_infinite
        complete = all(g.adjacent(a, b) for a in members for b in members
                       if a < b)
        edgeless = not any(g.adjacent(a, b) for a in members for b in members
                           if a < b)
        if finite:
            types.append((FINITE_ABELIAN, len(members)))
        elif complete:
            types.append((FREE_ABELIAN, len(members)))
        elif edgeless:
            types.append((FREE, len(members)))
        else:
            raise GraphError("tau class neither complete nor edgeless")
    return TauClassification(tuple(classes), tuple(below), tuple(types))


def classes_in(g, X):
    """tau_classes of the graph induced on X, its classes mapped back to
    g's vertex indices."""
    idxs = sorted(X)
    tc = tau_classes(induced(g, X))
    return replace(tc, classes=tuple(frozenset(idxs[v] for v in c)
                                     for c in tc.classes))
