"""The pairwise-adjacency `connected_components` that `qmgraph.graphs`
used before it ran the search on adjacency bitmasks.

Kept as the oracle of the differential test in test_graphs.py.
"""


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
