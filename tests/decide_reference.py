"""The frozenset `find_invariant_cones` that `qmgraph.decide` used before
it ran the cone search on vertex bitmasks.

Kept as the oracle of the differential test in test_decide.py.  It
builds every class subset as a vertex set, and its lower-cone check and
components are the set versions of the same era, so it shares no mask
routine with the search it checks.
"""

from qmgraph.autos import SEARCH_BUDGET, labelled_aut_group
from qmgraph.evaluators import _single_z, _single_z2
from qmgraph.graphs import GraphError

from graphs_reference import connected_components


def is_lower_cone(g, X):
    """True iff X is downward closed under <=_tau."""
    mask = 0
    for v in X:
        if not 0 <= v < g.n:
            raise GraphError("vertex set not contained in V")
        mask |= 1 << v
    down = g.tau_down
    return all(down[t] & ~mask == 0 for t in X)


def find_invariant_cones(g):
    """Lower cones invariant under every labelled graph automorphism whose
    induced graph splits as a free product meeting the existence
    hypotheses (>= 2 factors, at most two infinite cyclic, not all Z/2).

    Returns (cone, components) pairs ordered by cone size."""
    if not g.is_expanded():
        raise GraphError("find_invariant_cones requires an expanded graph")
    tc = g.tau_classification
    m = len(tc.classes)
    if 2 ** m > SEARCH_BUDGET:
        raise GraphError(f"search budget exceeded (cone search: 2^{m} "
                         f"candidates > {SEARCH_BUDGET})")
    orbit_of = None
    out = []
    for bits in range(1, 1 << m):
        chosen = [i for i in range(m) if bits >> i & 1]
        if any(tc.below[i] & ~bits for i in chosen):
            continue
        cone = frozenset(v for i in chosen for v in tc.classes[i])
        if not is_lower_cone(g, cone):
            continue
        comps = connected_components(g, cone)
        if len(comps) < 2:
            continue
        if sum(1 for c in comps if _single_z(g, c)) > 2:
            continue
        if all(_single_z2(g, c) for c in comps):
            continue
        if orbit_of is None:
            orbit_of = {v: orbit for orbit
                        in labelled_aut_group(g).vertex_orbits()
                        for v in orbit}
        # invariant exactly when a union of vertex orbits
        if any(not orbit_of[v] <= cone for v in cone):
            continue
        out.append((cone, comps))
    out.sort(key=lambda p: (len(p[0]), sorted(p[0])))
    return out
