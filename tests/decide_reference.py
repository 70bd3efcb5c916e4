"""Earlier forms of `qmgraph.decide` routines, kept as the oracles of the
differential tests in test_decide.py.

- The frozenset `find_invariant_cones`, used before the cone search ran
  on vertex bitmasks.  It builds every class subset as a vertex set, and
  its lower-cone check and components are the set versions of the same
  era, so it shares no mask routine with the search it checks.
- The quadratic list of minimal pairs of the right-angled Artin step,
  used before pairs of two single vertices were dropped: each minimal
  class M is tested against every class for lying in L_M.
"""

from qmgraph.autos import SEARCH_BUDGET, labelled_aut_group
from qmgraph.evaluators import _single_z, _single_z2
from qmgraph.graphs import GraphError, lower_cone_L, tau_classes

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


def minimal_pairs(g):
    """Each minimal class M with each class minimal among those inside
    L_M, both sorted by vertex list."""
    tc = tau_classes(g, range(g.n))
    pairs = []
    for M in sorted((tc.classes[i] for i in tc.minimal_classes()),
                    key=sorted):
        LM = lower_cone_L(g, M)
        inside = sum(1 << i for i, c in enumerate(tc.classes) if c <= LM)
        pairs += [(M, N) for N in sorted(
            (c for i, c in enumerate(tc.classes)
             if tc.below[i] & inside == 1 << i), key=sorted)]
    return pairs
