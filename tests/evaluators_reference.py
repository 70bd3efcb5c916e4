"""The evaluator kind rules as `evaluators.build` and `decide` stated them
before both called `evaluators.pair_kind`.

Kept as the oracle of the differential test in test_evaluators.py: the
case block `build` ran kind by kind, and the kind `decide` picked for a
candidate pair, each written out on its own.
"""

from qmgraph.evaluators import (BuildError, Code, SumBothSides, WeightedZ,
                                _single_z, _single_z2, labeled_isomorphic)
from qmgraph.graphs import connected_components

DEFAULT_Z = (1, 2, 3)


def check_kind(graph, A, B, kind):
    """Raise BuildError unless kind fits the free pair (A, B)."""
    az = _single_z(graph, A)
    bz = _single_z(graph, B)
    if az and bz:
        raise BuildError("non-constructive base (F2)")
    for name, S in (("A", A), ("B", B)):
        if len(S) > 1 and len(connected_components(graph, S)) > 1:
            raise BuildError(
                f"side {name} is a nontrivial free product; "
                "split it into factors instead")
    if isinstance(kind, WeightedZ):
        if not az:
            raise BuildError("WeightedZ needs side A = single Z vertex")
    elif isinstance(kind, Code):
        if az or bz:
            raise BuildError("Code kind needs both sides non-Z; "
                             "use WeightedZ for a Z side")
        if labeled_isomorphic(graph, A, B):
            raise BuildError("sides isomorphic; use SumBothSides")
        side = A if kind.side == "A" else B
        if _single_z2(graph, side):
            raise BuildError("chosen side must not be Z/2")
    else:
        if az or bz:
            raise BuildError("SumBothSides needs both sides non-Z")
        if not labeled_isomorphic(graph, A, B):
            raise BuildError("sides not isomorphic; use Code")
        if _single_z2(graph, A):
            raise BuildError("sides must not be Z/2 (D-infinity base)")


def kind_for_pair(g, A, B):
    """Pick an evaluator kind for the free pair (A, B), or None for a
    Z * Z or Z/2 * Z/2 base, which has none.  Returns (A, B, kind) with A
    swapped to the infinite-cyclic side when WeightedZ applies."""
    az, bz = _single_z(g, A), _single_z(g, B)
    if az and bz:
        return None
    if az or bz:
        if bz:
            A, B = B, A
        return (A, B, WeightedZ(DEFAULT_Z))
    if labeled_isomorphic(g, A, B):
        if _single_z2(g, A):
            return None
        return (A, B, SumBothSides(DEFAULT_Z))
    side = "A" if not _single_z2(g, A) else "B"
    return (A, B, Code(side, DEFAULT_Z))
