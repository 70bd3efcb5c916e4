"""Existence decisions for Aut-invariant quasimorphisms on graph products.

decide() classifies a labeled graph into one of six statuses and, when the
answer is constructive, produces a witness specification (lower cone, free
partition, evaluator kind) that the evaluator module accepts as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from . import evaluators as ev
from .autos import SEARCH_BUDGET, labelled_aut_group
from .evaluators import _single_z, _single_z2
from .graphs import (GraphError, LabeledGraph, TauClassification,
                     component_masks, connected_components, expand,
                     is_lower_cone, lower_cone_L, lower_cone_mask,
                     mask_vertices, tau_classes, vertex_mask, FREE)
from .words import NormalWord

FINITE = "Finite"
ABELIAN = "Abelian"
PROVABLY_NONE = "ProvablyNone"
EXISTS_CONSTRUCTIVE = "ExistsConstructive"
EXISTS_NONCONSTRUCTIVE = "ExistsNonConstructive"
UNKNOWN = "Unknown"

@dataclass(frozen=True)
class WitnessSpec:
    cone: frozenset[int]
    partition: tuple[frozenset[int], frozenset[int]]
    kind: ev.Kind


@dataclass
class Verdict:
    status: str
    witness: Optional[WitnessSpec] = None
    trace: list[str] = field(default_factory=list)
    graph: Optional[LabeledGraph] = None  # the expanded graph the
    # witness indices refer to


def _names(g: LabeledGraph, X) -> str:
    return "{" + ",".join(g.names_of(X)) + "}"


def _sorted_sets(sets) -> list[frozenset[int]]:
    return sorted(sets, key=lambda s: sorted(s))


_SPLIT = ": cone {cone} splits as {A} * {B} ({kind})"


def _first_spec(g: LabeledGraph, pairs: Iterable[tuple], trace: list[str],
                line: str) -> Optional[WitnessSpec]:
    """The spec of the first candidate pair (A, B), in order, that
    evaluators.pair_kind accepts; `line`, with the fields cone, A, B
    (vertex names), nA, nB (side sizes) and kind, goes on the trace."""
    for A, B in pairs:
        try:
            A, B, kind = ev.pair_kind(g, A, B)
        except ev.BuildError:
            continue
        trace.append(line.format(cone=_names(g, A | B), A=_names(g, A),
                                 B=_names(g, B), nA=len(A), nB=len(B),
                                 kind=type(kind).__name__))
        return WitnessSpec(A | B, (A, B), kind)
    return None


def _classes_in(g: LabeledGraph, X: Iterable[int]
                ) -> tuple[TauClassification, list[frozenset[int]]]:
    """tau_classes(g, X) and its minimal classes in lexicographic order."""
    tc = tau_classes(g, X)
    return tc, _sorted_sets(tc.classes[i] for i in tc.minimal_classes())


def _claim_pairs(g: LabeledGraph, factors) -> Iterator[tuple]:
    """Candidate pairs from a claim-style factor list (all finite labels).

    Takes two factors that are not both Z/2, refines each to a minimal
    class, and falls back to the single-vertex-versus-whole-factor split
    when both refined classes are Z/2."""
    for Fa, Fb in combinations(_sorted_sets(factors), 2):
        if _single_z2(g, Fa) and _single_z2(g, Fb):
            continue
        A = Fa if len(Fa) == 1 else _classes_in(g, Fa)[1][0]
        B = Fb if len(Fb) == 1 else _classes_in(g, Fb)[1][0]
        if _single_z2(g, A) and _single_z2(g, B):
            # one factor has a second vertex; use it whole as side B
            A, B = (A, Fb) if len(Fb) > 1 else (B, Fa)
        yield A, B


def _cone_pairs(cones) -> Iterator[tuple]:
    """The factor pairs of each (cone, component masks) pair, cone by
    cone, as vertex sets."""
    for _, comps in cones:
        for A, B in combinations(comps, 2):
            yield mask_vertices(A), mask_vertices(B)


_CONE_PAIR = "invariant cone pair" + _SPLIT


# -- free products (disconnected expanded graph) ----------------------------

def _decide_free_product(g: LabeledGraph, comps: list[frozenset[int]],
                         trace: list[str]) -> Verdict:
    """g is disconnected, with components comps."""
    k = len(comps)
    trace.append(f"free product of {k} freely indecomposable factors: "
                 + ", ".join(_names(g, c) for c in comps))
    zc = [c for c in comps if _single_z(g, c)]
    if all(_single_z2(g, c) for c in comps):
        if k == 2:
            trace.append("two Z/2 factors: the group is D-infinity, which "
                         "admits no unbounded quasimorphism")
            return Verdict(PROVABLY_NONE, None, trace, g)
        trace.append(f"free product of {k} >= 3 copies of Z/2: open case")
        return Verdict(UNKNOWN, None, trace, g)
    if len(zc) > 2:
        trace.append(f"{len(zc)} > 2 infinite cyclic factors: "
                     "existence hypothesis fails; open case")
        return Verdict(UNKNOWN, None, trace, g)
    spec = _first_spec(g, combinations(_sorted_sets(comps), 2), trace,
                       "factor pair" + _SPLIT)
    if spec is not None:
        return Verdict(EXISTS_CONSTRUCTIVE, spec, trace, g)
    trace.append("no constructive factor pair (only Z * Z available); "
                 "existence holds non-constructively")
    return Verdict(EXISTS_NONCONSTRUCTIVE, None, trace, g)


# -- graph products of finite abelian groups (connected) --------------------

def _decide_finite_connected(g: LabeledGraph, trace: list[str]) -> Verdict:
    """Every label finite, g connected and not complete: peel X = V.

    X stays non-complete at the loop head, so it empties only through a
    Z_k step, and zk_sizes is never empty after the loop:
    - a full-star class M is a clique joined to all of X (class members
      have equal stars), so were X - M complete or empty, so was X;
    - a Z_k step leaves the neighbours of x, each joined to all of L_M
      (no pivot), so were they complete, each would have had a full
      star, and the step runs only when no vertex has one.

    Claim and pivot steps decide (finite v <=_tau w: st(v) in st(w)):
    - each peeled star holds X (at a Z_k step x and L_M are joined to
      rest) and X has no full star, so no peeled vertex is <=_tau one in
      X: a set downward closed in X is a lower cone;
    - M is minimal in X.  If S is downward closed in a component F of
      L_M (or of L_y; {y} is alone in its component of L_M), v <=_tau s
      in S puts v in st(s) and in L_M (or L_y), so in F, so in S;
    - L_M is not empty (M has no full star), a pivot's L_y holds the edge
      x-z, and _claim_pairs never yields two single Z/2 sides: a kind."""
    X = frozenset(range(g.n))
    zk_sizes: list[int] = []
    while X:
        xmask = vertex_mask(g, X)
        full = [v for v in sorted(X) if (g.adj[v] | 1 << v) & xmask == xmask]
        tc, mins = _classes_in(g, X)
        if full:
            M = next(c for c in tc.classes if full[0] in c)
            trace.append(f"full-star class {_names(g, M)} peeled as a "
                         "finite abelian direct factor")
            X = X - M
            continue
        M = mins[0]
        LM = X & lower_cone_L(g, M)
        comps = connected_components(g, LM)
        trace.append(f"minimal class {_names(g, M)} with "
                     f"L_M = {_names(g, LM)}")
        if not (_single_z2(g, M) and all(_single_z2(g, c) for c in comps)):
            spec = _first_spec(g, _claim_pairs(g, [M] + comps), trace,
                               "claim cone" + _SPLIT)
            return Verdict(EXISTS_CONSTRUCTIVE, spec, trace, g)
        # M = {x} and every component of L_M is a single Z/2 vertex
        rest = X - (M | LM)
        y = next((y for y in sorted(LM)
                  if any(not g.adjacent(z, y) for z in rest)), None)
        if y is not None:
            Ly = X & lower_cone_L(g, frozenset({y}))
            trace.append(f"pivot vertex {g.names[y]}: "
                         f"L_y = {_names(g, Ly)} contains an edge")
            factors = [frozenset({y})] + connected_components(g, Ly)
            spec = _first_spec(g, _claim_pairs(g, factors), trace,
                               "pivot cone" + _SPLIT)
            return Verdict(EXISTS_CONSTRUCTIVE, spec, trace, g)
        size = 1 + len(LM)
        zk_sizes.append(size)
        trace.append(f"{_names(g, M | LM)} spans a direct Z_{size} factor "
                     "(free product of Z/2's commuting with the rest)")
        X = X - (M | LM)
    if any(k >= 3 for k in zk_sizes):
        trace.append("decomposition contains a Z_k factor with k >= 3: "
                     "open case")
        return Verdict(UNKNOWN, None, trace, g)
    trace.append("group is (D-infinity)^k x finite abelian: "
                 "no unbounded quasimorphism exists")
    return Verdict(PROVABLY_NONE, None, trace, g)


# -- right-angled Artin groups ----------------------------------------------

def _decide_raag(g: LabeledGraph, trace: list[str]) -> Verdict:
    """Every label infinite cyclic and the graph not complete."""
    tc = g.tau_classification
    if not any(kind == FREE and size >= 2 for kind, size in tc.class_type):
        return _raag_abelian_classes(g, trace)
    cones = _cone_masks(g)
    spec = _first_spec(g, _cone_pairs(cones), trace, _CONE_PAIR)
    if spec is not None:
        return Verdict(EXISTS_CONSTRUCTIVE, spec, trace, g)
    minimal_f2 = [i for i in tc.minimal_classes()
                  if tc.class_type[i] == (FREE, 2)
                  and is_lower_cone(g, tc.classes[i])]
    if minimal_f2:
        M = tc.classes[minimal_f2[0]]
        trace.append(f"minimal class {_names(g, M)} spans F_2; "
                     "existence holds but the F_2 base is "
                     "non-constructive here")
        return Verdict(EXISTS_NONCONSTRUCTIVE, None, trace, g)
    if cones:
        trace.append("an invariant lower cone with a valid free split "
                     "exists; non-constructive")
        return Verdict(EXISTS_NONCONSTRUCTIVE, None, trace, g)
    trace.append("no applicable construction; open case")
    return Verdict(UNKNOWN, None, trace, g)


def _raag_abelian_classes(g: LabeledGraph, trace: list[str]) -> Verdict:
    """All ~_tau classes free abelian: pair each minimal class M with the
    minimal classes of L_M, in one pass.  No L_M is empty: class members
    have equal stars, so an empty L_M makes M central, every class lies
    strongly below it, and M is minimal only as the one class of a
    complete graph, which decide handles first.

    Some pair is a lower cone, so only a Z * Z pair fails: M' minimal
    under the full <=_tau, and N' so among the classes inside L_M', are
    star-minimal, so a pair.  If x <=_tau n' in N', x not in M', then st(x)
    misses M' (lk(x) lies in st(n')), so x's class is inside L_M': in N'."""
    trace.append("every ~_tau class is free abelian")
    tc, mins = _classes_in(g, range(g.n))
    pairs: list[tuple] = []
    for M in mins:
        LM = lower_cone_L(g, M)
        inside = sum(1 << i for i, c in enumerate(tc.classes) if c <= LM)
        pairs += [(M, N) for N in _sorted_sets(
            c for i, c in enumerate(tc.classes)
            if tc.below[i] & inside == 1 << i)]
    spec = _first_spec(g, pairs, trace,
                       "minimal pair cone {cone}: Z^{nA} * Z^{nB} ({kind})")
    if spec is not None:
        return Verdict(EXISTS_CONSTRUCTIVE, spec, trace, g)
    trace.append("only Z * Z minimal pairs available; existence holds "
                 "non-constructively")
    return Verdict(EXISTS_NONCONSTRUCTIVE, None, trace, g)


# -- invariant lower cones (sufficient condition) ----------------------------

def _cone_masks(g: LabeledGraph) -> list[tuple[int, list[int]]]:
    """find_invariant_cones on bitmasks: (cone, component masks) pairs.

    Tests all 2^m subsets of the m ~_tau classes, each as a few operations
    on vertex bitmasks, and refuses more than SEARCH_BUDGET of them."""
    if not g.is_expanded():
        raise GraphError("find_invariant_cones requires an expanded graph")
    tc = g.tau_classification
    m = len(tc.classes)
    if 1 << m > SEARCH_BUDGET:
        raise GraphError(f"search budget exceeded (cone search: 2^{m} "
                         f"candidates > {SEARCH_BUDGET})")
    n = g.n
    below = tc.below
    class_mask = [vertex_mask(g, c) for c in tc.classes]
    # the mirror image puts vertex v at bit n-1-v: among cones of one
    # size, the one with the lesser sorted vertex list has the greater
    # mirror image (the least vertex where two cones differ is in it)
    class_mirror = [sum(1 << n - 1 - v for v in c) for c in tc.classes]
    zmask = vertex_mask(g, (v for v in range(n) if g.labels[v].is_infinite))
    z2mask = vertex_mask(g, (v for v in range(n) if g.labels[v].order == 2))
    orbits = None
    out = []
    for bits in range(1, 1 << m):
        cone = mirror = 0
        rest = bits
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if below[i] & ~bits:
                break
            rest ^= low
            cone |= class_mask[i]
            mirror |= class_mirror[i]
        if rest or not lower_cone_mask(g, cone):
            continue
        comps = component_masks(g, cone)
        if len(comps) < 2:
            continue
        single = [c for c in comps if c & (c - 1) == 0]
        if sum(1 for c in single if c & zmask) > 2:
            continue
        if len(single) == len(comps) and all(c & z2mask for c in single):
            continue
        if orbits is None:
            orbits = [vertex_mask(g, orbit) for orbit
                      in labelled_aut_group(g).vertex_orbits()
                      if len(orbit) > 1]
        # invariant exactly when a union of vertex orbits
        if any(orbit & cone and orbit & ~cone for orbit in orbits):
            continue
        out.append(((cone.bit_count(), -mirror), cone, comps))
    out.sort(key=itemgetter(0))
    return [(cone, comps) for _, cone, comps in out]


def find_invariant_cones(g: LabeledGraph):
    """Lower cones invariant under every labelled graph automorphism whose
    induced graph splits as a free product meeting the existence
    hypotheses (>= 2 factors, at most two infinite cyclic, not all Z/2).

    Returns (cone, components) pairs ordered by cone size, then by sorted
    vertex list; the components are ordered by least vertex."""
    return [(mask_vertices(cone), [mask_vertices(c) for c in comps])
            for cone, comps in _cone_masks(g)]


# -- top-level dispatch ------------------------------------------------------

def decide(graph: LabeledGraph) -> Verdict:
    """Classify the graph product and produce a witness when constructive."""
    g = expand(graph)
    trace: list[str] = []
    if g is not graph and (g.n != graph.n or g.names != graph.names):
        trace.append("expanded vertex groups into primary factors")
    if g.is_complete():
        if all(not s.is_infinite for s in g.labels):
            trace.append("complete graph, all labels finite: finite group")
            return Verdict(FINITE, None, trace, g)
        trace.append("complete graph: infinite abelian group")
        return Verdict(ABELIAN, None, trace, g)
    if all(s.is_infinite for s in g.labels):
        trace.append("all labels infinite cyclic: right-angled Artin case")
        return _decide_raag(g, trace)
    comps = connected_components(g, range(g.n))
    if len(comps) > 1:
        return _decide_free_product(g, comps, trace)
    if all(not s.is_infinite for s in g.labels):
        trace.append("connected graph of finite (primary) groups")
        return _decide_finite_connected(g, trace)
    trace.append("connected graph with mixed labels: invariant-cone search")
    cones = _cone_masks(g)
    spec = _first_spec(g, _cone_pairs(cones), trace, _CONE_PAIR)
    if spec is not None:
        return Verdict(EXISTS_CONSTRUCTIVE, spec, trace, g)
    if cones:
        trace.append("an invariant lower cone exists but only with a "
                     "non-constructive split")
        return Verdict(EXISTS_NONCONSTRUCTIVE, None, trace, g)
    trace.append("no invariant lower cone found (sufficient condition "
                 "only); open case")
    return Verdict(UNKNOWN, None, trace, g)


# -- witness words ------------------------------------------------------------

def _run_values(g: LabeledGraph, S: frozenset[int]) -> tuple[tuple[int, int],
                                                             tuple[int, int]]:
    """Two letters supported in S that are distinct nontrivial blocks."""
    a = min(S)
    if g.labels[a].order is None or g.labels[a].order > 2:
        return (a, 1), (a, 2)
    others = sorted(S - {a})
    if not others:
        raise GraphError("side cannot produce two distinct blocks")
    return (a, 1), (others[0], 1)


def witness(graph: LabeledGraph, verdict: Verdict) -> NormalWord:
    """A word on which the verdict's evaluator is provably unbounded.

    The word realises the generic pattern z exactly once per period in the
    relevant code while its inverse's code avoids z entirely, so the
    homogenised value is exactly 1.  Its letters are collected first and
    normalised once: pushing them one at a time onto one normal word
    gives the same normal form as multiplying block by block.
    """
    if verdict.status != EXISTS_CONSTRUCTIVE or verdict.witness is None:
        raise GraphError("witness requires an ExistsConstructive verdict")
    g = verdict.graph if verdict.graph is not None else expand(graph)
    spec = verdict.witness
    A, B = spec.partition
    kind = spec.kind
    z = list(kind.z)
    if len(z) % 2 == 1:
        z = z + [max(z) + 1]
    letters = []
    if isinstance(kind, ev.WeightedZ):
        a, t = min(A), (min(B), 1)
        for i, run in enumerate(z):
            letters += [(a, (-1) ** i * run), t]
    else:
        S = A if (isinstance(kind, ev.SumBothSides)
                  or kind.side == "A") else B
        T = B if S is A else A
        blocks = _run_values(g, S)
        t = (min(T), 1)
        for i, run in enumerate(z):
            letters += [blocks[i % 2], t] * run
    return NormalWord(g, letters)
