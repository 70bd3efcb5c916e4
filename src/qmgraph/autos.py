"""Generators of Aut(W_Gamma) and their action on normal words.

Four families: labelled graph automorphisms, factor automorphisms,
dominated transvections and partial conjugations.  The latter three
generate the finite-index subgroup whose coset representatives are the
labelled graph automorphisms.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from .graphs import GraphError, LabeledGraph, _bits, connected_components
from .words import Letter, NormalWord


class AutError(ValueError):
    """An invalid automorphism generator."""


@dataclass(frozen=True)
class LabelledGraphAut:
    perm: tuple[int, ...]  # perm[v] = image of vertex v


@dataclass(frozen=True)
class FactorAut:
    vertex: int
    m: int


@dataclass(frozen=True)
class Transvection:
    v: int
    w: int


@dataclass(frozen=True)
class PartialConj:
    v: int
    K: frozenset[int]


AutGen = Union[LabelledGraphAut, FactorAut, Transvection, PartialConj]


def validate_gen(g: LabeledGraph, gen: AutGen) -> tuple[bool, str]:
    """Check a generator's defining conditions; returns (ok, reason)."""
    if not g.is_expanded():
        raise GraphError("generators are defined on expanded graphs")
    if isinstance(gen, LabelledGraphAut):
        p = gen.perm
        if sorted(p) != list(range(g.n)):
            return False, "not a permutation of V"
        if any(g.labels[v] != g.labels[p[v]] for v in range(g.n)):
            return False, "labels not preserved"
        for i, j in g.edges:
            if not g.adjacent(p[i], p[j]):
                return False, "edges not preserved"
        return True, ""
    if isinstance(gen, FactorAut):
        v, m = gen.vertex, gen.m
        if not 0 <= v < g.n:
            return False, f"vertex {v} not in V"
        order = g.labels[v].order
        if order is None:
            if m not in (1, -1):
                return False, "m = +-1 required for an infinite cyclic factor"
        elif math.gcd(m, order) != 1:
            return False, f"gcd(m, {order}) != 1"
        return True, ""
    if isinstance(gen, Transvection):
        v, w = gen.v, gen.w
        if v == w:
            return False, "transvection needs distinct vertices"
        if not g.leq_tau(v, w):
            return False, "dominated transvection condition fails"
        return True, ""
    if isinstance(gen, PartialConj):
        v, K = gen.v, gen.K
        rest = set(range(g.n)) - g.star(v)
        comps = connected_components(g, rest)
        if K not in comps:
            return False, "K is not a component of the star complement"
        return True, ""
    raise AutError(f"unknown generator type {type(gen)!r}")


def _letter_image(g: LabeledGraph, gen: AutGen, v: int,
                  e: int) -> list[Letter]:
    """The letters of the image of (v, e), not yet normalised; gen is of a
    known type (apply_gen validates it first)."""
    if isinstance(gen, LabelledGraphAut):
        return [(gen.perm[v], e)]
    if isinstance(gen, FactorAut):
        return [(v, gen.m * e if v == gen.vertex else e)]
    if isinstance(gen, Transvection):
        if v != gen.v:
            return [(v, e)]
        gv, gw = g.labels[gen.v], g.labels[gen.w]
        q = 1
        if not gv.is_infinite and gw.power > gv.power:
            q = gv.prime ** (gw.power - gv.power)
        # (v w^q)^e by repeated squaring, so a large e stays cheap
        return list((NormalWord(g, [(gen.v, 1), (gen.w, q)]) ** e).letters)
    if v in gen.K:  # a PartialConj
        return [(gen.v, 1), (v, e), (gen.v, -1)]
    return [(v, e)]


def apply_gen(gen: AutGen, x: NormalWord) -> NormalWord:
    """Apply one generator letterwise and normalise the image once."""
    g = x.graph
    ok, reason = validate_gen(g, gen)
    if not ok:
        raise AutError(reason)
    return NormalWord(g, [letter for v, e in x.letters
                          for letter in _letter_image(g, gen, v, e)])


@dataclass(frozen=True)
class AutWord:
    """A composition of generators, applied right-to-left."""

    gens: tuple[AutGen, ...] = field(default_factory=tuple)

    def __call__(self, x: NormalWord) -> NormalWord:
        for gen in reversed(self.gens):
            x = apply_gen(gen, x)
        return x


# the work one search may do: backtracker nodes since the last map found,
# or cone candidates; past it the search raises GraphError (exit code 3)
SEARCH_BUDGET = 1 << 16


def labelled_isomorphisms(g: LabeledGraph, X: Iterable[int],
                          Y: Iterable[int],
                          fixed: Iterable[tuple[int, int]] = (),
                          meter: Optional[list[int]] = None
                          ) -> Iterator[tuple[int, ...]]:
    """Label-preserving isomorphisms of the induced subgraphs on X and Y.

    Each is yielded as the tuple of images of sorted(X).  Only maps that
    contain the partial map `fixed`, given as (x, y) pairs in X x Y, are
    yielded.  The backtracker places the fixed pairs first, in the given
    order, then the rest of sorted(X), each tried against sorted(Y) in
    order; with nothing fixed the tuples come in lexicographic order.
    Candidates whose label or degree in the induced subgraph differs are
    pruned.  Each search node spends one unit of meter[0] (a fresh
    SEARCH_BUDGET unless shared), each map found refills it, and an empty
    meter raises GraphError.
    """
    fixed = dict(fixed)
    xsorted, ys = sorted(X), sorted(Y)
    n = len(xsorted)
    yset = set(ys)
    if (n != len(ys) or not fixed.keys() <= set(xsorted)
            or any(t not in yset for t in fixed.values())):
        return
    xs = list(fixed) + [v for v in xsorted if v not in fixed]  # placement
    adj, labels = g.adj, g.labels
    xmask = sum(1 << v for v in xs)
    ymask = sum(1 << t for t in ys)
    with_key: dict = {}  # (label, degree in Y) -> the ys that have it
    for t in ys:
        key = (labels[t], (adj[t] & ymask).bit_count())
        with_key[key] = with_key.get(key, 0) | 1 << t
    # cand[i]: the images xs[i] may take by label, degree and `fixed`
    cand = [with_key.get((labels[v], (adj[v] & xmask).bit_count()), 0)
            & (1 << fixed[v] if v in fixed else ymask) for v in xs]
    before = [0] * (n + 1)  # before[i]: the mask of xs[:i]
    for i, v in enumerate(xs):
        before[i + 1] = before[i] | 1 << v
    image = [0] * g.n  # image[v]: the image of a placed v
    meter = meter or [SEARCH_BUDGET]
    # an explicit stack, so the depth is not bounded by Python's: at
    # depth i, xs[:i] are placed and their images form the mask placed[i],
    # nbrs[i] is the mask the images of the neighbours of xs[i] among
    # them must give, and rest[i] holds the candidates for xs[i] not yet
    # tried, each adjacent to all of nbrs[i]; they are tried in order
    placed = [0] * (n + 1)
    nbrs = [0] * n
    rest = [0] * n
    i, fresh = 0, True  # fresh: a new node at depth i, else back from i + 1
    while i >= 0:
        if fresh:
            meter[0] -= 1
            if meter[0] < 0:
                raise GraphError(f"search budget exceeded (automorphism "
                                 f"search: {SEARCH_BUDGET} nodes)")
            if i == n:
                meter[0] = SEARCH_BUDGET
                yield tuple(map(image.__getitem__, xsorted))
                i, fresh = i - 1, False
                continue
            want, free = 0, cand[i] & ~placed[i]
            for u in _bits(adj[xs[i]] & before[i]):
                want |= 1 << image[u]
                free &= adj[image[u]]
            nbrs[i] = want
        else:
            free = rest[i]
        p, want = placed[i], nbrs[i]
        while free:
            low = free & -free
            free ^= low
            t = low.bit_length() - 1
            if adj[t] & p == want:
                image[xs[i]], rest[i], placed[i + 1] = t, free, p | low
                i, fresh = i + 1, True
                break
        else:
            i, fresh = i - 1, False


def _check_searchable(g: LabeledGraph) -> None:
    if not g.is_expanded():
        raise GraphError("enumeration is defined on expanded graphs")


def enum_labelled_graph_autos(g: LabeledGraph) -> list[LabelledGraphAut]:
    """All label-preserving graph automorphisms, by backtracking.

    Deterministic order: lexicographic in the image tuple.  Not capped in
    output, but SEARCH_BUDGET nodes with no new automorphism raise.
    """
    _check_searchable(g)
    V = range(g.n)
    return [LabelledGraphAut(p) for p in labelled_isomorphisms(g, V, V)]


Perm = tuple[int, ...]


def _close(orbit: set[int], todo: list[int], gens: Sequence[Perm]) -> None:
    """Add to `orbit` every image of the points in `todo` (already in the
    orbit) under the group the permutations `gens` generate."""
    for p in todo:
        for s in gens:
            q = s[p]
            if q not in orbit:
                orbit.add(q)
                todo.append(q)


@dataclass(frozen=True)
class AutGroup:
    """The labelled graph automorphism group of an n-vertex graph: its
    order and a generating set, without listing its elements."""

    n: int
    order: int
    gens: tuple[Perm, ...]

    def vertex_orbits(self) -> list[frozenset[int]]:
        """The orbits of Aut on the vertices, ordered by least vertex."""
        seen: set[int] = set()
        out = []
        for v in range(self.n):
            if v not in seen:
                orbit = {v}
                _close(orbit, [v], self.gens)
                seen |= orbit
                out.append(frozenset(orbit))
        return out

    def pair_orbit(self, A: frozenset[int], B: frozenset[int]
                   ) -> list[tuple[frozenset[int], frozenset[int]]]:
        """The orbit of the ordered pair (A, B): each image (rho A, rho B),
        (A, B) first, then breadth first.  An image is held as two vertex
        lists and keyed by their two vertex masks, so the search costs
        |orbit| * |gens| images of |A| + |B| points, composes no
        automorphism, and builds each frozenset pair once."""
        seen = {(sum(1 << v for v in A), sum(1 << v for v in B))}
        todo = [(list(A), list(B))]
        for rA, rB in todo:
            for s in self.gens:
                key = (sum(1 << s[v] for v in rA), sum(1 << s[v] for v in rB))
                if key not in seen:
                    seen.add(key)
                    todo.append(([s[v] for v in rA], [s[v] for v in rB]))
        return [(frozenset(rA), frozenset(rB)) for rA, rB in todo]


def _refined_colours(g: LabeledGraph) -> list[int]:
    """Colour refinement: colour the vertices by label, then split each
    colour class by the multiset of neighbour colours until no class
    splits.  Labelled graph automorphisms preserve the colours."""
    nbrs = [list(_bits(g.adj[v])) for v in range(g.n)]
    ids: dict = {}
    colour = [ids.setdefault(lab, len(ids)) for lab in g.labels]
    while True:
        count, ids = len(ids), {}
        signature = [(colour[v], tuple(sorted(colour[u] for u in nbrs[v])))
                     for v in range(g.n)]
        colour = [ids.setdefault(s, len(ids)) for s in signature]
        if len(ids) == count:
            return colour


def labelled_aut_group(g: LabeledGraph) -> AutGroup:
    """Aut of g by its stabiliser chain, found by searching, not listing.

    Level i is the subgroup G_i fixing vertices 0..i-1.  The levels are
    built deepest first, i = n-1 down to 0 (Seress, Permutation Group
    Algorithms, 2003), so the automorphisms found at the deeper levels
    j > i, which fix 0..i and generate G_{i+1}, are known at level i.
    The orbit of vertex i under G_i is grown from i by every automorphism
    found so far, and extended from the new points whenever one more is
    found.  Each vertex t > i it has not reached yet costs one
    backtracking search for an automorphism that fixes 0..i-1 and sends
    i to t (individualisation and extension, McKay & Piperno, Practical
    graph isomorphism II, 2014), unless t differs from i in refined
    colour or in adjacency to 0..i-1, which rules such an automorphism
    out.  |Aut| is the product of the level orbit sizes, and the
    automorphisms found generate Aut (orbit-stabiliser).

    Each automorphism found sends i to a point outside the orbit of i
    under those found before, so it joins two of their orbits on the
    vertices: there are at most n - 1 generators (k - 1 for S_k on the
    leaves of a star, against k(k-1)/2 when each level is built alone),
    and a level's orbit work is |orbit| * |gens|.  At most n^2/2
    searches, each stopping at its first hit, against |Aut| leaves for a
    listing.  The searches share one meter of SEARCH_BUDGET nodes,
    refilled at each automorphism found, and raise GraphError when it
    runs out: graphs that colour refinement cannot split, such as random
    cubic graphs, can need exponentially many.
    """
    _check_searchable(g)
    V = range(g.n)
    colour = _refined_colours(g)
    meter = [SEARCH_BUDGET]
    order, gens = 1, []
    for i in reversed(V):
        prefix = [(v, v) for v in range(i)]
        prefix_mask = (1 << i) - 1
        orbit = {i}  # the maps found so far all fix i
        for t in range(i + 1, g.n):
            if (t in orbit or colour[t] != colour[i]
                    or (g.adj[t] ^ g.adj[i]) & prefix_mask):
                continue
            sigma = next(labelled_isomorphisms(
                g, V, V, prefix + [(i, t)], meter), None)
            if sigma is not None:
                gens.append(sigma)
                todo = [sigma[p] for p in orbit if sigma[p] not in orbit]
                orbit.update(todo)
                _close(orbit, todo, gens)
        order *= len(orbit)
    return AutGroup(g.n, order, tuple(gens))


class _Aut0Pool(Sequence):
    """The type 2-4 generators in the order of valid_aut0_gens, with the
    factor automorphisms kept implicit.

    On a Z/p^k vertex the units m in [2, p^k) are the integers prime to
    p, and the i-th unit (i = 1, 2, ...) is i + i // (p - 1) + 1, since
    every run of p - 1 of them is followed by one multiple of p.  So the
    pool costs O(n) for the factor automorphisms, whatever the orders.
    """

    def __init__(self, g: LabeledGraph):
        down = g.tau_down
        self._tail: list[AutGen] = [
            Transvection(v, w) for v in range(g.n) for w in range(g.n)
            if v != w and down[w] >> v & 1]
        for v in range(g.n):
            rest = set(range(g.n)) - g.star(v)
            self._tail.extend(PartialConj(v, K)
                              for K in connected_components(g, rest))
        self._starts: list[int] = []  # first pool index of each vertex
        self._primes: list[Optional[int]] = []
        size = 0
        for v in range(g.n):
            spec = g.labels[v]
            self._starts.append(size)
            self._primes.append(spec.prime)
            if spec.is_infinite:
                size += 1
            else:
                size += spec.order // spec.prime * (spec.prime - 1) - 1
        self._factor_count = size

    def __len__(self) -> int:
        return self._factor_count + len(self._tail)

    def __getitem__(self, i: int) -> AutGen:
        if not 0 <= i < len(self):
            raise IndexError("aut0 pool index out of range")
        if i >= self._factor_count:
            return self._tail[i - self._factor_count]
        v = bisect_right(self._starts, i) - 1
        p = self._primes[v]
        if p is None:
            return FactorAut(v, -1)
        j = i - self._starts[v] + 1
        return FactorAut(v, j + j // (p - 1) + 1)


def valid_aut0_gens(g: LabeledGraph) -> Sequence[AutGen]:
    """The enumerable parameter space of type 2-4 generators, lazily."""
    return _Aut0Pool(g)


def random_aut0(g: LabeledGraph, length: int, seed: int) -> AutWord:
    """Seeded composition of `length` valid type 2-4 generators."""
    pool = _Aut0Pool(g)
    if not pool:
        return AutWord()
    rng = random.Random(seed)
    return AutWord(tuple(rng.choice(pool) for _ in range(length)))
