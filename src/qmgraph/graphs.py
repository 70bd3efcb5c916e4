"""Labeled graphs, primary expansion and the vertex preorders.

A labeled graph carries one cyclic group per vertex (infinite cyclic or
Z/n).  After expansion every finite label is primary (prime power order)
and the dominated-transvection preorder <=_tau is available, together
with its equivalence classes, lower cones and the structural predicates
used by the decision procedures.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence


class GraphError(ValueError):
    """Malformed graph input or a violated graph precondition."""


_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# Miller-Rabin to the first 13 prime bases is exact below _MR_EXACT
# (Sorenson & Webster, Strong pseudoprimes to twelve prime bases, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3_317_044_064_679_887_385_961_981
_TRIAL = 1 << 10  # trial division below this bound
RHO_STEPS = 1 << 18  # Pollard rho steps per order before giving up


def _is_prime(n: int, order: int) -> bool:
    """Miller-Rabin on n > _TRIAL, which has no prime factor below
    _TRIAL; a probable prime past _MR_EXACT is a GraphError."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT:
        raise GraphError(f"cannot factor Z/{order}: primality is certified "
                         f"only below {_MR_EXACT}")
    return True


def _rho_divisor(n: int, order: int, steps: list[int]) -> int:
    """A proper divisor of the composite n by Pollard's rho, charging
    each step to steps[0]."""
    c = 0
    while True:
        c += 1
        x = y = 2
        d = 1
        while d == 1:
            steps[0] -= 1
            if steps[0] < 0:
                raise GraphError(f"cannot factor Z/{order} within "
                                 f"{RHO_STEPS} Pollard rho steps")
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


def _prime_factors(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (p, k) pairs in increasing p.

    Trial division takes the primes below _TRIAL; Pollard's rho splits
    what is left and Miller-Rabin certifies its primes.  An order that
    needs more than RHO_STEPS rho steps, or has a prime factor past
    _MR_EXACT, is a GraphError (exit 3) instead of a long wait.
    """
    order = n
    counts: dict[int, int] = {}
    p = 2
    while p < _TRIAL and p * p <= n:
        while n % p == 0:
            n //= p
            counts[p] = counts.get(p, 0) + 1
        p += 1
    steps = [RHO_STEPS]
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        # no factor below _TRIAL: m is prime if m < _TRIAL^2
        if m < _TRIAL * _TRIAL or _is_prime(m, order):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_divisor(m, order, steps)
            rest += [d, m // d]
    return sorted(counts.items())


@dataclass(frozen=True)
class VertexGroupSpec:
    """A cyclic vertex group: Z, Z/n, or the primary form Z/p^k."""

    order: Optional[int]  # None for infinite cyclic
    prime: Optional[int] = None
    power: Optional[int] = None

    def __post_init__(self):
        if self.order is not None and self.order < 2:
            raise GraphError("finite vertex group needs order >= 2")
        if self.prime is not None:
            if self.order != self.prime ** self.power:
                raise GraphError("primary label inconsistent with order")

    @property
    def is_infinite(self) -> bool:
        return self.order is None

    def __str__(self) -> str:
        return "Z" if self.order is None else f"Z/{self.order}"


Z = VertexGroupSpec(None)


def cyclic(n: int) -> VertexGroupSpec:
    return VertexGroupSpec(n)


def primary(p: int, k: int) -> VertexGroupSpec:
    return VertexGroupSpec(p ** k, p, k)


class LabeledGraph:
    """Finite simple graph with cyclic-group vertex labels.

    The vertex order (file order) is the fixed total order used by every
    canonical form downstream.  Instances are immutable.
    """

    def __init__(self, vertices: Sequence[tuple[str, VertexGroupSpec]],
                 edges: Iterable[tuple[str, str]]):
        names = tuple(v for v, _ in vertices)
        index = {v: i for i, v in enumerate(names)}
        if len(index) != len(names):
            raise GraphError("duplicate vertex id")
        adj = [0] * len(names)
        for a, b in edges:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise GraphError(f"undefined endpoint in edge {a} {b}")
            if i == j:
                raise GraphError(f"self-loop at {a}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self._store(names, tuple(s for _, s in vertices), index, tuple(adj))

    def _store(self, names: tuple[str, ...],
               labels: tuple[VertexGroupSpec, ...], index: dict[str, int],
               adj: tuple[int, ...]) -> "LabeledGraph":
        """Set the graph's checked parts; every constructor ends here."""
        self.names, self.labels, self.index = names, labels, index
        self.adj, self.n = adj, len(names)
        self.full_mask = (1 << self.n) - 1
        self._expanded = all(s.is_infinite or s.prime is not None
                             for s in labels)
        return self

    # -- basic structure ---------------------------------------------------

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def vertex_set(self, ids: Iterable[str]) -> frozenset[int]:
        out = set()
        for v in ids:
            if v not in self.index:
                raise GraphError(f"unknown vertex {v}")
            out.add(self.index[v])
        return frozenset(out)

    def names_of(self, idxs: Iterable[int]) -> list[str]:
        return [self.names[i] for i in sorted(idxs)]

    def star(self, i: int) -> frozenset[int]:
        self._check(i)
        return frozenset(_bits(self.adj[i] | 1 << i))

    def _check(self, i: int):
        if not 0 <= i < self.n:
            raise GraphError(f"unknown vertex index {i}")

    def is_complete(self) -> bool:
        return all(self.adj[i] | (1 << i) == self.full_mask for i in range(self.n))

    def is_expanded(self) -> bool:
        return self._expanded

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as index pairs (i, j) with i < j."""
        return frozenset((i, j) for i in range(self.n)
                         for j in _bits(self.adj[i] >> i + 1 << i + 1))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LabeledGraph)
                and self.names == other.names
                and self.labels == other.labels
                and self.adj == other.adj)

    def __hash__(self):
        return hash((self.names, self.labels, self.adj))

    def __repr__(self):
        return f"LabeledGraph({self.n} vertices, {len(self.edges)} edges)"

    # -- preorders ---------------------------------------------------------

    @cached_property
    def tau_down(self) -> tuple[int, ...]:
        """tau_down[w]: bitmask of every v with v <=_tau w.

        v <=_tau w when v = w, when v has infinite order and
        lk(v) is contained in st(w), or when v and w have finite orders
        that are powers of the same prime and st(v) is contained in
        st(w).  It is the preorder tau_classes reads (see _tau_up) at the
        full vertex mask, built once, on first use; the graph is immutable.
        """
        return tuple(_transpose(_tau_up(self, self.full_mask), self.n))

    @cached_property
    def tau_classification(self) -> "TauClassification":
        """tau_classes(self), read off tau_down; the graph is immutable."""
        return tau_classes(self)

    def leq_tau(self, v: int, w: int) -> bool:
        """The dominated-transvection preorder (reflexive by convention)."""
        down = self.tau_down
        self._check(v)
        self._check(w)
        return bool(down[w] >> v & 1)


# -- parsing ---------------------------------------------------------------

def parse_graph(text: str) -> LabeledGraph:
    """Parse the line-based graph file format in one pass, setting each
    edge's adjacency bits through the name-to-index dict."""
    index: dict[str, int] = {}  # in file order: the vertex names
    labels: list[VertexGroupSpec] = []
    adj: list[int] = []
    specs = {"Z": Z}  # label text -> spec, one per distinct label
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 3:
            name, label = parts[1], parts[2]
            if not _ID_RE.match(name):
                raise GraphError(f"line {lineno}: bad vertex id {name!r}")
            if name in index:
                raise GraphError(f"line {lineno}: duplicate vertex {name}")
            spec = specs.get(label)
            if spec is None and label.startswith("Z/"):
                digits = label[2:]
                try:  # int() alone also takes "_", a sign and non-ASCII digits
                    if not (digits.isascii() and digits.isdigit()):
                        raise ValueError
                    n = int(digits)
                except ValueError:
                    raise GraphError(f"line {lineno}: bad label {label!r}") from None
                if n < 2:
                    raise GraphError(f"line {lineno}: Z/{n} needs n >= 2")
                spec = specs[label] = cyclic(n)
            elif spec is None:
                raise GraphError(f"line {lineno}: bad label {label!r}")
            index[name] = len(labels)
            labels.append(spec)
            adj.append(0)
        elif parts[0] == "edge" and len(parts) == 3:
            a, b = parts[1], parts[2]
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise GraphError(f"line {lineno}: undefined endpoint "
                                 f"{a if i is None else b}")
            if i == j:
                raise GraphError(f"line {lineno}: self-loop at {a}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        else:
            raise GraphError(f"line {lineno}: syntax error: {raw!r}")
    if not index:
        raise GraphError("graph has no vertices")
    return LabeledGraph.__new__(LabeledGraph)._store(
        tuple(index), tuple(labels), index, tuple(adj))


def expand(g: LabeledGraph) -> LabeledGraph:
    """Replace each Z/n vertex by the complete graph on its primary factors.

    New vertex ids are `<old>_p<p>k<k>` when n has several primary factors;
    a vertex whose order is already a prime power keeps its id.  All new
    vertices inherit the old vertex's edges and are mutually adjacent.
    An expanded graph is returned as it is and each order is factored
    once; if no label splits, g's names, index and adjacency are shared.
    """
    if g.is_expanded():
        return g
    factors = {n: [primary(p, k) for p, k in _prime_factors(n)]
               for n in dict.fromkeys(s.order for s in g.labels) if n}
    parts = [factors[s.order] if s.order else [s] for s in g.labels]
    labels = tuple(s for specs in parts for s in specs)
    if len(labels) == g.n:  # no label splits
        return LabeledGraph.__new__(LabeledGraph)._store(g.names, labels,
                                                         g.index, g.adj)
    names = tuple(name if len(specs) == 1 else f"{name}_p{s.prime}k{s.power}"
                  for name, specs in zip(g.names, parts) for s in specs)
    groups, end = [], 0  # the mask of each old vertex's replacements
    for specs in parts:
        groups.append((1 << end + len(specs)) - (1 << end))
        end += len(specs)
    index = {v: i for i, v in enumerate(names)}
    if len(index) != len(names):
        raise GraphError("duplicate vertex id")
    # an old vertex's row: its own group and its neighbours' (disjoint)
    rows = [group + sum(groups[j] for j in _bits(row))
            for row, group in zip(g.adj, groups)]
    adj = tuple(row ^ 1 << v for row, group in zip(rows, groups)
                for v in _bits(group))
    return LabeledGraph.__new__(LabeledGraph)._store(names, labels, index, adj)


# -- tau classes and lower cones -------------------------------------------

FINITE_ABELIAN = "FiniteAbelian"
FREE_ABELIAN = "FreeAbelian"
FREE = "Free"


@dataclass(frozen=True)
class TauClassification:
    """Partition of V into ~_tau classes with the induced partial order."""

    classes: tuple[frozenset[int], ...]
    # below[j]: bitmask of the classes i with class i <=_tau class j
    below: tuple[int, ...]
    class_type: tuple[tuple[str, int], ...]  # (kind, rank/size) per class

    def minimal_classes(self) -> list[int]:
        return [i for i, b in enumerate(self.below) if b == 1 << i]


def _bits(mask: int) -> Iterator[int]:
    """The vertices of a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _tau_up(g: LabeledGraph, xmask: int) -> list[int]:
    """up[v] for v in the vertex mask: the bitmask of every w in it with
    v <=_tau w in the graph g induces on it (0 outside the mask).

    Stars and links are cut to the mask, st_X(v) = st(v) & X and
    lk_X(v) = lk(v) & X.  Adjacency is symmetric, so lk_X(v) lies in
    st_X(w) exactly when w lies in st(u) for every u in lk_X(v): the
    w above v are one AND over the neighbours of v."""
    adj, labels = g.adj, g.labels
    same_prime: dict[Optional[int], int] = {}  # None: infinite cyclic
    for v in _bits(xmask):
        p = labels[v].prime
        if p is None and labels[v].order is not None:
            raise GraphError("<=_tau requires an expanded graph")
        same_prime[p] = same_prime.get(p, 0) | 1 << v
    up = [0] * g.n
    for v in _bits(xmask):
        link = adj[v] & xmask
        above = xmask  # the w with lk_X(v) in st_X(w)
        for u in _bits(link):
            above &= adj[u] | 1 << u
        p = labels[v].prime
        # finite v: st_X(v) in st_X(w), and w of the same prime
        up[v] = above if p is None else above & (link | 1 << v) & same_prime[p]
    return up


def _transpose(rows: list[int], n: int) -> list[int]:
    """The transpose of an n x n bit matrix: bit v of column w is bit w
    of row v."""
    cols = [0] * n
    for v, row in enumerate(rows):
        bit = 1 << v
        for w in _bits(row):
            cols[w] |= bit
    return cols


def tau_classes(g: LabeledGraph,
                X: Optional[Iterable[int]] = None) -> TauClassification:
    """~_tau classes, the induced order, and each class's group type, of
    g or, given X, of the graph g induces on X.

    The preorder is read on adjacency bitmasks cut to X (see _tau_up), so
    no induced graph is built; classes are vertex sets in g's indices,
    ordered by least vertex.  X = V gives g.tau_classification."""
    xmask = g.full_mask if X is None else vertex_mask(g, X)
    if X is not None and xmask == g.full_mask:
        return g.tau_classification
    down = g.tau_down if X is None else _transpose(_tau_up(g, xmask), g.n)
    adj = g.adj
    masks: list[int] = []
    classes: list[list[int]] = []
    class_of = [0] * g.n
    rest = xmask
    while rest:
        v = (rest & -rest).bit_length() - 1
        members = [w for w in _bits(down[v]) if down[w] >> v & 1]
        cls = sum(1 << w for w in members)
        rest ^= cls
        for w in members:
            class_of[w] = len(classes)
        masks.append(cls)
        classes.append(members)
    # Class-level domination uses star containment uniformly: between
    # finite-order vertices that is leq_tau itself, and between classes
    # containing infinite-order vertices it is the star-preserving part of
    # the transvection preorder (the part labelled graph automorphisms and
    # the peeling machinery act through).  Either way the v strongly below
    # w are down[w] & st_X(w).  The relation needs no transitive closure:
    # vertex by vertex it is transitive, the members of a finite or free
    # abelian class have equal stars, and nothing outside a free class of
    # two or more vertices lies strongly below it.
    below = []
    types = []
    for cls, members in zip(masks, classes):
        strong = 0
        for w in members:
            strong |= down[w] & (adj[w] | 1 << w)
        bits = 0
        for v in _bits(strong):
            bits |= 1 << class_of[v]
        below.append(bits)
        if g.labels[members[0]].prime is not None:
            types.append((FINITE_ABELIAN, len(members)))
        elif all((adj[a] | 1 << a) & cls == cls for a in members):
            types.append((FREE_ABELIAN, len(members)))
        elif all(adj[a] & cls == 0 for a in members):
            types.append((FREE, len(members)))
        else:
            raise GraphError("tau class neither complete nor edgeless")
    return TauClassification(tuple(map(frozenset, classes)), tuple(below),
                             tuple(types))


def vertex_mask(g: LabeledGraph, X: Iterable[int]) -> int:
    """The bitmask of the vertex set X, which must lie in V."""
    mask = 0
    for v in X:
        if not 0 <= v < g.n:
            raise GraphError("vertex set not contained in V")
        mask |= 1 << v
    return mask


def mask_vertices(mask: int) -> frozenset[int]:
    """The vertex set of a bitmask."""
    return frozenset(_bits(mask))


def lower_cone_mask(g: LabeledGraph, mask: int) -> bool:
    """True iff the vertex bitmask is downward closed under <=_tau."""
    down = g.tau_down
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if down[low.bit_length() - 1] & ~mask:
            return False
    return True


def is_lower_cone(g: LabeledGraph, X: frozenset[int]) -> bool:
    """True iff X is downward closed under <=_tau."""
    return lower_cone_mask(g, vertex_mask(g, X))


def lower_cone_L(g: LabeledGraph, M: frozenset[int]) -> frozenset[int]:
    """L_M: vertices whose star avoids M entirely."""
    mmask = vertex_mask(g, M)
    return frozenset(v for v in range(g.n)
                     if (g.adj[v] | 1 << v) & mmask == 0)


def center_support(g: LabeledGraph) -> frozenset[int]:
    """Vertices whose star is all of V; nonempty iff the center is nontrivial."""
    return frozenset(v for v in range(g.n)
                     if g.adj[v] | 1 << v == g.full_mask)


def component_masks(g: LabeledGraph, mask: int) -> list[int]:
    """Components of the subgraph induced on a vertex bitmask, as
    bitmasks ordered by least vertex."""
    adj = g.adj
    comps = []
    while mask:
        comp = frontier = mask & -mask  # the least vertex left
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier |= new
        mask ^= comp
        comps.append(comp)
    return comps


def connected_components(g: LabeledGraph, X: Iterable[int]) -> list[frozenset[int]]:
    """Components of the induced subgraph on X, ordered by least vertex."""
    return [mask_vertices(c) for c in component_masks(g, vertex_mask(g, X))]
