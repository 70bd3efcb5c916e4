"""Composable quasimorphism evaluators.

An evaluator is a counting quasimorphism on the free product spanned by a
lower cone, precomposed with the standard retraction, homogenised, and
optionally averaged over all labelled graph automorphisms (as a sum, not
a mean).  Values are rationals, flagged exact when the homogenisation
detects a stable period; the flag is a heuristic that a long pattern
can defeat (codes.homogenise).

The sum runs over the images of the side pair and moves no word.  A
labelled automorphism rho only renames vertices: rho^-1 sends the
rho A-syllables of a word over rho(C) one by one to the A-syllables of
its image, keeping their equality and exponents, and r_C(rho^-1 x) =
rho^-1 r_{rho C}(x).  So f_{A,B}(rho^-1 x) = f_{rho A, rho B}(x), with
the same homogenised value and exactness.  As sigma runs over Aut,
sigma^-1 (A, B) meets each image |J| = |Aut| / |orbit| times (J fixes A
and B), so the sum is |J| times the sum of each image's own f at x.
average() finds the images (rho C, (rho A, rho B)) and |J| in one orbit
search of autos.labelled_aut_group, as the evaluator's images and
multiplicity.

A retracted word w with at most two syllables in W_A * W_B homogenises
to 0 without the power scan.  Such a w is e, lies in W_A or W_B, or is
ab with a in W_A and b in W_B (or ba).  So every power w^n is e, lies
in one side, or is (ab)^n, and each side code of w^n, and the weighted
Z-code, is empty or a single run.  Such a code holds no pattern z of
length 2 or more, and a z of length 1 equals its reverse, so the two
counts of f_z cancel and f_z(w^n) = 0 for every n (Calegari, *scl*,
§2.3).  The value is then _ZERO, 0 flagged exact, as the scan returns
on the all-zero sequence.  base is not called on w to re-check
anything: build accepted (A, B) and the kind, every image is an
automorphism image of (A, B), and r_C(x) lies in the image's cone
C = A | B, so base could raise nothing there.
Evaluator is not meant to be subclassed: base dispatches on the kind,
and the zero holds for the code counts only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from . import codes
from .autos import labelled_aut_group, labelled_isomorphisms
from .codes import HomogValue, homogenise, is_generic
from .graphs import (LabeledGraph, connected_components, is_lower_cone,
                     vertex_mask)
from .words import NormalWord, retraction


class BuildError(ValueError):
    """Evaluator construction violates one of its invariants."""


@dataclass(frozen=True)
class Code:
    side: str
    z: tuple[int, ...]


@dataclass(frozen=True)
class WeightedZ:
    z: tuple[int, ...]


@dataclass(frozen=True)
class SumBothSides:
    z: tuple[int, ...]


Kind = Code | WeightedZ | SumBothSides
Pair = tuple[frozenset[int], frozenset[int]]

DEFAULT_Z = (1, 2, 3)


def labeled_isomorphic(g: LabeledGraph, X: frozenset[int],
                       Y: frozenset[int]) -> bool:
    """Label-preserving isomorphism of the induced subgraphs on X and Y."""
    return next(labelled_isomorphisms(g, X, Y), None) is not None


def _syllable_count(w: NormalWord, A: frozenset[int]) -> int:
    """Number of syllables of w in W_A * W_(the rest)."""
    return sum(1 for _ in groupby(w.letters, lambda letter: letter[0] in A))


_ZERO = HomogValue(Fraction(0), True)  # a short word's value


def _single_z(g: LabeledGraph, S: frozenset[int]) -> bool:
    return len(S) == 1 and g.labels[next(iter(S))].is_infinite


def _single_z2(g: LabeledGraph, S: frozenset[int]) -> bool:
    return len(S) == 1 and g.labels[next(iter(S))].order == 2


def pair_kind(g: LabeledGraph, A: frozenset[int], B: frozenset[int],
              z: tuple[int, ...] = DEFAULT_Z, side: str | None = None
              ) -> tuple[frozenset[int], frozenset[int], Kind]:
    """The evaluator kind of the side pair (A, B), as (A, B, kind): the
    one check of a pair that build, decide and the CLI share.  The pair
    must be a free splitting of the lower cone A | B of the expanded g
    into connected sides, and z positive and generic.  The kind is
    WeightedZ when one side is a single Z vertex, which becomes side A;
    SumBothSides when the sides are isomorphic; else Code, on `side`, or
    on A unless A is a single Z/2 vertex.  A Z * Z, Z/2 * Z/2 or Z/2
    code side has no kind."""
    if not g.is_expanded():
        raise BuildError("graph must be expanded")
    if not A or not B:
        raise BuildError("partition parts must be nonempty")
    if A & B:
        raise BuildError("partition parts overlap")
    bmask = vertex_mask(g, B)
    if any(g.adj[a] & bmask for a in A):
        raise BuildError("edge between partition sides")
    if not is_lower_cone(g, A | B):
        raise BuildError("cone is not a lower cone")
    if not z or any(n < 1 for n in z):
        raise BuildError("pattern entries must be positive")
    if not is_generic(z):
        raise BuildError(f"pattern {z} is not generic")
    if side not in (None, "A", "B"):
        raise BuildError("side must be A or B")
    az, bz = _single_z(g, A), _single_z(g, B)
    if bz and not az:
        A, B = B, A  # WeightedZ's Z vertex is side A, in messages too
    for name, S in (("A", A), ("B", B)):
        if len(S) > 1 and len(connected_components(g, S)) > 1:
            raise BuildError(
                f"side {name} is a nontrivial free product; "
                "split it into factors instead")
    if az and bz:
        raise BuildError("non-constructive base (F2)")
    if az or bz:
        return A, B, WeightedZ(z)
    if labeled_isomorphic(g, A, B):
        if _single_z2(g, A):
            raise BuildError("sides must not be Z/2 (D-infinity base)")
        return A, B, SumBothSides(z)
    if side is None:
        side = "B" if _single_z2(g, A) else "A"
    if _single_z2(g, A if side == "A" else B):
        raise BuildError("chosen side must not be Z/2")
    return A, B, Code(side, z)


_WHY = {WeightedZ: "a side is a single Z vertex; use WeightedZ with it "
                   "as side A",
        SumBothSides: "sides isomorphic; use SumBothSides",
        Code: "no side is a single Z vertex and the sides are not "
              "isomorphic; use Code"}


class Evaluator:
    """A (cone, partition, kind) quasimorphism pipeline; build() validates
    it, the constructor does not, and nothing after build() checks again.
    The value at x is multiplicity times the sum over images (C, (A, B))
    of the homogenised base on (A, B) at r_C(x); a plain evaluator's
    images are its own pair alone.  Not for subclassing (module docstring)."""

    def __init__(self, graph: LabeledGraph, cone: frozenset[int],
                 partition: Pair, kind: Kind):
        self.graph = graph
        self.cone = frozenset(cone)
        self.partition = (frozenset(partition[0]), frozenset(partition[1]))
        self.kind = kind
        self.multiplicity = 1
        self.images = ((self.cone, self.partition),)
        self._homog_cache: dict[tuple, HomogValue] = {}

    # -- base counting function over the cone's free product ----------------

    def base(self, w: NormalWord, partition: Pair) -> int:
        k = self.kind
        if isinstance(k, Code):
            return codes.code_qm(w, partition, k.side, k.z)
        if isinstance(k, WeightedZ):
            return codes.weighted_code_qm(w, partition, k.z)
        return (codes.code_qm(w, partition, "A", k.z)
                + codes.code_qm(w, partition, "B", k.z))

    def _homog(self, w: NormalWord, partition: Pair) -> HomogValue:
        key = (partition, w.letters)
        got = self._homog_cache.get(key)
        if got is None:
            if _syllable_count(w, partition[0]) <= 2:
                got = _ZERO  # module docstring
            else:
                got = homogenise(lambda u: self.base(u, partition), w)
            self._homog_cache[key] = got
        return got


def build(graph: LabeledGraph, cone: frozenset[int], partition: Pair,
          kind: Kind) -> Evaluator:
    """Validate the evaluator invariants: the cone is A | B, and the kind
    is the one pair_kind gives the pair for the kind's own z and side
    (which a Code must name)."""
    cone = frozenset(cone)
    A, B = frozenset(partition[0]), frozenset(partition[1])
    if not isinstance(kind, Kind):
        raise BuildError(f"unknown kind {kind!r}")
    if isinstance(kind, Code) and kind.side is None:  # asks pair_kind to pick
        raise BuildError("side must be A or B")
    if A | B != cone:
        raise BuildError("partition must cover the cone exactly")
    want = pair_kind(graph, A, B, kind.z, getattr(kind, "side", None))
    if want != (A, B, kind):
        raise BuildError(f"{type(kind).__name__} does not fit this pair: "
                         f"{_WHY[type(want[2])]}")
    return Evaluator(graph, cone, (A, B), kind)


def average(e: Evaluator) -> Evaluator:
    """The evaluator summing over all labelled graph automorphisms: |J|
    times one term per image of (A, B), with (A, B) first."""
    group = labelled_aut_group(e.graph)
    orbit = group.pair_orbit(*e.partition)
    out = Evaluator(e.graph, e.cone, e.partition, e.kind)
    out.multiplicity = group.order // len(orbit)
    out.images = tuple((frozenset(rho[v] for v in e.cone), pair)
                       for pair, rho in orbit.items())
    return out


def evaluate(e: Evaluator, x: NormalWord) -> HomogValue:
    """Homogenised (and, if averaged, automorphism-summed) value at x."""
    if x.graph is not e.graph:
        raise BuildError("word over a different graph")
    total, exact = Fraction(0), True
    for cone, partition in e.images:
        term = e._homog(retraction(x, cone), partition)
        total += term.value
        exact = exact and term.exact
    return HomogValue(e.multiplicity * total, exact)
