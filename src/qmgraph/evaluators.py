"""Composable quasimorphism evaluators.

An evaluator is a counting quasimorphism on the free product spanned by a
lower cone, precomposed with the standard retraction, homogenised, and
optionally averaged over all labelled graph automorphisms.  All values are
exact rationals whenever the homogenisation detects a stable period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import codes
from .autos import (LabelledGraphAut, apply_gen, enum_labelled_graph_autos,
                    labelled_isomorphisms)
from .codes import HomogValue, homogenise, is_generic
from .graphs import LabeledGraph, connected_components, is_lower_cone
from .words import NormalWord, retraction

QMValue = HomogValue


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


Kind = Union[Code, WeightedZ, SumBothSides]


def labeled_isomorphic(g: LabeledGraph, X: frozenset[int],
                       Y: frozenset[int]) -> bool:
    """Label-preserving isomorphism of the induced subgraphs on X and Y."""
    return next(labelled_isomorphisms(g, X, Y), None) is not None


def _single_z(g: LabeledGraph, S: frozenset[int]) -> bool:
    return len(S) == 1 and g.labels[next(iter(S))].is_infinite


def _single_z2(g: LabeledGraph, S: frozenset[int]) -> bool:
    return len(S) == 1 and g.labels[next(iter(S))].order == 2


class Evaluator:
    """A validated (cone, partition, kind) quasimorphism pipeline."""

    def __init__(self, graph: LabeledGraph, cone: frozenset[int],
                 partition: tuple[frozenset[int], frozenset[int]],
                 kind: Kind, homog_params: tuple[int, int] = (64, 8),
                 averaged: bool = False,
                 defect_estimate: Fraction = Fraction(0),
                 unchecked: bool = False):
        self.graph = graph
        self.cone = frozenset(cone)
        self.partition = (frozenset(partition[0]), frozenset(partition[1]))
        self.kind = kind
        self.homog_params = homog_params
        self.averaged = averaged
        self.defect_estimate = Fraction(defect_estimate)
        self.unchecked = unchecked
        self._homog_cache: dict[tuple, HomogValue] = {}
        self._lga: Optional[list[LabelledGraphAut]] = None

    # -- base counting function over the cone's free product ----------------

    def base(self, w: NormalWord) -> int:
        k = self.kind
        if isinstance(k, Code):
            return codes.code_qm(w, self.partition, k.side, k.z)
        if isinstance(k, WeightedZ):
            return codes.weighted_code_qm(w, self.partition, k.z)
        if isinstance(k, SumBothSides):
            return (codes.code_qm(w, self.partition, "A", k.z)
                    + codes.code_qm(w, self.partition, "B", k.z))
        raise BuildError(f"unknown kind {k!r}")

    def _homog(self, w: NormalWord) -> HomogValue:
        key = w.letters
        got = self._homog_cache.get(key)
        if got is None:
            max_n, max_period = self.homog_params
            got = homogenise(self.base, w, max_n, max_period,
                             self.defect_estimate)
            self._homog_cache[key] = got
        return got

    def lga(self) -> list[LabelledGraphAut]:
        if self._lga is None:
            self._lga = enum_labelled_graph_autos(self.graph)
        return self._lga


def build(graph: LabeledGraph, cone: frozenset[int],
          partition: tuple[frozenset[int], frozenset[int]], kind: Kind,
          homog_params: tuple[int, int] = (64, 8),
          defect_estimate: Fraction = Fraction(0),
          unchecked: bool = False) -> Evaluator:
    """Validate the evaluator invariants and the kind's case conditions.

    With unchecked=True only the structural checks run (cone, partition,
    pattern); the existence-theorem gating is skipped and resulting values
    carry no invariance guarantee.  Intended for diagnostics and tests.
    """
    cone = frozenset(cone)
    A, B = frozenset(partition[0]), frozenset(partition[1])
    if not graph.is_expanded():
        raise BuildError("graph must be expanded")
    if not A or not B:
        raise BuildError("partition parts must be nonempty")
    if A & B:
        raise BuildError("partition parts overlap")
    if A | B != cone:
        raise BuildError("partition must cover the cone exactly")
    for a in A:
        for b in B:
            if graph.adjacent(a, b):
                raise BuildError("edge between partition sides")
    if not is_lower_cone(graph, cone):
        raise BuildError("cone is not a lower cone")
    z = kind.z
    if not z or any(n < 1 for n in z):
        raise BuildError("pattern entries must be positive")
    if not is_generic(z):
        raise BuildError(f"pattern {z} is not generic")
    if isinstance(kind, Code) and kind.side not in ("A", "B"):
        raise BuildError("side must be A or B")
    max_n, max_period = homog_params
    if max_n < 2 or max_period < 1:
        raise BuildError("homogenisation needs max_n >= 2 and "
                         "max_period >= 1")

    if not unchecked:
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
            if bz:
                raise BuildError("non-constructive base (F2)")
        elif isinstance(kind, Code):
            if az or bz:
                raise BuildError("Code kind needs both sides non-Z; "
                                 "use WeightedZ for a Z side")
            if labeled_isomorphic(graph, A, B):
                raise BuildError("sides isomorphic; use SumBothSides")
            side = A if kind.side == "A" else B
            if _single_z2(graph, side):
                raise BuildError("chosen side must not be Z/2")
        elif isinstance(kind, SumBothSides):
            if az or bz:
                raise BuildError("SumBothSides needs both sides non-Z")
            if not labeled_isomorphic(graph, A, B):
                raise BuildError("sides not isomorphic; use Code")
            if _single_z2(graph, A):
                raise BuildError("sides must not be Z/2 (D-infinity base)")
    return Evaluator(graph, cone, (A, B), kind, homog_params,
                     averaged=False, defect_estimate=defect_estimate,
                     unchecked=unchecked)


def average(e: Evaluator) -> Evaluator:
    """The evaluator summing over all labelled graph automorphisms."""
    out = Evaluator(e.graph, e.cone, e.partition, e.kind, e.homog_params,
                    averaged=True, defect_estimate=e.defect_estimate,
                    unchecked=e.unchecked)
    out._homog_cache = e._homog_cache
    out._lga = e._lga
    return out


def evaluate(e: Evaluator, x: NormalWord) -> QMValue:
    """Homogenised (and, if averaged, automorphism-summed) value at x."""
    if x.graph is not e.graph:
        raise BuildError("word over a different graph")
    if not e.averaged:
        return e._homog(retraction(x, e.cone))
    total = Fraction(0)
    exact = True
    err = Fraction(0)
    for sigma in e.lga():
        term = e._homog(retraction(apply_gen(sigma, x), e.cone))
        total += term.value
        exact = exact and term.exact
        err += term.error_bound
    if exact:
        return HomogValue(total, True)
    return HomogValue(total, False, err)


def stabilizer_count(graph: LabeledGraph, cone: frozenset[int],
                     partition: tuple[frozenset[int], frozenset[int]]) -> int:
    """|J|: labelled graph automorphisms fixing the cone and the side pair."""
    A, B = frozenset(partition[0]), frozenset(partition[1])
    cone = frozenset(cone)
    count = 0
    for sigma in enum_labelled_graph_autos(graph):
        pA = frozenset(sigma.perm[v] for v in A)
        pB = frozenset(sigma.perm[v] for v in B)
        if pA | pB == cone and {pA, pB} == {A, B}:
            count += 1
    return count
