"""Generators of Aut(W_Gamma) and their action on normal words.

Four families: labelled graph automorphisms, factor automorphisms,
dominated transvections and partial conjugations.  The latter three
generate the finite-index subgroup whose coset representatives are the
labelled graph automorphisms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .graphs import GraphError, LabeledGraph, connected_components
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
    """The letters of the image of (v, e), not yet normalised."""
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
    if isinstance(gen, PartialConj):
        if v in gen.K:
            return [(gen.v, 1), (v, e), (gen.v, -1)]
        return [(v, e)]
    raise AutError(f"unknown generator type {type(gen)!r}")


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


def apply(gen_or_word: Union[AutGen, AutWord], x: NormalWord) -> NormalWord:
    if isinstance(gen_or_word, AutWord):
        return gen_or_word(x)
    return apply_gen(gen_or_word, x)


def labelled_isomorphisms(g: LabeledGraph, X: Iterable[int],
                          Y: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Label-preserving isomorphisms of the induced subgraphs on X and Y.

    Each is yielded as the tuple of images of sorted(X), by backtracking
    in lexicographic order of that tuple; candidates whose label or
    degree in the induced subgraph differs are pruned.
    """
    xs, ys = sorted(X), sorted(Y)
    n = len(xs)
    if n != len(ys):
        return
    xmask = sum(1 << v for v in xs)
    ymask = sum(1 << t for t in ys)
    xkey = [(g.labels[v], bin(g.adj[v] & xmask).count("1")) for v in xs]
    ykey = [(g.labels[t], bin(g.adj[t] & ymask).count("1")) for t in ys]
    adj = g.adj
    image = [-1] * n  # image[i]: the image of xs[i]
    used = [False] * n  # by position in ys

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(image)
            return
        key, av = xkey[i], adj[xs[i]]
        for j, t in enumerate(ys):
            if used[j] or ykey[j] != key:
                continue
            at = adj[t]
            if any((av >> xs[k] ^ at >> image[k]) & 1 for k in range(i)):
                continue
            image[i] = t
            used[j] = True
            yield from extend(i + 1)
            used[j] = False
        image[i] = -1

    yield from extend(0)


# enumeration visits up to n! permutations
VERTEX_CAP = 16


def enum_labelled_graph_autos(g: LabeledGraph) -> list[LabelledGraphAut]:
    """All label-preserving graph automorphisms, by backtracking.

    Deterministic order: lexicographic in the image tuple.
    """
    if not g.is_expanded():
        raise GraphError("enumeration is defined on expanded graphs")
    if g.n > VERTEX_CAP:
        raise GraphError(f"vertex bound exceeded ({g.n} > {VERTEX_CAP})")
    V = range(g.n)
    return [LabelledGraphAut(p) for p in labelled_isomorphisms(g, V, V)]


def valid_aut0_gens(g: LabeledGraph) -> list[AutGen]:
    """The enumerable parameter space of type 2-4 generators."""
    gens: list[AutGen] = []
    for v in range(g.n):
        order = g.labels[v].order
        if order is None:
            gens.append(FactorAut(v, -1))
        else:
            gens.extend(FactorAut(v, m) for m in range(2, order)
                        if math.gcd(m, order) == 1)
    down = g.tau_down
    for v in range(g.n):
        for w in range(g.n):
            if v != w and down[w] >> v & 1:
                gens.append(Transvection(v, w))
    for v in range(g.n):
        rest = set(range(g.n)) - g.star(v)
        for K in connected_components(g, rest):
            gens.append(PartialConj(v, K))
    return gens


def random_aut0(g: LabeledGraph, length: int, seed: int) -> AutWord:
    """Seeded composition of `length` valid type 2-4 generators."""
    pool = valid_aut0_gens(g)
    if not pool:
        return AutWord()
    rng = random.Random(seed)
    return AutWord(tuple(rng.choice(pool) for _ in range(length)))
