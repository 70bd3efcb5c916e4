"""Exact element arithmetic in graph products of cyclic groups.

Elements are kept in a canonical normal form: a merge-free sequence of
letters (vertex, exponent) that is the lexicographically least shuffle
representative under the commutation moves of the graph.  Equality of
group elements is equality of letter sequences.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .graphs import GraphError, LabeledGraph


class WordError(ValueError):
    """Malformed word input or a violated word precondition."""


Letter = tuple[int, int]  # (vertex index, exponent)


def _norm_exp(g: LabeledGraph, v: int, e: int) -> int:
    """Reduce an exponent into the canonical range for its vertex group."""
    order = g.labels[v].order
    if order is None:
        return e
    return e % order


def _reduce(g: LabeledGraph, letters: list[Letter]) -> list[Letter]:
    """Merge letters of equal vertex separated only by commuting letters.

    Quadratic scan restarted after every merge; fine at desk scale.
    """
    letters = [(v, e) for v, e in ((v, _norm_exp(g, v, e)) for v, e in letters)
               if e != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(letters)):
            v = letters[i][0]
            blocked = False
            for j in range(i + 1, len(letters)):
                w = letters[j][0]
                if w == v:
                    e = _norm_exp(g, v, letters[i][1] + letters[j][1])
                    del letters[j]
                    if e == 0:
                        del letters[i]
                    else:
                        letters[i] = (v, e)
                    changed = True
                    blocked = True
                    break
                if not g.adjacent(v, w):
                    blocked = True
                    break
            if blocked and changed:
                break
    return letters


def _canonical(g: LabeledGraph, letters: list[Letter]) -> tuple[Letter, ...]:
    """Lexicographically least shuffle of a merge-free letter sequence.

    Repeatedly emits the least-vertex letter that commutes with everything
    still ahead of it.
    """
    out = []
    rem = list(letters)
    while rem:
        best = None
        for i, (v, _) in enumerate(rem):
            if all(w != v and g.adjacent(w, v) for w, _ in rem[:i]):
                if best is None or v < rem[best][0]:
                    best = i
        out.append(rem.pop(best))
    return tuple(out)


class NormalWord:
    """An element of the graph product, in canonical normal form."""

    __slots__ = ("graph", "letters")

    def __init__(self, graph: LabeledGraph, letters: Iterable[Letter], *,
                 _canonical_input: bool = False):
        self.graph = graph
        if _canonical_input:
            self.letters = tuple(letters)
        else:
            self.letters = _canonical(graph, _reduce(graph, list(letters)))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(graph: LabeledGraph) -> "NormalWord":
        return NormalWord(graph, (), _canonical_input=True)

    @staticmethod
    def letter(graph: LabeledGraph, v: int, e: int = 1) -> "NormalWord":
        e = _norm_exp(graph, v, e)
        if e == 0:
            return NormalWord.identity(graph)
        return NormalWord(graph, [(v, e)], _canonical_input=True)

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, NormalWord)
                and self.graph is other.graph
                and self.letters == other.letters)

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def support(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        parts = []
        for v, e in self.letters:
            name = self.graph.names[v]
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)

    def __repr__(self):
        return f"NormalWord({self})"

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "NormalWord") -> "NormalWord":
        if self.graph is not other.graph:
            raise WordError("mismatched ambient graphs")
        g = self.graph
        acc = list(self.letters)
        dirty = False
        for v, e in other.letters:
            # push one letter onto a merge-free sequence
            j = len(acc) - 1
            placed = False
            while j >= 0:
                w, f = acc[j]
                if w == v:
                    ne = _norm_exp(g, v, f + e)
                    if ne == 0:
                        del acc[j]
                        dirty = True  # removal may expose distant merges
                    else:
                        acc[j] = (v, ne)
                    placed = True
                    break
                if not g.adjacent(w, v):
                    break
                j -= 1
            if not placed:
                acc.append((v, e))
            if dirty:
                acc = _reduce(g, acc)
                dirty = False
        return NormalWord(g, _canonical(g, acc), _canonical_input=True)

    def inverse(self) -> "NormalWord":
        g = self.graph
        inv = [(v, _norm_exp(g, v, -e)) for v, e in reversed(self.letters)]
        return NormalWord(g, _canonical(g, inv), _canonical_input=True)

    def __pow__(self, n: int) -> "NormalWord":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = NormalWord.identity(self.graph)
        acc = base
        while n:
            if n & 1:
                result = result * acc
            n >>= 1
            if n:
                acc = acc * acc
        return result

    def conjugate_by(self, y: "NormalWord") -> "NormalWord":
        return y * self * y.inverse()


# -- parsing and printing ----------------------------------------------------

def parse_word(g: LabeledGraph, text: str) -> NormalWord:
    """Parse whitespace-separated tokens `<id>`, `<id>^<int>` or `e`."""
    letters: list[Letter] = []
    for tok in text.split():
        if tok == "e":
            continue
        if "^" in tok:
            name, _, exp = tok.partition("^")
            try:
                e = int(exp)
            except ValueError:
                raise WordError(f"bad exponent in token {tok!r}") from None
            if e == 0:
                raise WordError(f"zero exponent in token {tok!r}")
        else:
            name, e = tok, 1
        if name not in g.index:
            raise WordError(f"unknown vertex {name!r}")
        letters.append((g.index[name], e))
    return NormalWord(g, letters)


# -- retractions and syllables -------------------------------------------------

def retraction(x: NormalWord, X: frozenset[int]) -> NormalWord:
    """Standard retraction: delete every letter outside X."""
    return NormalWord(x.graph, [(v, e) for v, e in x.letters if v in X])


def check_free_partition(g: LabeledGraph, A: frozenset[int], B: frozenset[int]):
    """A, B disjoint vertex sets with no cross edges (so W_{A|B} = W_A * W_B)."""
    if A & B:
        raise WordError("partition sides overlap")
    for a in A:
        for b in B:
            if g.adjacent(a, b):
                raise WordError(
                    f"edge between sides: {g.names[a]} {g.names[b]}")


def syllables(x: NormalWord,
              partition: tuple[frozenset[int], frozenset[int]]
              ) -> list[tuple[str, NormalWord]]:
    """Alternating block decomposition of x in the free product W_A * W_B.

    Returns [(side, block), ...] with side in {"A", "B"}; blocks are
    canonical words over the ambient graph supported in one side.
    """
    A, B = partition
    g = x.graph
    check_free_partition(g, A, B)
    if not x.support() <= A | B:
        raise WordError("word support escapes the partition")
    blocks: list[tuple[str, NormalWord]] = []
    cur: list[Letter] = []
    cur_side = None
    for v, e in x.letters:
        side = "A" if v in A else "B"
        if side != cur_side and cur:
            blocks.append((cur_side, NormalWord(g, cur)))
            cur = []
        cur_side = side
        cur.append((v, e))
    if cur:
        blocks.append((cur_side, NormalWord(g, cur)))
    return blocks


def random_word(g: LabeledGraph, length: int, seed: int) -> NormalWord:
    """Deterministic-per-seed word of `length` uniform letters, normalized."""
    rng = random.Random(seed)
    letters: list[Letter] = []
    for _ in range(length):
        v = rng.randrange(g.n)
        order = g.labels[v].order
        if order is None:
            e = rng.choice([-3, -2, -1, 1, 2, 3])
        else:
            e = rng.randrange(1, order)
        letters.append((v, e))
    return NormalWord(g, letters)
