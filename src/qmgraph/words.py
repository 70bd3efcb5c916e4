"""Exact element arithmetic in graph products of cyclic groups.

Elements are kept in a canonical normal form: a merge-free sequence of
letters (vertex, exponent) that is the lexicographically least shuffle
representative under the commutation moves of the graph, i.e. the
lexicographic normal form of a trace (Anisimov & Knuth 1979; Diekert &
Rozenberg, *The Book of Traces*, ch. 1-2).  Equality of group elements
is equality of letter sequences.

Every normal form is built by pushing letters (v, e) one at a time onto
the right end of a sequence already in normal form:

- reduce e modulo the order of v; if it is 0, do nothing;
- walk back from the end while the letters are adjacent to v;
- if the walk meets a letter of vertex v, add e to its exponent and
  delete it if the sum is 0;
- otherwise the walk stopped at p0, just after the last letter that does
  not commute with v: insert (v, e) before the first letter from p0 on
  whose vertex is greater than v.

This is enough, for two reasons.  A deleted letter commutes with every
letter after it, so removing it cannot bring two other letters of one
vertex together: the result is merge-free.  And the insertion point is
where greedy lex-least emission would place the new letter; it has no
successors, so the order of the old letters does not change.  A push
costs the length of the walk plus the list insertion.
"""

from __future__ import annotations

import random
from typing import Iterable

from .graphs import LabeledGraph


class WordError(ValueError):
    """Malformed word input or a violated word precondition."""


Letter = tuple[int, int]  # (vertex index, exponent)


def _norm_exp(g: LabeledGraph, v: int, e: int) -> int:
    """Reduce an exponent into the canonical range for its vertex group."""
    order = g.labels[v].order
    if order is None:
        return e
    return e % order


def _canonical(g: LabeledGraph, letters: Iterable[Letter],
               prefix: tuple[Letter, ...] = ()) -> tuple[Letter, ...]:
    """Normal form of `prefix` followed by `letters`; `prefix` is normal.

    Pushes the letters one at a time onto the right end, by the rule in
    the module docstring.
    """
    acc = list(prefix)
    for v, e in letters:
        e = _norm_exp(g, v, e)
        if e == 0:
            continue
        adj = g.adj[v]
        j = len(acc)
        while j and adj >> acc[j - 1][0] & 1:
            j -= 1
        if j and acc[j - 1][0] == v:
            e = _norm_exp(g, v, acc[j - 1][1] + e)
            if e == 0:
                del acc[j - 1]
            else:
                acc[j - 1] = (v, e)
            continue
        while j < len(acc) and acc[j][0] < v:
            j += 1
        acc.insert(j, (v, e))
    return tuple(acc)


class NormalWord:
    """An element of the graph product, in canonical normal form."""

    __slots__ = ("graph", "letters")

    def __init__(self, graph: LabeledGraph, letters: Iterable[Letter], *,
                 _canonical_input: bool = False):
        self.graph = graph
        if _canonical_input:
            self.letters = tuple(letters)
        else:
            self.letters = _canonical(graph, letters)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(graph: LabeledGraph) -> "NormalWord":
        return NormalWord(graph, (), _canonical_input=True)

    @staticmethod
    def letter(graph: LabeledGraph, v: int, e: int = 1) -> "NormalWord":
        return NormalWord(graph, [(v, e)])

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, NormalWord)
                and self.graph is other.graph
                and self.letters == other.letters)

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

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
        return NormalWord(self.graph, _canonical(self.graph, other.letters,
                                                 self.letters),
                          _canonical_input=True)

    def inverse(self) -> "NormalWord":
        return NormalWord(self.graph,
                          [(v, -e) for v, e in reversed(self.letters)])

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


# -- parsing and printing ----------------------------------------------------

def parse_word(g: LabeledGraph, text: str) -> NormalWord:
    """Parse whitespace-separated tokens `<id>`, `<id>^<int>` or `e`, where
    <int> is an optional sign and ASCII digits."""
    letters: list[Letter] = []
    for tok in text.split():
        if tok == "e":
            continue
        if "^" in tok:
            name, _, exp = tok.partition("^")
            digits = exp[1:] if exp[:1] in ("+", "-") else exp
            try:  # int() alone also takes "_" and non-ASCII digits
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError
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


# -- retractions and syllable blocks -------------------------------------------

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


def syllable_letters(x: NormalWord,
                     partition: tuple[frozenset[int], frozenset[int]]
                     ) -> list[tuple[str, tuple[Letter, ...]]]:
    """Alternating block decomposition of x in the free product W_A * W_B.

    Returns [(side, letters), ...] with side in {"A", "B"}: the letters of
    each block, in order.  A contiguous run of a normal word is normal and
    merge-free, so two blocks are equal exactly when their letter tuples
    are.
    """
    A, B = partition
    g = x.graph
    check_free_partition(g, A, B)
    if not x.support() <= A | B:
        raise WordError("word support escapes the partition")
    runs: list[tuple[str, list[Letter]]] = []
    for v, e in x.letters:
        side = "A" if v in A else "B"
        if not runs or runs[-1][0] != side:
            runs.append((side, []))
        runs[-1][1].append((v, e))
    return [(side, tuple(run)) for side, run in runs]


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
