"""Run-length codes of free-product words and the counting quasimorphisms.

For g in W_A * W_B the A-tuple is the sequence of A-blocks of its reduced
form, the A-code its run-length sequence, and #_z counts maximal
disjoint occurrences of a pattern z inside the code.  The quasimorphism is
f_z(g) = #_z(code(g)) - #_z(code(g^-1)); weighted Z-codes handle an
infinite cyclic side by summing maximal same-sign exponent runs.

The reduced form of g^-1 is that of g reversed with every block inverted,
so both codes of g^-1 are the codes of g reversed.  Disjoint copies of z
in a reversed sequence are disjoint copies of reverse(z) in the original,
so f_z is computed from one code c as #_z(c) - #_{reverse(z)}(c).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .words import Letter, NormalWord, WordError, syllable_letters

Partition = tuple[frozenset[int], frozenset[int]]


def _side_letters(x: NormalWord, partition: Partition,
                  side: str) -> list[tuple[Letter, ...]]:
    """The letters of each block of the requested side, in order."""
    if side not in ("A", "B"):
        raise WordError(f"side must be A or B, got {side!r}")
    return [run for s, run in syllable_letters(x, partition) if s == side]


def code(x: NormalWord, partition: Partition, side: str) -> tuple[int, ...]:
    """Run-length sequence of the side tuple under block equality, read
    off the blocks' letter tuples."""
    blocks = _side_letters(x, partition, side)
    runs: list[int] = []
    prev = None
    for blk in blocks:
        if blk == prev:
            runs[-1] += 1
        else:
            runs.append(1)
            prev = blk
    return tuple(runs)


def weighted_z_code(x: NormalWord, partition: Partition) -> tuple[int, ...]:
    """Weighted Z-code: |sum| of each maximal same-sign run of Z-exponents."""
    A, B = partition
    g = x.graph
    if len(A) != 1 or not g.labels[next(iter(A))].is_infinite:
        raise WordError("weighted Z-code needs side A = one Z-labeled vertex")
    exps = [run[0][1] for run in _side_letters(x, partition, "A")]
    out: list[int] = []
    cur = 0
    for e in exps:
        if cur and (e > 0) == (cur > 0):
            cur += e
        else:
            if cur:
                out.append(abs(cur))
            cur = e
    if cur:
        out.append(abs(cur))
    return tuple(out)


def is_generic(z: Sequence[int]) -> bool:
    """True iff reverse(z) does not occur among |z| adjacent entries of z^2."""
    z = tuple(z)
    k = len(z)
    rev = z[::-1]
    doubled = z + z
    return all(doubled[i:i + k] != rev for i in range(k + 1))


def count_disjoint(seq: Sequence[int], z: Sequence[int]) -> int:
    """Greedy left-to-right count of disjoint consecutive occurrences of z.

    Earliest-end greedy is optimal for disjoint interval selection.
    """
    z = tuple(z)
    k = len(z)
    if k == 0:
        raise ValueError("empty pattern")
    count = 0
    i = 0
    while i + k <= len(seq):
        if tuple(seq[i:i + k]) == z:
            count += 1
            i += k
        else:
            i += 1
    return count


def _antisymmetric_count(c: tuple[int, ...], z: Sequence[int]) -> int:
    """#_z(c) - #_z(reverse(c)), computed as #_z(c) - #_{reverse(z)}(c)."""
    z = tuple(z)
    return count_disjoint(c, z) - count_disjoint(c, z[::-1])


def code_qm(x: NormalWord, partition: Partition, side: str,
            z: Sequence[int]) -> int:
    return _antisymmetric_count(code(x, partition, side), z)


def weighted_code_qm(x: NormalWord, partition: Partition,
                     z: Sequence[int]) -> int:
    return _antisymmetric_count(weighted_z_code(x, partition), z)


# -- homogenisation -----------------------------------------------------------

@dataclass(frozen=True)
class HomogValue:
    """A homogenised value; exact when a stable period was detected."""

    value: Fraction
    exact: bool


MAX_N = 64
MAX_PERIOD = 8


def homogenise(f: Callable[[NormalWord], int], x: NormalWord) -> HomogValue:
    """Limit of f(x^n)/n, detected through eventually periodic increments.

    Scans s_n = f(x^n) for n = 1..MAX_N.  If for some period p <= MAX_PERIOD
    the differences s_{n+p} - s_n are constant c from some offset n0 <=
    n/2 onward, the limit is taken to be c/p and flagged exact.
    Otherwise returns the approximation s_MAX_N/MAX_N, flagged inexact.
    The flag is not a proof: where the increments repeat only with a
    period above MAX_PERIOD, as a long pattern z can make them, a value
    flagged exact can be wrong.  The depth is fixed, so the cost is at
    most MAX_N powers of x and grows linearly with the length of x.
    """

    def detect(s, n):
        for p in range(1, MAX_PERIOD + 1):
            diffs = [s[m + p] - s[m] for m in range(1, n - p + 1)]
            c = diffs[-1]
            n0 = len(diffs)
            while n0 > 0 and diffs[n0 - 1] == c:
                n0 -= 1
            # diffs[n0:] constant; corresponds to offset n0 + 1 in s.  From
            # n >= floor on, such a run holds at least two differences
            if n0 + 1 <= n / 2:
                return HomogValue(Fraction(c, p), True)
        return None

    # a period only counts once its constant run fills half a window of
    # at least this many powers.  A heuristic: a long pattern z can keep
    # a run constant through the window and break it later
    floor = 2 * (MAX_PERIOD + 1)
    s = [0]  # s[0] for the identity power
    xn = NormalWord.identity(x.graph)
    for n in range(1, MAX_N + 1):
        xn = xn * x
        s.append(f(xn))
        if n >= floor:
            got = detect(s, n)
            if got is not None:
                return got
    return HomogValue(Fraction(s[MAX_N], MAX_N), False)
