"""Exact homogenised values of the code quasimorphisms, by cyclic reduction.

The oracle of the differential test in test_codes.py, which checks
`qmgraph.codes.homogenise` against it.  No powers are scanned.

A homogeneous quasimorphism is constant on conjugacy classes, so the
syllables of w in W_A * W_B may be cyclically reduced: while the first and
last syllables lie on one side, conjugate the last one to the front and
merge the two, dropping a product that is e.  Two or fewer syllables
left give 0: every power is then e, one syllable, or (ab)^n, whose codes
are single runs that hold no generic pattern.  Otherwise the syllables of
w^n are n copies of those of w, and rotating one side's blocks to a run
boundary (for a weighted Z-code, to a sign change) makes that side's code
of w^n equal to c^n for one sequence c.  With no boundary the code is a
single run and the side contributes 0.

Greedy disjoint counting on c^n is a deterministic walk whose state at
each copy start is its offset into the copy, so the first repeated offset
gives the exact rate (count gained) / (copies elapsed).  The value is
rate(z) - rate(reverse z), summed over both sides for SumBothSides.
"""

from fractions import Fraction

from qmgraph.evaluators import SumBothSides, WeightedZ
from qmgraph.words import NormalWord, syllable_letters


def cyclic_syllables(w, partition):
    """(side, letters) of the syllables of a cyclically reduced conjugate
    of w in W_A * W_B."""
    sylls = [(side, NormalWord(w.graph, run))
             for side, run in syllable_letters(w, partition)]
    while len(sylls) > 1 and sylls[0][0] == sylls[-1][0]:
        side, last = sylls.pop()
        merged = last * sylls.pop(0)[1]
        if merged.letters:
            sylls.insert(0, (side, merged))
    return [(side, s.letters) for side, s in sylls]


def _rate(c, z):
    """lim #_z(c^n) / n for greedy left-to-right disjoint counting."""
    period, k = len(c), len(z)
    seen = {}
    i = count = 0
    for copy in range(k + 2):
        while i < copy * period:
            if all(c[(i + t) % period] == z[t] for t in range(k)):
                count += 1
                i += k
            else:
                i += 1
        offset = i - copy * period
        if offset in seen:
            first, before = seen[offset]
            return Fraction(count - before, copy - first)
        seen[offset] = (copy, count)
    raise AssertionError("an offset below len(z) must repeat")


def _cyclic_code(blocks, same, weight):
    """The c with code(w^n) = c^n: the weights of the maximal runs of the
    cyclic block sequence read from a run boundary, or None when every
    block continues the run of its predecessor."""
    for start in range(len(blocks)):
        if not same(blocks[start - 1], blocks[start]):
            break
    else:
        return None
    blocks = blocks[start:] + blocks[:start]
    runs = [[blocks[0]]]
    for b in blocks[1:]:
        if same(runs[-1][-1], b):
            runs[-1].append(b)
        else:
            runs.append([b])
    return [weight(r) for r in runs]


def homog_value(e, w):
    """lim e.base(w^n) / n for a word w supported in e's cone."""
    sylls = cyclic_syllables(w, e.partition)
    if len(sylls) <= 2:
        return Fraction(0)
    kind = e.kind
    z = tuple(kind.z)
    if isinstance(kind, WeightedZ):
        exps = [run[0][1] for side, run in sylls if side == "A"]
        codes = [_cyclic_code(exps, lambda a, b: (a > 0) == (b > 0),
                              lambda r: abs(sum(r)))]
    else:
        sides = ["A", "B"] if isinstance(kind, SumBothSides) else [kind.side]
        codes = [_cyclic_code([run for side, run in sylls if side == s],
                              lambda a, b: a == b, len) for s in sides]
    return sum((_rate(c, z) - _rate(c, z[::-1]) for c in codes
                if c is not None), Fraction(0))
