"""scl lower bounds from Aut-invariant quasimorphisms.

scl_Aut is defined on the commutator subgroup [Aut-hat G, G]
(Kawasaki-Kimura).

The Bavard-type inequality scl_Aut(x) >= |phi(x)| / (2 D(phi)) needs a bound
on the defect D.  Since no certified constants are available, the bound is
"rigorous-given-bound" only when the caller supplies one; sampling yields an
explicitly-flagged heuristic estimate otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .evaluators import Evaluator, evaluate
from .graphs import GraphError, center_support
from .words import NormalWord, random_word

RIGOROUS = "rigorous-given-bound"
HEURISTIC = "heuristic"


@dataclass
class DefectEstimate:
    empirical_max: Fraction
    samples: int
    max_len: int
    seed: int
    user_bound: Optional[Fraction] = None
    skipped: int = 0
    vacuous: bool = False

    def __post_init__(self):
        if self.empirical_max < 0:
            raise ValueError("empirical_max must be nonnegative")
        if self.user_bound is not None and self.user_bound < 0:
            raise ValueError("user_bound must be nonnegative")
        if (self.user_bound is not None
                and self.user_bound < self.empirical_max):
            raise ValueError("user_bound contradicts the empirical maximum")


def _cone_word(e: Evaluator, rng: random.Random, max_len: int) -> NormalWord:
    """Random word alternating between the evaluator's partition sides.

    Uniform words almost never produce long codes, so half the defect
    samples are drawn from the cone where the counting function lives.
    """
    g = e.graph
    A, B = e.partition
    side = rng.choice([0, 1])
    letters = []
    for _ in range(rng.randrange(1, max_len + 1)):
        v = rng.choice(sorted(A) if side == 0 else sorted(B))
        order = g.labels[v].order
        exp = rng.randrange(1, order) if order else rng.choice([1, 2, -1])
        letters.append((v, exp))
        side ^= 1
    return NormalWord(g, letters)


def estimate_defect(e: Evaluator, samples: int, max_len: int,
                    seed: int) -> DefectEstimate:
    """Empirical max of |f(g) + f(h) - f(gh)| over seeded random pairs.

    Pairs alternate between uniform random words and words supported in
    the evaluator's cone.  Only exact evaluations contribute; pairs with
    an approximate term are skipped and counted.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if samples == 0:
        return DefectEstimate(Fraction(0), 0, max_len, seed, vacuous=True)
    rng = random.Random(seed)
    best = Fraction(0)
    skipped = 0
    for i in range(samples):
        if i % 2 == 0:
            gw = _cone_word(e, rng, max_len)
            hw = _cone_word(e, rng, max_len)
        else:
            lg = rng.randrange(1, max_len + 1)
            lh = rng.randrange(1, max_len + 1)
            gw = random_word(e.graph, lg, seed=rng.randrange(1 << 30))
            hw = random_word(e.graph, lh, seed=rng.randrange(1 << 30))
        vg, vh, vgh = evaluate(e, gw), evaluate(e, hw), evaluate(e, gw * hw)
        if not (vg.exact and vh.exact and vgh.exact):
            skipped += 1
            continue
        best = max(best, abs(vg.value + vh.value - vgh.value))
    return DefectEstimate(best, samples, max_len, seed, skipped=skipped)


def scl_aut_lower_bound(e: Evaluator, x: NormalWord,
                        d: DefectEstimate) -> tuple[Fraction, str]:
    """(bound, mode): scl_Aut(x) >= |evaluate(e,x)| / (2 D)."""
    if center_support(e.graph):
        raise GraphError("scl bound requires a trivial center")
    val = evaluate(e, x)
    if not val.exact:
        raise ValueError("evaluation of x is not exact")
    mode = RIGOROUS if d.user_bound is not None else HEURISTIC
    if val.value == 0:
        return (Fraction(0), mode)
    denom = d.user_bound if d.user_bound is not None else d.empirical_max
    if denom == 0:
        raise ValueError("defect bound is zero; no valid denominator")
    return (abs(val.value) / (2 * denom), mode)
