"""Earlier forms of `qmgraph.autos` routines, kept as the oracles of the
differential tests in test_autos.py.

- The letterwise `apply_gen`, used before each image was normalised
  once: every letter's image is built as a normal word and the images
  are multiplied one by one.
- The list `valid_aut0_gens` and the `random_aut0` that drew from it,
  used before the factor automorphisms were kept implicit: one
  FactorAut per unit of each cyclic order, found by gcd.
- The `AutGroup.pair_orbit` that searched on pairs of frozensets, used
  before images were keyed by their vertex masks.
"""

import math
import random

from qmgraph.autos import (AutError, AutWord, FactorAut, LabelledGraphAut,
                           PartialConj, Transvection, validate_gen)
from qmgraph.graphs import connected_components
from qmgraph.words import NormalWord


def _letter_image(g, gen, v, e):
    if isinstance(gen, LabelledGraphAut):
        return NormalWord.letter(g, gen.perm[v], e)
    if isinstance(gen, FactorAut):
        if v == gen.vertex:
            return NormalWord.letter(g, v, gen.m * e)
        return NormalWord.letter(g, v, e)
    if isinstance(gen, Transvection):
        if v != gen.v:
            return NormalWord.letter(g, v, e)
        gv, gw = g.labels[gen.v], g.labels[gen.w]
        if gv.is_infinite:
            img = NormalWord.letter(g, gen.v) * NormalWord.letter(g, gen.w)
        else:
            q = gv.prime ** (gw.power - gv.power) if gw.power > gv.power else 1
            img = NormalWord.letter(g, gen.v) * NormalWord.letter(g, gen.w, q)
        return img ** e
    if isinstance(gen, PartialConj):
        if v in gen.K:
            c = NormalWord.letter(g, gen.v)
            return c * NormalWord.letter(g, v, e) * c.inverse()
        return NormalWord.letter(g, v, e)
    raise AutError(f"unknown generator type {type(gen)!r}")


def apply_gen(gen, x):
    g = x.graph
    ok, reason = validate_gen(g, gen)
    if not ok:
        raise AutError(reason)
    out = NormalWord.identity(g)
    for v, e in x.letters:
        out = out * _letter_image(g, gen, v, e)
    return out


def valid_aut0_gens(g):
    gens = []
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


def random_aut0(g, length, seed):
    pool = valid_aut0_gens(g)
    if not pool:
        return AutWord()
    rng = random.Random(seed)
    return AutWord(tuple(rng.choice(pool) for _ in range(length)))


def pair_orbit(group, A, B):
    reps = {(frozenset(A), frozenset(B)): tuple(range(group.n))}
    todo = list(reps)
    for p in todo:
        for s in group.gens:
            q = tuple(frozenset(s[v] for v in S) for S in p)
            if q not in reps:
                reps[q] = tuple(s[v] for v in reps[p])
                todo.append(q)
    return reps
