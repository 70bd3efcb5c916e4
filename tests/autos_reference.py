"""Earlier forms of `qmgraph.autos` routines, kept as the oracles of the
differential tests in test_autos.py.

- The letterwise `apply_gen`, used before each image was normalised
  once: every letter's image is built as a normal word and the images
  are multiplied one by one.
- The list `valid_aut0_gens` and the `random_aut0` that drew from it,
  used before the factor automorphisms were kept implicit: one
  FactorAut per unit of each cyclic order, found by gcd.
- The `AutGroup.pair_orbit` that searched on pairs of frozensets and
  kept, for each image, one automorphism rho that sends (A, B) there,
  used before images were keyed by their vertex masks and before the
  search stopped composing automorphisms.
- The recursive `labelled_isomorphisms`, used before the backtracker
  kept its own stack: one generator per placed vertex, so its depth was
  bounded by Python's recursion limit.
"""

import math
import random

from qmgraph.autos import (SEARCH_BUDGET, AutError, AutWord, FactorAut,
                           LabelledGraphAut, PartialConj, Transvection,
                           validate_gen)
from qmgraph.graphs import GraphError, connected_components
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


def labelled_isomorphisms(g, X, Y, fixed=(), meter=None):
    fixed = dict(fixed)
    xs, ys = sorted(X), sorted(Y)
    n = len(xs)
    ypos = {t: j for j, t in enumerate(ys)}
    if (n != len(ys) or not fixed.keys() <= set(xs)
            or any(t not in ypos for t in fixed.values())):
        return
    xs = list(fixed) + [v for v in xs if v not in fixed]  # placement order
    out = sorted(range(n), key=xs.__getitem__)  # back to sorted(X) order
    cands = [(ypos[fixed[v]],) if v in fixed else range(n) for v in xs]
    xmask = sum(1 << v for v in xs)
    ymask = sum(1 << t for t in ys)
    xkey = [(g.labels[v], bin(g.adj[v] & xmask).count("1")) for v in xs]
    ykey = [(g.labels[t], bin(g.adj[t] & ymask).count("1")) for t in ys]
    adj = g.adj
    image = [-1] * n  # image[i]: the image of xs[i]
    used = [False] * n  # by position in ys
    meter = meter or [SEARCH_BUDGET]

    def extend(i, placed=0):
        meter[0] -= 1
        if meter[0] < 0:
            raise GraphError(f"search budget exceeded (automorphism search: "
                             f"{SEARCH_BUDGET} nodes)")
        if i == n:
            meter[0] = SEARCH_BUDGET
            yield tuple(map(image.__getitem__, out))
            return
        key, av = xkey[i], adj[xs[i]]
        nbr_images = sum(1 << image[k] for k in range(i) if av >> xs[k] & 1)
        for j in cands[i]:
            if used[j] or ykey[j] != key:
                continue
            t = ys[j]
            if adj[t] & placed != nbr_images:
                continue
            image[i] = t
            used[j] = True
            yield from extend(i + 1, placed | 1 << t)
            used[j] = False
        image[i] = -1

    yield from extend(0)
