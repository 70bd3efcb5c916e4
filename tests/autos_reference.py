"""The letterwise `apply_gen` that `qmgraph.autos` used before it
normalised each image once.

Kept as the oracle of the differential test in test_autos.py: every
letter's image is built as a normal word and the images are multiplied
one by one.
"""

from qmgraph.autos import (AutError, FactorAut, LabelledGraphAut,
                           PartialConj, Transvection, validate_gen)
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
