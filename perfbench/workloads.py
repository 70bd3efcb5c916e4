"""The three workloads: how their queries are generated, run and checked.

A query is the work of one CLI command (decide/witness, eval, eval --avg,
scl --defect-bound, defect) on texts made during set-up, so parsing,
expansion and evaluator building happen inside the timed query and no
evaluator or cache survives from one query to the next.

Queries come in blocks.  Every block of a workload has the same mix of
input classes; only the seeded letters, labels and graph rotation differ.
The timed loop stops at a block boundary, so each run measures whole
copies of the mix and its figures do not depend on where the clock ran
out.  Later queries in a block may check their answer against an earlier
one (homogeneity, conjugacy and automorphism invariance, the scl bound).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import checks
import gen

WORKLOADS = ("eval-words", "avg-symmetric", "decide-families")
DEFAULT_SEED = 1
# Blocks generated per run; a faster program cycles through them again.
BLOCKS = {"eval-words": 8, "avg-symmetric": 8, "decide-families": 24}

CONSTRUCTIVE = checks.CONSTRUCTIVE


@dataclass
class Query:
    kind: str                  # eval | scl | defect | decide
    tag: str                   # input class, for reports
    graph: str                 # graph-file text
    spec: Optional[tuple] = None   # (cone, partA, partB, kind, side, z)
    word: str = ""
    avg: bool = False          # eval --avg
    aut: Optional[tuple] = None    # (length, seed): evaluate at random_aut0(x)
    bound: Optional[Fraction] = None   # scl --defect-bound
    defect: Optional[tuple] = None     # (samples, max_len, seed)
    checks: tuple = ()


@dataclass
class Witnessed:
    """A graph with its decided witness spec, as set-up found it."""

    name: str
    text: str
    spec: tuple
    side_a: list               # [(vertex name, order)] of partition side A
    side_b: list
    witness: list              # witness word letters
    trivial_centre: bool


# -- running a query ----------------------------------------------------------

def run_query(qm, q: Query):
    """Execute one query through the public API; returns a plain answer."""
    if q.kind == "decide":
        g = qm.parse_graph(q.graph)
        v = qm.decide(g)
        if v.status != CONSTRUCTIVE:
            return (v.status, None, None)
        word = str(qm.witness(g, v))
        return (v.status, spec_names(v.graph, v.witness), word)
    g = qm.expand(qm.parse_graph(q.graph))
    e = checks.make_evaluator(qm, g, q.spec)
    if q.kind == "defect":
        d = qm.estimate_defect(e, *q.defect)
        return (d.empirical_max, d.samples, getattr(d, "skipped", 0))
    if q.avg:
        e = qm.average(e)
    x = qm.parse_word(g, q.word)
    if q.aut is not None:
        x = qm.random_aut0(g, *q.aut)(x)
    if q.kind == "scl":
        d = qm.DefectEstimate(Fraction(0), 0, 6, 0, user_bound=q.bound)
        return qm.scl_aut_lower_bound(e, x, d)
    v = qm.evaluate(e, x)
    return (v.value, getattr(v, "exact", True))


def spec_names(g, spec) -> tuple:
    A, B = spec.partition
    kind = type(spec.kind).__name__
    return (tuple(g.names_of(spec.cone)), tuple(g.names_of(A)),
            tuple(g.names_of(B)), kind, getattr(spec.kind, "side", ""),
            tuple(spec.kind.z))


def check(qm, q: Query, ans, earlier: list):
    """Run the query's checks; `earlier` holds this block's answers so far
    (None where a query failed)."""
    for c in q.checks:
        op = c[0]
        if op in ("homog", "same", "scl_ref") and earlier[c[1]] is None:
            return "depends on a failed query"
        if op == "value":
            why = checks.value_is(ans, c[1])
        elif op == "homog":
            why = checks.homogeneous(ans, earlier[c[1]], c[2])
        elif op == "same":
            why = checks.same_value(ans, earlier[c[1]], c[2])
        elif op == "scl_ref":
            why = checks.scl_bound(ans, earlier[c[1]][0], q.bound)
        elif op == "scl_value":
            why = checks.scl_bound(ans, c[1], q.bound)
        elif op == "defect":
            why = checks.defect_sane(ans, q.defect[0])
        elif op == "verdict":
            why = checks.verdict(ans, c[1])
        elif op == "builds":
            why = checks.witness_builds(qm, q.graph, ans)
        else:
            raise ValueError(f"unknown check {op!r}")
        if why is not None:
            return why
    return None


# -- set-up -------------------------------------------------------------------

def corpus(qm) -> tuple[dict, dict]:
    """(name -> graph text, name -> expected verdict) of the bundled corpus."""
    d = Path(qm.__file__).parent / "corpus"
    expected = {}
    for line in (d / "expected.tsv").read_text().splitlines():
        if line.strip():
            name, status = line.split("\t")
            expected[name] = status
    texts = {name: (d / f"{name}.graph").read_text() for name in expected}
    return texts, expected


def witnessed(qm, name: str, text: str) -> Witnessed:
    g = qm.parse_graph(text)
    v = qm.decide(g)
    if v.status != CONSTRUCTIVE:
        raise RuntimeError(f"{name}: expected a constructive verdict, "
                           f"got {v.status}")
    gx = v.graph
    A, B = v.witness.partition
    side = [[(gx.names[i], gx.labels[i].order) for i in sorted(S)]
            for S in (A, B)]
    return Witnessed(name, text, spec_names(gx, v.witness), side[0], side[1],
                     gen.parse_letters(str(qm.witness(g, v))),
                     not qm.center_support(gx))


def prepare(qm, workload: str, seed: int) -> list[list[Query]]:
    """Set-up: every block of the workload's timed mix, from the seed."""
    texts, expected = corpus(qm)
    make = {"eval-words": _eval_words, "avg-symmetric": _avg_symmetric,
            "decide-families": _decide_families}[workload]
    rng = random.Random(f"{workload}:{seed}")
    return make(qm, rng, texts, expected)


# -- eval-words ---------------------------------------------------------------

# Every block holds the same slots on the same graphs, so every block
# costs about the same; the seed and the block number change letters,
# labels and exponents only.  Cone-word lengths: mostly short, a tail up
# to 14 letters (cost grows about as length^2.5: 4 letters ~50 ms, 14
# ~0.6 s); the 20-letter corpus witness makes the top of the range.
EW_LENGTHS = (4, 4, 4, 4, 5, 5, 6, 6, 7, 8, 10, 12, 14)
EW_POWERS = (2, 3, -2)   # exponents applied to the first three cone words
EW_WITNESS = "an_4_z2"   # corpus witnesses all cost ~1-1.5 s; the cheapest


def _eval_words(qm, rng, texts, expected):
    constructive = [n for n in sorted(expected) if expected[n] == CONSTRUCTIVE]
    corpus_w = {n: witnessed(qm, n, texts[n]) for n in constructive}
    wz = [witnessed(qm, f"wz{i}", gen.weighted_z_graph(rng, i))
          for i in range(3)]
    pool = list(corpus_w.values()) + wz
    central_free = [w for w in pool if w.trivial_centre]
    blocks = []
    for b in range(BLOCKS["eval-words"]):
        block: list[Query] = []

        def add(q):
            block.append(q)
            return len(block) - 1

        def ev(w, letters, tag, want=()):
            return add(Query("eval", tag, w.text, w.spec,
                             gen.word_text(letters), checks=want))

        words = []
        for i, n in enumerate(EW_LENGTHS):
            w = pool[5 * i % len(pool)]  # 5 is prime to 17: reaches wz too
            x = gen.cone_word(rng, w.side_a, w.side_b, n)
            words.append((w, x, ev(w, x, f"cone-word/{n}")))
        for (w, x, ref), k in zip(words, EW_POWERS):
            ev(w, gen.power(x, k), f"power/{k}", (("homog", ref, k),))
        for w, x, ref in words[3:5]:
            y = gen.cone_word(rng, w.side_a, w.side_b, rng.randint(1, 2))
            ev(w, gen.conjugate(x, y), "conjugate",
               (("same", ref, "conjugacy invariance"),))
        # scl --defect-bound on a cone word, checked against its eval
        w = central_free[0]
        x = gen.cone_word(rng, w.side_a, w.side_b, 6)
        ref = ev(w, x, "cone-word/6")
        add(Query("scl", "scl/cone-word", w.text, w.spec, gen.word_text(x),
                  bound=_defect_bound(rng), checks=(("scl_ref", ref),)))
        # a corpus witness, and its inverse or a cyclic conjugate
        w = corpus_w[EW_WITNESS]
        ev(w, w.witness, "witness", (("value", Fraction(1)),))
        if b % 2:
            ev(w, gen.inverse(w.witness), "witness/inverse",
               (("value", Fraction(-1)),))
        else:
            ev(w, gen.rotate(w.witness, 2 * rng.randint(1, 9)),
               "witness/rotated", (("value", Fraction(1)),))
        # WeightedZ witnesses: a square, and the scl bound on another
        w = wz[0]
        ev(w, gen.power(w.witness, 2), "witness/squared-wz",
           (("value", Fraction(2)),))
        w = wz[1]
        add(Query("scl", "scl/witness-wz", w.text, w.spec,
                  gen.word_text(w.witness), bound=_defect_bound(rng),
                  checks=(("scl_value", Fraction(1)),)))
        w = wz[2]
        add(Query("defect", "defect/4x4", w.text, w.spec,
                  defect=(4, 4, rng.randrange(1 << 20)),
                  checks=(("defect",),)))
        blocks.append(block)
    return blocks


def _defect_bound(rng) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 3))


# -- avg-symmetric ------------------------------------------------------------

# Corpus graphs with large labelled automorphism groups (|Aut| 8..48).
AS_CORPUS = ("cube_3_z2", "cube_3_z3", "octahedron_1_z3", "ngon_4_z3",
             "ngon_5_z2", "ngon_6_z2", "ngon_6_z3")
AS_STARS = (4, 5, 6, 7)    # K_{1,k}: 24 .. 5040 automorphisms
AS_LEAF = 3                # Z/3 leaves: the decided witness is SumBothSides
AS_ROUNDS = 3              # rounds of (x, phi x) pairs over the pool per block
# Free products Z * (Z/3)^{*k}: their WeightedZ witness has the nonzero
# averaged value (k-1)!, so the random_aut0 invariance check has teeth
# (short cone words average to 0), and it costs ~0.2 s where a corpus
# witness costs seconds.
AS_FREE_STARS = (4, 5)


def _avg_symmetric(qm, rng, texts, expected):
    pool = [witnessed(qm, n, texts[n]) for n in AS_CORPUS]
    pool += [witnessed(qm, f"star{k}", gen.star(k, gen.Z, AS_LEAF))
             for k in AS_STARS]
    free = [witnessed(qm, f"free-star{k}", gen.free_star(k, AS_LEAF))
            for k in AS_FREE_STARS]
    blocks = []
    for b in range(BLOCKS["avg-symmetric"]):
        block: list[Query] = []

        def pair(w, x, tag, aut_len):
            block.append(Query("eval", f"{tag}/{w.name}", w.text, w.spec, x,
                               avg=True))
            block.append(Query("eval", f"{tag}-aut0/{w.name}", w.text, w.spec,
                               x, avg=True,
                               aut=(aut_len, rng.randrange(1 << 20)),
                               checks=(("same", len(block) - 1,
                                        "invariance under random_aut0"),)))

        for w in AS_ROUNDS * pool:
            # two letters keep cube_3_z2 (~24 distinct terms in 48) and
            # K_{1,7} (5040 automorphisms) near 0.3 s and most other pairs
            # within 30-60 ms, one tight cluster around p50
            x = gen.cone_word(rng, w.side_a, w.side_b, 2)
            pair(w, gen.word_text(x), "avg", 2)
        for w in free:
            # one generator: longer aut words can grow the witness tenfold
            pair(w, gen.word_text(w.witness), "avg-witness", 1)
        blocks.append(block)
    return blocks


# -- decide-families ----------------------------------------------------------

# (family, generator, sizes) of the seeded part of every block.
DF_FAMILIES = (
    ("mixed-path", gen.mixed_path, (6, 8, 10, 11, 12, 13)),
    ("finite-cycle", gen.finite_cycle, (5, 6, 7, 8)),
    ("b-graph", gen.b_graph, (4, 5, 6)),
    ("mixed-tree", gen.mixed_tree, (6, 7, 7)),
    ("mixed-star", gen.mixed_star, (5, 6, 6, 7)),
    ("raag-path", gen.raag_path, (5, 7, 9)),
    ("raag-cycle", gen.raag_cycle, (5, 6, 8)),
    ("complete", gen.complete, (3, 4, 5, 6)),
)


def _decide_families(qm, rng, texts, expected):
    blocks = []
    for b in range(BLOCKS["decide-families"]):
        block = [Query("decide", f"corpus/{name}", texts[name],
                       checks=(("verdict", expected[name]), ("builds",)))
                 for name in sorted(expected)]
        for family, make, sizes in DF_FAMILIES:
            for n in sizes:
                block.append(Query("decide", f"{family}/{n}", make(rng, n),
                                   checks=(("builds",),)))
        blocks.append(block)
    return blocks
