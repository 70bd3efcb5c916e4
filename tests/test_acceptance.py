"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines
unconditionally).  Each criterion is a single test; the printed line
summarizes what was checked and any sampling statistics.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from qmgraph.autos import (apply, enum_labelled_graph_autos,
                           valid_aut0_gens)
from qmgraph.cli import corpus_dir, run_examples
from qmgraph.codes import (code, code_qm, homogenise, is_generic, theta,
                           weighted_z_code)
from qmgraph.decide import (EXISTS_CONSTRUCTIVE, Verdict, WitnessSpec, decide,
                            witness)
from qmgraph.evaluators import (Code, SumBothSides, average, build, evaluate,
                                stabilizer_count)
from qmgraph.graphs import expand, parse_graph, tau_classes
from qmgraph.scl import (HEURISTIC, RIGOROUS, DefectEstimate, estimate_defect,
                         scl_aut_lower_bound)
from qmgraph.words import NormalWord, parse_word, random_word

from conftest import (CLOSURE_CASES, b_graph, closure_canonical,
                      closure_words, edgeless, figure1_raag, lambda_raag, ngon,
                      path_graph)

WITNESS = ("a^4 b a^2 b a^2 b a^3 b a b a b a^3 b a b a b "
           "a^2 b a^2 b a^2 b")


def report(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def z5z3_setting():
    g = expand(parse_graph("vertex a Z/5\nvertex b Z/3"))
    return g, (frozenset({0}), frozenset({1}))


def test_criterion_01_worked_example():
    g, part = z5z3_setting()
    x = parse_word(g, WITNESS)
    ok = code(x, part, "A") == (1, 2, 1, 2, 1, 2, 3)
    ok &= code(x.inverse(), part, "A") == (3, 2, 1, 2, 1, 2, 1)
    ok &= theta(x, part, "A", (1, 2, 1)) == 1
    ok &= theta(x.inverse(), part, "A", (1, 2, 1)) == 1
    ok &= code_qm(x, part, "A", (1, 2, 1)) == 0
    ok &= theta(x, part, "A", (1, 2, 3)) == 1
    ok &= code_qm(x, part, "A", (1, 2, 3)) == 1
    ok &= all(code_qm(x ** n, part, "A", (1, 2, 3)) == n
              for n in range(1, 33))
    h = homogenise(lambda w: code_qm(w, part, "A", (1, 2, 3)), x,
                   max_n=32, max_period=4)
    ok &= h.exact and h.value == 1
    report(1, ok, "codes, pattern counts, f(g^n)=n, exact limit 1")


def test_criterion_02_weighted_code_example():
    g = expand(parse_graph("vertex a Z\nvertex b Z/3"))
    part = (frozenset({0}), frozenset({1}))
    letters = []
    for e in (8, -4, -4, -1, 7, 2, -3):
        letters.append((0, e))
        letters.append((1, 1))
    x = NormalWord(g, letters[:-1])
    got = weighted_z_code(x, part)
    report(2, got == (8, 9, 9, 3), f"weighted code {got}")


def test_criterion_03_genericity():
    def reverse_occurs(z):
        rev = z[::-1]
        k = len(z)
        doubled = z + z
        return any(doubled[i:i + k] == rev for i in range(len(doubled) - k + 1))

    ok = is_generic((1, 2, 3))
    checked = 0
    for k in range(1, 6):
        for z in product(range(1, 5), repeat=k):
            ok &= is_generic(z) == (not reverse_occurs(z))
            if k <= 2:
                ok &= not is_generic(z)
            checked += 1
    report(3, ok, f"{checked} tuples vs reverse-occurrence oracle")


def test_criterion_04_class_structure():
    g1 = expand(figure1_raag())
    tc1 = tau_classes(g1)
    c1 = sorted(sorted(g1.names_of(c)) for c in tc1.classes)
    ok = c1 == [["v0", "v4"], ["v1", "v2", "v3"]]
    ok &= sorted(tc1.minimal_classes()) == [0, 1]

    g2 = expand(lambda_raag())
    tc2 = tau_classes(g2)
    c2 = sorted(sorted(g2.names_of(c)) for c in tc2.classes)
    ok &= c2 == [["w0"], ["w1", "w2", "w3"], ["w4"], ["w5", "w6"]]
    non_minimal = [tuple(sorted(g2.names_of(tc2.classes[i])))
                   for i in range(len(tc2.classes))
                   if i not in tc2.minimal_classes()]
    ok &= non_minimal == [("w4",)]
    report(4, ok, "two-graph class partition and minimality")


def test_criterion_05_verdict_table():
    bad, lines = run_examples(corpus_dir())
    ok = (bad == 0 and lines[-1] == "all verdicts match"
          and len(lines) - 1 >= 27
          and all(l.endswith("OK") for l in lines[:-1]))
    report(5, ok, f"{len(lines) - 1} corpus verdicts, {bad} mismatches")


def _constructive_pool():
    """Five constructive graphs with averaged evaluators and generators."""
    pool = []
    for graph, npairs in [(edgeless(["Z/5", "Z/3"]), 60),
                          (path_graph(["Z/2", "Z/4", "Z/3"]), 40),
                          (b_graph(4, "Z/2"), 40),
                          (ngon(5, "Z/2"), 30),
                          (lambda_raag(), 30)]:
        v = decide(graph)
        assert v.status == EXISTS_CONSTRUCTIVE
        g = v.graph
        spec = v.witness
        a = average(build(g, spec.cone, spec.partition, spec.kind,
                          homog_params=(10, 2)))
        gens = list(valid_aut0_gens(g)) + list(enum_labelled_graph_autos(g))
        pool.append((g, a, gens, npairs))
    return pool


POOL = _constructive_pool()


def test_criterion_06_aut_invariance():
    rng = random.Random(20260826)
    pairs = skipped = 0
    families = set()
    ok = True
    for g, a, gens, npairs in POOL:
        for _ in range(npairs):
            gen = rng.choice(gens)
            x = random_word(g, rng.randrange(2, 5), seed=rng.randrange(10**6))
            vx = evaluate(a, x)
            vy = evaluate(a, apply(gen, x))
            pairs += 1
            if not (vx.exact and vy.exact):
                skipped += 1
                continue
            ok &= vx.value == vy.value
            families.add(type(gen).__name__)
    ok &= pairs >= 200 and skipped < 0.05 * pairs and len(families) == 4
    report(6, ok, f"{pairs} pairs, {skipped} skipped, "
                  f"families={sorted(families)}")


def test_criterion_07_homogeneity_conjugacy_letters():
    rng = random.Random(714)
    checks = skipped = 0
    ok = True
    for g, a, _, _ in POOL:
        for _ in range(4):
            x = random_word(g, rng.randrange(2, 4), seed=rng.randrange(10**6))
            y = random_word(g, rng.randrange(1, 4), seed=rng.randrange(10**6))
            vx = evaluate(a, x)
            if not vx.exact:
                skipped += 1
                continue
            for n in (2, 3):
                vn = evaluate(a, x ** n)
                if not vn.exact:
                    skipped += 1
                    continue
                ok &= vn.value == n * vx.value
                checks += 1
            vc = evaluate(a, y * x * y.inverse())
            if vc.exact:
                ok &= vc.value == vx.value
                checks += 1
            else:
                skipped += 1
        for v in range(min(3, g.n)):
            lv = evaluate(a, NormalWord.letter(g, v))
            ok &= lv.exact and lv.value == 0
            checks += 1
    ok &= checks > 0 and skipped < 0.05 * (checks + skipped)
    report(7, ok, f"{checks} identities, {skipped} skipped")


def test_criterion_08_restriction_scaling():
    ok = True
    # square with order-3 labels: checked construction
    g = expand(ngon(4, "Z/3"))
    cone, p = frozenset({0, 2}), (frozenset({0}), frozenset({2}))
    e = build(g, cone, p, SumBothSides((1, 2, 3)), homog_params=(12, 4))
    x = parse_word(g, "v0 v2 v0^2 v2 v0^3 v2")
    plain, summed = evaluate(e, x), evaluate(average(e), x)
    ok &= plain.exact and summed.exact
    ok &= summed.value == stabilizer_count(g, cone, p) * plain.value

    # two-hub free-abelian graph: base is free of rank 2, so build unchecked
    g = expand(figure1_raag())
    cone, p = frozenset({0, 4}), (frozenset({0}), frozenset({4}))
    e = build(g, cone, p, SumBothSides((1, 2, 3)), homog_params=(12, 4),
              unchecked=True)
    x = parse_word(g, "v0 v4 v0^2 v4 v0^3 v4")
    plain, summed = evaluate(e, x), evaluate(average(e), x)
    j = stabilizer_count(g, cone, p)
    ok &= plain.exact and summed.exact
    ok &= summed.value == j * plain.value and j == 12
    report(8, ok, "averaged = |J| x unaveraged on both graphs")


def test_criterion_09_naturality():
    small = expand(parse_graph("vertex a Z/2\nvertex b Z/3"))
    big = expand(parse_graph("vertex v Z/4\nvertex w Z/9"))
    ps = (frozenset({0}), frozenset({1}))
    pb = (frozenset({0}), frozenset({1}))

    def sub_words(max_syll):
        out = []

        def grow(seq, last):
            if seq:
                out.append(tuple(seq))
            if len(seq) == max_syll:
                return
            for vtx, exps in ((0, (1,)), (1, (1, 2))):
                if vtx == last:
                    continue
                for e in exps:
                    grow(seq + [(vtx, e)], vtx)

        grow([], None)
        return out

    zs = [z for k in range(1, 4) for z in product(range(1, 4), repeat=k)]
    ok = True
    checked = 0
    for letters in sub_words(6):
        xs = NormalWord(small, list(letters))
        xb = NormalWord(big, [(vtx, (2 if vtx == 0 else 3) * e)
                              for vtx, e in letters])
        for side in "AB":
            ok &= code(xs, ps, side) == code(xb, pb, side)
            for z in zs:
                ok &= theta(xs, ps, side, z) == theta(xb, pb, side, z)
                checked += 1
    report(9, ok, f"{checked} theta comparisons under v^2, w^3 inclusion")


def test_criterion_10_normal_form_oracle():
    ok = True
    checked = 0
    for graph, exps, max_len in CLOSURE_CASES:
        g = expand(graph)
        for letters in closure_words(g, exps, max_len):
            ok &= NormalWord(g, letters).letters == \
                closure_canonical(g, letters)
            checked += 1
    report(10, ok, f"{checked} words vs rewriting closure on "
                   f"{len(CLOSURE_CASES)} graphs")


def test_criterion_11_scl_pipeline():
    g, part = z5z3_setting()
    e = build(g, frozenset({0, 1}), part, Code("A", (1, 2, 3)),
              homog_params=(32, 4))
    x = parse_word(g, WITNESS)
    given = DefectEstimate(Fraction(0), 0, 0, 0, user_bound=Fraction(12),
                           vacuous=True)
    bound, mode = scl_aut_lower_bound(e, x, given)
    ok = bound == Fraction(1, 24) and mode == RIGOROUS

    sampled = estimate_defect(e, samples=30, max_len=12, seed=7)
    b2, m2 = scl_aut_lower_bound(e, x, sampled)
    ok &= m2 == HEURISTIC and b2 > 0

    zero = parse_word(g, "a b")
    b3, _ = scl_aut_lower_bound(e, zero, given)
    ok &= b3 == 0
    report(11, ok, f"1/24 rigorous; heuristic flags itself; zero word -> 0")


def test_standin_pairwise_non_proportionality():
    # rank-2 value matrices for three distinct generic patterns
    g, part = z5z3_setting()
    tuples = [(1, 2, 3), (1, 3, 2), (1, 2, 4)]
    assert all(is_generic(z) for z in tuples)
    evals, words = [], []
    for z in tuples:
        spec = WitnessSpec(frozenset({0, 1}), part, Code("A", z))
        v = Verdict(EXISTS_CONSTRUCTIVE, spec, [], g)
        words.append(witness(g, v))
        evals.append(build(g, spec.cone, spec.partition, spec.kind,
                           homog_params=(16, 4)))
    rows = []
    for e in evals:
        row = [evaluate(e, x) for x in words]
        assert all(r.exact for r in row)
        rows.append([r.value for r in row])
    ok = True
    for i in range(3):
        for j in range(i + 1, 3):
            minors = [rows[i][a] * rows[j][b] - rows[i][b] * rows[j][a]
                      for a in range(3) for b in range(3) if a < b]
            ok &= any(m != 0 for m in minors)
    report("stand-in", ok, "pairwise rank-2 value matrices, 3 patterns")
