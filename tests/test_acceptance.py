"""Acceptance suite: one test per criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assertion failure is a FAIL for that criterion.
"""

import itertools
import random
import time

from hamnt import (CASE2, VERDICT_FIXED, VERDICT_NONFIXING, VIOLATION, Code,
                   HammingScheme, classify_theorem, closure,
                   common_neighbours, distance, enumerate_full_group,
                   enumerate_triples, setwise_stabilizer,
                   translation, verify_family, verify_pre_structure)
from hamnt.family_codes import build_family
from helpers import (brute_stabilizer_order, random_automorphism,
                     random_code_min_distance)


def _report(number: int, summary: str):
    print(f"ACCEPTANCE {number}: PASS - {summary}")


def test_criterion_1_family_m4_exhaustive():
    start = time.perf_counter()
    inst = build_family(4)
    assert len(inst.C) == 2
    assert inst.C.min_distance == 4
    nbrs = inst.C.neighbour_set
    assert len(nbrs) == 8
    assert inst.U.neighbour_set == nbrs

    stab = setwise_stabilizer(nbrs, inst.scheme)
    assert len(stab) == 192
    assert brute_stabilizer_order(inst.scheme, nbrs) == 192

    report = classify_theorem(inst.C)
    assert report.transitive_on_neighbours

    t = translation(inst.scheme.vertex([0, 1, 0, 1]))
    assert t in set(stab)
    assert inst.C.image(t) != inst.C
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"m=4: stabilizer order 192 over 384 elements, transitive, "
               f"translation(0101) moves C ({elapsed:.2f}s)")


def test_criterion_2_family_m6_exhaustive():
    start = time.perf_counter()
    inst = build_family(6)
    assert len(inst.C) == 4
    assert inst.C.min_distance == 4
    nbrs = inst.C.neighbour_set
    assert len(nbrs) == 24

    stab = setwise_stabilizer(nbrs, inst.scheme)
    assert len(stab) == 384
    # independent oracle: naive filter over all 46080 group elements
    assert brute_stabilizer_order(inst.scheme, nbrs) == 384

    report = classify_theorem(inst.C)
    assert report.verdict == VERDICT_NONFIXING
    assert report.theorem_case == CASE2

    family_report = verify_family(6, exhaustive=True)
    assert family_report.all_pass
    assert family_report.stabilizer_order == 384
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"m=6: stabilizer order 384 over 46080 elements, "
               f"NONFIXING_WITNESS/CASE2 ({elapsed:.2f}s)")


def test_criterion_3_pre_codeword_law():
    pairs = 0
    for m in (4, 6):
        inst = build_family(m)
        non_code = [u for u in inst.U.words if u not in inst.C]
        for alpha in inst.C.words:
            for u in non_code:
                y = translation(u)
                report = verify_pre_structure(inst.C, alpha, y)
                assert len(report.pre_set) == m // 2
                assert report.all_pass
                pairs += 1
    _report(3, f"|Pre| = m/2 and full structure on all {pairs} (alpha, y) pairs")


def test_criterion_4_lemma_suite_exhaustive():
    start = time.perf_counter()
    for scheme in (HammingScheme(4, 2), HammingScheme(3, 3), HammingScheme(2, 4)):
        verts = list(scheme.vertices())
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                if distance(u, v) == 2:
                    assert len(common_neighbours(u, v)) == 2
        triples = {(t.alpha, t.nu, t.beta) for t in enumerate_triples(scheme)}
        base = sorted(triples)[0]
        reached = {(x.apply(base[0]), x.apply(base[1]), x.apply(base[2]))
                   for x in enumerate_full_group(scheme)}
        assert reached == triples
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, f"two-common-neighbours and one-triple-orbit exhaustive on "
               f"H(4,2), H(3,3), H(2,4) ({elapsed:.2f}s)")


def test_criterion_5_fixed_spot_checks():
    rep5 = Code.from_entries(HammingScheme(5, 2), [[0] * 5, [1] * 5])
    assert classify_theorem(rep5).verdict == VERDICT_FIXED

    rep43 = Code.from_entries(HammingScheme(4, 3), [[0] * 4, [1] * 4])
    assert classify_theorem(rep43).verdict == VERDICT_FIXED

    rng = random.Random(0)
    h52 = HammingScheme(5, 2)
    sampled = 0
    for _ in range(25):
        code = random_code_min_distance(rng, h52, rng.choice((2, 3)), 3)
        assert classify_theorem(code).verdict == VERDICT_FIXED
        sampled += 1
    _report(5, f"delta>=5, delta=4/q=3, and {sampled} sampled q-even/m-odd "
               f"codes all FIXED")


def test_criterion_6_theorem_consistency_sweep():
    start = time.perf_counter()
    h42 = HammingScheme(4, 2)
    verts = list(h42.vertices())
    swept = 0
    for pair in itertools.combinations(verts, 2):
        code = Code(h42, pair)
        if code.min_distance >= 3:
            assert classify_theorem(code).theorem_case != VIOLATION
            swept += 1
    assert swept == 40
    # no size-3 code of H(4,2) has min distance >= 3; the size-3 sweep is
    # complete exactly when this enumeration confirms that emptiness
    triples = [c for c in itertools.combinations(verts, 3)
               if Code(h42, c).min_distance >= 3]
    assert triples == []

    rng = random.Random(0)
    h33 = HammingScheme(3, 3)
    for _ in range(1000):
        code = random_code_min_distance(rng, h33, rng.choice((2, 3)), 3)
        assert classify_theorem(code).theorem_case != VIOLATION
        swept += 1
    elapsed = time.perf_counter() - start
    _report(6, f"no VIOLATION over {swept} codes "
               f"(40 exhaustive in H(4,2), 1000 random in H(3,3); {elapsed:.1f}s)")


def test_criterion_7_group_law_suite():
    rng = random.Random(0)
    for scheme in (HammingScheme(3, 2), HammingScheme(3, 3)):
        verts = list(scheme.vertices())
        for _ in range(1000):
            x = random_automorphism(rng, scheme)
            y = random_automorphism(rng, scheme)
            z = x.compose(y)
            xinv = x.inverse()
            for v in verts:
                assert z.apply(v) == y.apply(x.apply(v))
                assert xinv.apply(x.apply(v)) == v

    inst = build_family(6)
    assert len(closure(inst.autC_gens)) == 48
    _report(7, "compose/inverse extensional on 2x1000 random pairs; "
               "m=6 autC closure order 48")


def test_criterion_8_non_exhaustive_scaling():
    times = {}
    for m in (8, 10, 12):
        start = time.perf_counter()
        report = verify_family(m, exhaustive=False)
        elapsed = time.perf_counter() - start
        assert report.all_pass
        assert len(report.clauses) == 6
        assert elapsed < 60.0
        times[m] = elapsed
    summary = ", ".join(f"m={m}: {t:.2f}s" for m, t in times.items())
    _report(8, f"clauses 1-6 pass non-exhaustively ({summary})")
