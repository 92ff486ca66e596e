import dataclasses
import io
import math

import pytest

import hamnt.family_codes
from hamnt import (Automorphism, ClauseResult, GeneratorSet, HammingScheme,
                   Vertex, classify_theorem, closure, translation, vertex_to_text)
from hamnt.cli import main
from hamnt.family_codes import build_family, verify_family
from hamnt.transitivity import CASE2, VERDICT_NONFIXING
from helpers import count_sifts


def words(code):
    return {vertex_to_text(w) for w in code.words}


def test_build_family_m4():
    inst = build_family(4)
    assert words(inst.C) == {"0000", "1111"}
    assert words(inst.U) == {"0000", "0101", "1010", "1111"}
    assert inst.witness == translation(inst.scheme.vertex([1, 0, 1, 0]))


def test_build_family_m6():
    inst = build_family(6)
    assert words(inst.C) == {"000000", "011011", "101101", "110110"}
    assert len(inst.U) == 8
    assert inst.witness == translation(inst.scheme.vertex([1, 0, 0, 1, 0, 0]))
    moved = inst.C.image(inst.witness)
    assert not (set(moved.words) & set(inst.C.words))


def test_build_family_size_and_distance_invariants():
    for m in (4, 6, 8, 10):
        inst = build_family(m)
        h = m // 2
        assert len(inst.U) == 2 ** h
        assert len(inst.C) == 2 ** (h - 1)
        assert set(inst.C.words) < set(inst.U.words)
        assert inst.U.min_distance == 2
        assert inst.C.min_distance == 4
        assert len(inst.C.neighbour_set) == 2 ** h * h
        assert inst.witness == translation(
            inst.scheme.vertex([1] + [0] * (h - 1) + [1] + [0] * (h - 1)))


def test_build_family_rejects_bad_m():
    for m in (2, 3, 5, 7):
        with pytest.raises(ValueError):
            build_family(m)


def test_autC_closure_order_formula():
    for m in (4, 6):
        inst = build_family(m)
        expected = len(inst.C) * math.factorial(m // 2) * 2
        assert len(closure(inst.autC_gens)) == expected



@pytest.mark.parametrize("m", range(4, 13, 2))
def test_generators_match_the_construction_spelled_out(m):
    # translations by doubled words, and coordinate permutations as image
    # lists: (i i+1)(i+h i+1+h) for i < h-1, the half swap, the column swap
    scheme, h = HammingScheme(m, 2), m // 2

    def doubled(*ones):
        beta = [int(j in ones) for j in range(h)]
        return translation(Vertex(scheme, tuple(beta + beta)))

    def coords(images):
        return Automorphism.from_coord_perm(scheme, images)

    k_gens = [coords([j + 1 if j % h == i else j - 1 if j % h == i + 1 else j
                      for j in range(m)]) for i in range(h - 1)]
    k_gens.append(coords([(j + h) % m for j in range(m)]))
    column = coords([h if j == 0 else 0 if j == h else j for j in range(m)])
    if m == 4:
        assert [x.coord_perm for x in k_gens + [column]] == [
            (1, 0, 3, 2), (2, 3, 0, 1), (2, 1, 0, 3)]
    inst = build_family(m)
    assert inst.autC_gens.generators == tuple(
        [doubled(i, i + 1) for i in range(h - 1)] + k_gens)
    assert inst.stab_gens.generators == tuple(
        [doubled(i) for i in range(h)] + k_gens + [column])
    assert inst.witness == doubled(0)

def test_verify_family_m4_exhaustive():
    report = verify_family(4, exhaustive=True)
    assert report.all_pass
    assert report.stabilizer_order == 192
    assert len(report.clauses) == 7
    # the expected group N_W >| S_4 comes from five generators through
    # Schreier-Sims; the detail text is the one the element list gave
    assert report.clauses[-1].detail == (
        "search order 192, translations by even-weight words with all "
        "coordinate permutations order 192")


def test_verify_family_m8_exhaustive():
    # the full check of the stabilizer N_U >| (S_2 wr S_4) at the frontier
    report = verify_family(8, exhaustive=True)
    assert report.all_pass
    assert report.stabilizer_order == 6144
    clause = report.clauses[-1]
    assert clause.clause == "stabilizer_matches_expected" and clause.passed


@pytest.mark.parametrize("m", [10, 12, 16, 20])
def test_verify_family_frontier(m):
    # the exhaustive check past the old default group cap: every clause
    # passes, and the stabilizer N_U >| (S_2 wr S_h) has order 4^h * h!
    # (122,880 at m = 10 and 3,805,072,588,800 at m = 20)
    h = m // 2
    order = 4**h * math.factorial(h)
    report = verify_family(m, exhaustive=True)
    assert all(clause.passed for clause in report.clauses) and report.all_pass
    assert len(report.clauses) == 7
    assert report.stabilizer_order == order
    assert report.clauses[-1].detail == \
        f"search order {order}, closure of stab_gens order {order}"


def test_verify_family_m6_non_exhaustive():
    report = verify_family(6)
    assert report.all_pass
    assert report.stabilizer_order is None
    assert len(report.clauses) == 6


def test_verify_family_m10_clauses():
    report = verify_family(10)
    assert report.all_pass
    assert [c.clause for c in report.clauses] == [
        "min_distances", "neighbour_set_formula", "neighbour_sets_equal",
        "generators_fix_code", "neighbour_transitive", "witness_moves_code"]


def test_verify_family_report_json():
    report = verify_family(4, exhaustive=True)
    data = report.to_json()
    assert data["all_pass"] is True
    assert data["stabilizer_order"] == 192
    assert data["clauses"] == [{"clause": c.clause, "pass": c.passed, "detail": c.detail}
                               for c in report.clauses]


def test_classify_family_m4_nonfixing_case2():
    inst = build_family(4)
    report = classify_theorem(inst.C)
    assert report.verdict == VERDICT_NONFIXING
    assert report.theorem_case == CASE2


def test_pre_codeword_bridge():
    # |Pre(alpha, witness)| = m/2 for every codeword of each family member
    from hamnt import pre_codewords
    for m in (4, 6, 8):
        inst = build_family(m)
        for alpha in inst.C.words:
            assert len(pre_codewords(inst.C, alpha, inst.witness)) == m // 2


def test_stab_gens_closure_is_stabilizer_sized_m6():
    inst = build_family(6)
    els = closure(inst.stab_gens)
    assert len(els) == 384
    nbrs = set(inst.C.neighbour_set)
    for x in els:
        assert {x.apply(v) for v in nbrs} == nbrs


def test_family_code_is_linear():
    from hamnt import is_linear_binary
    for m in (4, 6, 8):
        inst = build_family(m)
        assert is_linear_binary(inst.U)
        assert is_linear_binary(inst.C)


@pytest.mark.parametrize("m", [6, 8])
def test_stabilizer_clause_fails_on_a_proper_subgroup(m, monkeypatch):
    # without the column swap, stab_gens generate a proper subgroup of the
    # stabilizer: Schreier-Sims, bounded by the search order, runs to the
    # end and the clause reports the true order; with a generator that
    # moves the neighbour set, the clause fails on the unbounded order
    real = build_family(m)
    scheme = real.scheme
    order = 2**m * math.factorial(m // 2)
    for gens, inside in ((real.stab_gens.generators[:-1], True),
                         (real.stab_gens.generators + (translation(scheme.unit(0)),), False)):
        expected = GeneratorSet(scheme, gens)
        monkeypatch.setattr(hamnt.family_codes, "build_family",
                            lambda m: dataclasses.replace(real, stab_gens=expected))
        report = verify_family(m, exhaustive=True)
        true_order = len(closure(expected)) if m == 6 else \
            hamnt.schreier_sims(expected).order
        assert (true_order < order) is inside
        clause = report.clauses[-1]
        assert not clause.passed and report.stabilizer_order == order
        assert clause.detail == f"search order {order}, closure of stab_gens order {true_order}"


def test_stabilizer_clause_certifies_in_few_sifts(monkeypatch):
    # bounded by the search order, clause 7's Schreier-Sims certifies
    # stab_gens by its random phase; the deterministic loop alone sifts
    # 136 Schreier generators at m = 8
    sifts, counts = count_sifts(monkeypatch), []
    real_ss = hamnt.family_codes.schreier_sims

    def counted(gens, bound=None):
        sifts.clear()
        chain = real_ss(gens, bound)
        counts.append(len(sifts))
        return chain

    monkeypatch.setattr(hamnt.family_codes, "schreier_sims", counted)
    assert verify_family(8, exhaustive=True).all_pass
    assert len(counts) == 1 and counts[0] <= 20, counts


def test_code_clauses_fail_on_a_moving_generator_and_a_fixing_witness(monkeypatch):
    # clause 4 fails when a generator of Aut(C) moves C, clause 6 when the
    # witness fixes C; every other clause still passes, and the command
    # exits 1
    real = build_family(6)
    gens = real.autC_gens.generators + (real.witness,)
    for inst, failing, detail in (
            (dataclasses.replace(real, autC_gens=GeneratorSet(real.scheme, gens)),
             "generators_fix_code", f"{len(gens)} generators"),
            (dataclasses.replace(real, witness=Automorphism.identity(real.scheme)),
             "witness_moves_code", "stabilizes_neighbours=True, moves_code=False")):
        monkeypatch.setattr(hamnt.family_codes, "build_family", lambda m: inst)
        report = verify_family(6)
        assert [c for c in report.clauses if not c.passed] == [
            ClauseResult(failing, False, detail)]
        assert main(["family", "--m", "6"], out=io.StringIO(), err=io.StringIO()) == 1
