"""The lemma suite's generator path: pinned outputs, H(8,2), the
certification of the triple-orbit generators, and the orbit-stabilizer
counts of the triple orbit and the pre-codeword witnesses."""

import dataclasses
import io
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import hamnt.chain
import hamnt.code_model
import hamnt.hamming_core
import hamnt.lemmas
import hamnt.precodeword
import hamnt.transitivity
import hamnt.wreath_group
from hamnt import (Automorphism, ClauseResult, Code, GeneratorSet, HammingScheme,
                   build_family, enumerate_full_group, full_group_generators,
                   group_order, neighbour_stabilizer, stabilizes_set)
from hamnt.cli import main
from hamnt.lemmas import _pair_walk, _triple_stabilizer_order, _witnesses, run_lemma_suite
from helpers import (index_of, listed_witnesses, random_code_min_distance, triple_entries,
                     tuple_orbit, tuple_pair_walk, vertex_pre_structure)

# `lemmas --format json` on each (m, q, seed), keyed "m,q,seed", as
# [exit code, stdout].  The keys with m, q in H(1..6,2), H(1..4,3) and
# H(2,4) were recorded at commit f4990cd, where the triple orbit streamed
# the full group and Aut(C) was listed element by element; H(7,2),
# H(5,3), H(6,3), H(4,4), H(3,5) and H(2,6) at seed 0 at commit 9c6e197,
# where an all-pairs scan counted the distance-2 pairs.
PINNED = json.loads((Path(__file__).parent / "data" / "lemmas_pinned.json").read_text())


def counting(real, name, callers):
    """real, counting its calls in callers by (name, calling module)."""
    def wrapper(*args):
        callers[name, sys._getframe(1).f_globals["__name__"]] += 1
        return real(*args)
    return wrapper


def triple_indices(t, m, q):
    """A triple's flat 3m entries as its three vertex indices."""
    return tuple(index_of(t[k:k + m], q) for k in (0, m, 2 * m))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_lemmas_json_matches_pinned_output(key):
    m, q, seed = key.split(",")
    got = run(["lemmas", "--m", m, "--q", q, "--seed", seed, "--format", "json"])
    assert got == (PINNED[key][0], PINNED[key][1], "")


H82_DETAILS = [
    "3584 distance-2 pairs",
    "orbit 14336 of 14336 triples under 10321920 elements",
    "7224 code automorphisms over 6 sampled codes",
    "verified 40 of 24576 discovered (alpha, y) pairs",
]


def test_lemmas_h82_passes_under_default_cap():
    code, out, _ = run(["lemmas", "--m", "8", "--q", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert [c["detail"] for c in data["checks"]] == H82_DETAILS


def test_lemmas_h82_lists_no_group(monkeypatch):
    def listing(*args, **kwargs):
        raise AssertionError("the lemma suite listed a group")

    monkeypatch.setattr(hamnt.transitivity, "setwise_stabilizer", listing)
    monkeypatch.setattr(hamnt.chain, "_elements", listing)
    code, out, _ = run(["lemmas", "--m", "8", "--q", "2", "--format", "json"])
    assert code == 0
    assert [c["detail"] for c in json.loads(out)["checks"]] == H82_DETAILS


@pytest.mark.parametrize("m, q", [(2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (5, 2)])
def test_triple_orbit_size_matches_breadth_first_orbit(m, q):
    """|G| / |G_t| against the breadth-first orbit of t under the standard
    generators, on entry tuples (helpers.tuple_orbit), for the first triple
    (the one the suite takes) and three random ones; the orbit is every
    triple."""
    scheme = HammingScheme(m, q)
    triples = list(triple_entries(m, q))
    gens = full_group_generators(scheme).generators
    for t in [triples[0]] + random.Random(m * 10 + q).sample(triples, 3):
        stab = _triple_stabilizer_order(scheme, triple_indices(t, m, q))
        assert group_order(scheme) // stab == len(tuple_orbit(gens, t)) == len(triples)


def witness_codes():
    """Seeded codes with delta >= 3 in H(4,2) (of 2 words, the most it
    admits), H(5,2), H(3,3) and H(4,3), the repetition code of H(3,3)
    (216 witnesses) and the family codes."""
    rng = random.Random(11)
    codes = []
    for m, q, sizes in [(4, 2, (2,)), (5, 2, (2, 3)), (3, 3, (2, 3)), (4, 3, (2, 3))]:
        scheme = HammingScheme(m, q)
        codes.append([random_code_min_distance(rng, scheme, rng.choice(sizes), 3)
                      for _ in range(6)])
    codes.append([Code.from_entries(HammingScheme(3, 3), [[0] * 3, [1] * 3, [2] * 3])])
    codes.extend([build_family(m).C] for m in (4, 6, 8))
    return codes


@pytest.mark.parametrize("codes, count", zip(
    witness_codes(), [0, 0, 432, 0, 216, 288, 768, 24576]),
    ids=["H42", "H52", "H33", "H43", "rep33", "family4", "family6", "family8"])
def test_witness_count_and_first_pairs_match_listing(codes, count):
    listed = listed_witnesses(codes)
    assert len(listed) == count
    stabs = [(code, neighbour_stabilizer(code)) for code in codes if code.min_distance >= 3]
    for cap in sorted({0, 1, 7, 40, count - 1, count, count + 1} - {-1}):
        first, total = _witnesses(stabs, cap)
        assert total == count
        assert first == listed[:cap]


def no_coordinate_permutations(scheme):
    """S_q on coordinate 0: the standard generators that fix every coordinate."""
    ident = tuple(range(scheme.m))
    return GeneratorSet(scheme, tuple(x for x in full_group_generators(scheme).generators
                                      if x.coord_perm == ident))


def even_coordinate_permutations(scheme):
    """S_2 wr A_4, of index 2 in the full group of H(4,2) (the 3-cycles
    conjugate the coordinate-0 swap to every coordinate).  It is still
    transitive on the triples, whose stabilizer is the odd swap (2 3)."""
    return GeneratorSet(scheme, no_coordinate_permutations(scheme).generators + (
        Automorphism.from_coord_perm(scheme, (1, 2, 0, 3)),
        Automorphism.from_coord_perm(scheme, (0, 2, 3, 1))))


@pytest.mark.parametrize("subgroup, detail", [
    (no_coordinate_permutations, "orbit 2 of 192 triples under 384 elements"),
    (even_coordinate_permutations, "orbit 192 of 192 triples under 384 elements"),
], ids=["no_coordinate_permutations", "even_coordinate_permutations"])
def test_triple_orbit_fails_under_proper_subgroup(subgroup, detail, monkeypatch):
    monkeypatch.setattr(hamnt.lemmas, "full_group_generators", subgroup)
    code, out, _ = run(["lemmas", "--m", "4", "--q", "2", "--format", "json"])
    assert code == 1
    clause = json.loads(out)["checks"][1]
    assert clause == {"clause": "triples_single_orbit", "pass": False, "detail": detail}



def test_triple_orbit_fails_when_a_triple_is_missing(monkeypatch):
    # the walk misses the last ordered pair (1111, 1100), and with it the
    # two triples through that pair; 1111 is vertex 15 and 1100 vertex 12
    real = hamnt.lemmas._index_shell

    def shell(x, steps, pairs):
        ring = real(x, steps, pairs)
        return [y for y in ring if y != 12] if x == 15 else ring

    monkeypatch.setattr(hamnt.lemmas, "_index_shell", shell)
    code, out, _ = run(["lemmas", "--m", "4", "--q", "2", "--format", "json"])
    assert code == 1
    assert json.loads(out)["checks"][1] == {
        "clause": "triples_single_orbit", "pass": False,
        "detail": "orbit 192 of 190 triples under 384 elements"}


def test_two_common_neighbours_fails_when_a_neighbour_is_missing(monkeypatch):
    # each ball misses its first neighbour, so some pairs share fewer than
    # two neighbours, and the triples through them are missing too
    real = hamnt.lemmas._index_ball
    monkeypatch.setattr(hamnt.lemmas, "_index_ball", lambda x, steps: real(x, steps)[1:])
    code, out, _ = run(["lemmas", "--m", "4", "--q", "2", "--format", "json"])
    assert code == 1
    assert json.loads(out)["checks"][:2] == [
        {"clause": "two_common_neighbours", "pass": False,
         "detail": "48 distance-2 pairs"},
        {"clause": "triples_single_orbit", "pass": False,
         "detail": "orbit 192 of 96 triples under 384 elements"}]


# every (m, q) with m >= 2 and q^m <= 729 that the default caps admit; at
# m = 1 there is no pair, as the pinned H(1,3) outputs show
ORACLE_SCHEMES = [(m, 2) for m in range(2, 9)] + [(m, 3) for m in range(2, 7)] + [
    (2, 4), (3, 4), (4, 4), (2, 5), (3, 5), (2, 6), (2, 7)]


@pytest.mark.parametrize("m, q", ORACLE_SCHEMES)
def test_pair_walk_matches_closed_form(m, q, monkeypatch):
    """The walk counts q^m C(m,2) (q-1)^2 / 2 distance-2 pairs, each with
    two common neighbours, and twice as many triples as ordered pairs;
    the triple it hands to the orbit-stabilizer count is the first one
    helpers.triple_entries yields, as vertex indices."""
    real = hamnt.lemmas._triple_stabilizer_order
    seen = []

    def recorded(scheme, triple):
        seen.append(triple)
        return real(scheme, triple)

    monkeypatch.setattr(hamnt.lemmas, "_triple_stabilizer_order", recorded)
    ordered = q**m * math.comb(m, 2) * (q - 1) ** 2
    report = run_lemma_suite(m, q)
    assert report.checks[0] == ClauseResult(
        "two_common_neighbours", True, f"{ordered // 2} distance-2 pairs")
    assert report.checks[1].passed
    assert report.checks[1].detail.startswith(f"orbit {2 * ordered} of {2 * ordered} triples")
    assert seen == [triple_indices(next(triple_entries(m, q)), m, q)]


@pytest.mark.parametrize("m, q", ORACLE_SCHEMES)
def test_pair_walk_matches_tuple_walk(m, q):
    """The index walk gives the tuple walk's whole count of sizes, and so
    its pair and triple counts, and its first triple t0."""
    sizes, t0 = tuple_pair_walk(m, q)
    assert _pair_walk(m, q) == (sizes, t0 and triple_indices(t0, m, q))


def test_pair_walk_builds_no_entry_tuples(monkeypatch):
    # no module binds an entry-tuple kernel, so lemmas --m 6 --q 2 builds
    # no entry tuple below the boundary; the walk and the pre-codeword
    # check call the index kernels, each from its own module
    modules = [hamnt.hamming_core, hamnt.wreath_group, hamnt.chain, hamnt.code_model,
               hamnt.precodeword, hamnt.lemmas]
    assert not [(module.__name__, name) for module in modules
                for name in ["_ball1", "_shell_entries", "_triple_entries", "_neighbours_of",
                             "_mover", "_images"] if hasattr(module, name)]
    callers = Counter()
    for module in modules:
        for name in ["_index_ball", "_index_shell"]:
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name, counting(real, name, callers))
    code, out, _ = run(["lemmas", "--m", "6", "--q", "2", "--format", "json"])
    assert [code, out] == PINNED["6,2,0"]
    assert callers["_index_shell", "hamnt.precodeword"] > 0
    assert callers["_index_shell", "hamnt.lemmas"] > 0


def test_implication_fails_when_a_code_automorphism_moves_the_neighbours(monkeypatch):
    # the implication clause tests each sampled code's Aut(C) generators
    # plus one more, the first element of the full group that moves
    # Gamma_1(C); the chains themselves, which the witnesses reuse, are
    # left as they are
    real_sample, real_fixes = hamnt.lemmas._sample_codes, hamnt.lemmas._fixes_neighbours
    sampled, injected = [], []

    def sample(*args):
        sampled.extend(real_sample(*args))
        return sampled

    def fixes(code, xs):
        moving = next(x for x in enumerate_full_group(code.scheme)
                      if not stabilizes_set(code.neighbour_set, x))
        injected.append(moving)
        return real_fixes(code, tuple(xs) + (moving,))

    monkeypatch.setattr(hamnt.lemmas, "_sample_codes", sample)
    monkeypatch.setattr(hamnt.lemmas, "_fixes_neighbours", fixes)
    code, out, _ = run(["lemmas", "--m", "4", "--q", "2", "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    pinned = json.loads(PINNED["4,2,0"][1])["checks"]
    assert len(injected) == len(sampled) == 6
    assert checks[2] == {**pinned[2], "pass": False}
    assert checks[:2] + checks[3:] == pinned[:2] + pinned[3:]


def test_pre_structure_clause_fails_when_a_witness_fails(monkeypatch):
    # the first verified witness reports one failing clause; the suite
    # still verifies all 40 and fails the clause with the same detail
    real = hamnt.lemmas._verify_pre_structures
    calls = []

    def failing_first(code, pairs):
        first = not calls
        reports = real(code, pairs)
        calls.extend(r.all_pass for r in reports)
        if first:
            reports[0] = dataclasses.replace(reports[0], clauses=reports[0].clauses + (
                ClauseResult("injected", False, "fails"),))
        return reports

    monkeypatch.setattr(hamnt.lemmas, "_verify_pre_structures", failing_first)
    code, out, _ = run(["lemmas", "--m", "4", "--q", "2", "--format", "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    pinned = json.loads(PINNED["4,2,0"][1])["checks"]
    assert calls == [True] * 40
    assert checks[3] == {**pinned[3], "pass": False}
    assert checks[:3] == pinned[:3]


@pytest.mark.parametrize("m, q, cap, verified", [
    (6, 2, 10**6, 768), (4, 3, 10**6, 0), (8, 2, 40, 40)])
def test_pre_structure_matches_vertex_oracle_on_suite_witnesses(
        m, q, cap, verified, monkeypatch):
    """The (alpha, y) pairs the suite verifies at seed 0, up to cap of
    them, give the same report as the Vertex-based oracle.  H(6,2) and
    H(4,3) verify every pair they discover; H(8,2) the first 40 of 24576."""
    monkeypatch.setattr(hamnt.lemmas, "MAX_PRE_VERIFICATIONS", cap)
    real = hamnt.lemmas._verify_pre_structures
    seen = []

    def checked(code, pairs):
        reports = real(code, pairs)
        for (alpha, y), report in zip(pairs, reports, strict=True):
            assert report.to_json() == vertex_pre_structure(code, alpha, y).to_json()
            seen.append(report.all_pass)
        return reports

    monkeypatch.setattr(hamnt.lemmas, "_verify_pre_structures", checked)
    assert run_lemma_suite(m, q, seed=0).all_pass
    assert seen == [True] * verified


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_pre_structure_batches_match_vertex_oracle_across_codes(seed, monkeypatch):
    """On H(4,2) at seeds 5-7 the suite's 576 witnesses come from two
    codes, one batch each; a memo that leaked from the first code into the
    second would show against the Vertex-based oracle."""
    monkeypatch.setattr(hamnt.lemmas, "MAX_PRE_VERIFICATIONS", 10**6)
    real = hamnt.lemmas._verify_pre_structures
    batches = []

    def checked(code, pairs):
        reports = real(code, pairs)
        for (alpha, y), report in zip(pairs, reports, strict=True):
            assert report.all_pass
            assert report.to_json() == vertex_pre_structure(code, alpha, y).to_json()
        batches.append((code, len(reports)))
        return reports

    monkeypatch.setattr(hamnt.lemmas, "_verify_pre_structures", checked)
    assert run_lemma_suite(4, 2, seed=seed).all_pass
    assert len({id(code) for code, _ in batches}) == len(batches) == 2
    assert sum(n for _, n in batches) == 576


def test_pre_structure_work_is_shared_within_a_code(monkeypatch):
    # lemmas --m 6 --q 2 verifies 40 witnesses of one code with 4
    # codewords, 10 elements y and 4 pre-codewords: each y is tested
    # against G1(C) once, and each pre-codeword's shell is built once
    counts = Counter()

    def counted(name):
        real = getattr(hamnt.precodeword, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(hamnt.precodeword, name, wrapper)

    counted("_index_shell")
    counted("_neighbours_fixed_by")
    code, out, _ = run(["lemmas", "--m", "6", "--q", "2", "--format", "json"])
    assert [code, out] == PINNED["6,2,0"]
    assert counts["_neighbours_fixed_by"] == 10
    assert counts["_index_shell"] <= 44
