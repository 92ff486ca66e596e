import hashlib
import itertools
import random

import pytest

import hamnt.code_model
import hamnt.transitivity
from hamnt import (CASE2, VERDICT_FIXED, VERDICT_NONFIXING, VIOLATION,
                   Automorphism, Code, FeasibilityError, GeneratorSet,
                   HammingScheme, HypothesisError, MinDistanceError,
                   analyze_stabilizer, automorphism_to_text, classify_theorem,
                   enumerate_full_group, is_neighbour_transitive,
                   setwise_stabilizer, stabilizes_set, translation)
from hamnt.code_model import neighbour_stabilizer
from hamnt.family_codes import build_family
from hamnt.transitivity import _transitive_on_neighbours
from helpers import (brute_classify, brute_stabilizer_order, conjugated_by,
                     random_automorphism, random_code, random_code_min_distance)

H42 = HammingScheme(4, 2)
H22 = HammingScheme(2, 2)

INST4 = build_family(4)


def test_stabilizer_of_everything_is_full_group():
    stab = setwise_stabilizer(list(H22.vertices()), H22)
    assert stab == list(enumerate_full_group(H22))
    assert len(stab) == 8


def test_stabilizer_of_empty_set_is_full_group():
    assert setwise_stabilizer([], H22) == list(enumerate_full_group(H22))


# sha256 of the joined automorphism_to_text lines of setwise_stabilizer of
# the family's neighbour set, recorded at commit e130cd6, where the
# elements came from an element search
STABILIZER_PINS = {
    6: (384, "8bc8b00f0dd15fc9561aee45593714c27ec4480078e0f759115b52be3a1e9a3b"),
    8: (6144, "41fae9be0861908f72a1fb84c15fef15e2b9890857908ab3b87662d94e5d83c2"),
}


@pytest.mark.parametrize("m", sorted(STABILIZER_PINS))
def test_family_stabilizer_matches_parent_pins(m):
    code = build_family(m).C
    stab = setwise_stabilizer(code.neighbour_set, code.scheme)
    text = "\n".join(automorphism_to_text(x) for x in stab)
    assert (len(stab), hashlib.sha256(text.encode()).hexdigest()) == STABILIZER_PINS[m]


def test_stabilizer_family_m4_matches_brute_force():
    nbrs = INST4.C.neighbour_set
    stab = setwise_stabilizer(nbrs, H42)
    assert len(stab) == 192
    # independent oracle: naive filter of the raw full group
    assert brute_stabilizer_order(H42, nbrs) == 192
    t = translation(H42.vertex([0, 1, 0, 1]))
    assert t in stab
    assert INST4.C.image(t) != INST4.C


def test_stabilizer_is_a_subgroup():
    stab = setwise_stabilizer(INST4.C.neighbour_set, H42)
    elements = set(stab)
    assert Automorphism.identity(H42) in elements
    for x in stab:
        assert x.inverse() in elements
    rng = random.Random(20)
    for _ in range(500):
        x, y = rng.choice(stab), rng.choice(stab)
        assert x.compose(y) in elements


def test_stabilizer_canonical_order_and_everyone_stabilizes():
    nbrs = INST4.C.neighbour_set
    stab = setwise_stabilizer(nbrs, H42)
    keys = [x.sort_key for x in stab]
    assert keys == sorted(keys)
    for x in stab:
        assert stabilizes_set(nbrs, x)


def test_stabilizer_cap(monkeypatch):
    monkeypatch.setattr(hamnt.transitivity, "DEFAULT_GROUP_CAP", 10)
    with pytest.raises(FeasibilityError):
        setwise_stabilizer([H42.zero()], H42)


def test_stabilizer_matches_naive_filter_on_random_sets():
    # pruned search vs raw full-group filter on random vertex subsets
    rng = random.Random(24)
    for scheme in (HammingScheme(3, 2), HammingScheme(2, 3), HammingScheme(2, 4)):
        verts = list(scheme.vertices())
        for _ in range(8):
            subset = rng.sample(verts, rng.randrange(1, len(verts)))
            stab = setwise_stabilizer(subset, scheme)
            assert len(stab) == brute_stabilizer_order(scheme, subset)
            target = set(subset)
            for x in stab:
                assert {x.apply(v) for v in subset} == target


def test_stabilizer_conjugation_equivariance():
    rng = random.Random(21)
    nbrs = INST4.C.neighbour_set
    stab = setwise_stabilizer(nbrs, H42)
    y = random_automorphism(rng, H42)
    moved = [y.apply(v) for v in nbrs]
    lhs = set(setwise_stabilizer(moved, H42))
    rhs = {conjugated_by(x, y) for x in stab}
    assert lhs == rhs


def test_is_neighbour_transitive():
    inst6 = build_family(6)
    assert is_neighbour_transitive(inst6.C, inst6.autC_gens)
    single = Code.from_entries(H42, [[0, 0, 0, 0]])
    ident_only = GeneratorSet(H42, (Automorphism.identity(H42),))
    assert not is_neighbour_transitive(single, ident_only)
    stab = setwise_stabilizer(INST4.C.neighbour_set, H42)
    assert is_neighbour_transitive(INST4.C, GeneratorSet(H42, tuple(stab)))


def test_is_neighbour_transitive_empty_neighbour_set():
    everything = Code(H22, list(H22.vertices()))
    with pytest.raises(HypothesisError, match="neighbour set is empty"):
        is_neighbour_transitive(everything, GeneratorSet(H22, ()))


def test_transitivity_matches_the_full_orbit_of_the_least_neighbour():
    # the rule with its early stop (and, when delta >= 3, its start at a
    # neighbour of the least codeword) against the whole orbit of the least
    # neighbour, for subgroups of Stab(Gamma_1(C)) generated by a prefix of
    # its strong generators
    rng = random.Random(47)
    verdicts = set()
    for scheme in (HammingScheme(3, 2), HammingScheme(3, 3), H42, HammingScheme(2, 4)):
        for _ in range(25):
            code = random_code(rng, scheme, rng.randint(1, 5))
            nbrs = set(code.neighbour_set)
            if not nbrs:
                continue
            gens = neighbour_stabilizer(code).generators
            for k in range(len(gens) + 1):
                seen, frontier = {min(nbrs)}, [min(nbrs)]
                while frontier:
                    frontier = list({x.apply(v) for v in frontier for x in gens[:k]} - seen)
                    seen.update(frontier)
                want = seen == nbrs
                fresh = Code(scheme, code.words)
                assert _transitive_on_neighbours(fresh, gens[:k]) == want
                verdicts.add((min(code.min_distance, 3), want))
    assert verdicts == {(d, v) for d in (1, 2, 3) for v in (False, True)}, verdicts


def test_analysis_checks_the_neighbour_cap_and_builds_no_neighbour_set(monkeypatch):
    # delta = 3: the repetition code's neighbourhoods hold 3 * 3 * 2 = 18
    # vertices and its distance-2 shells 36.  Under a cap of 17 the
    # analysis is refused before the shells and any search, with the
    # message of building Gamma_1(C); under 36 it runs,
    # and neither it nor classify_theorem builds Gamma_1(C)
    def rep():
        return Code.from_entries(HammingScheme(3, 3), [[0, 0, 0], [1, 1, 1], [2, 2, 2]])

    searches = []
    real = hamnt.code_model._stabilizer_chain
    monkeypatch.setattr(hamnt.code_model, "_stabilizer_chain",
                        lambda *a: searches.append(a) or real(*a))
    monkeypatch.setattr(hamnt.code_model, "DEFAULT_ENUMERATION_CAP", 17)
    with pytest.raises(FeasibilityError) as built:
        rep().neighbour_set
    assert str(built.value) == ("the neighbourhoods of 3 codewords of H(3,3) hold 18 "
                                "vertices, over the enumeration cap 17")
    for analysis in (analyze_stabilizer, classify_theorem):
        with pytest.raises(FeasibilityError) as refused:
            analysis(rep())
        assert str(refused.value) == str(built.value)
    assert searches == []
    monkeypatch.setattr(hamnt.code_model, "DEFAULT_ENUMERATION_CAP", 36)
    for analysis in (analyze_stabilizer, classify_theorem):
        code = rep()
        assert analysis(code).transitive_on_neighbours
        assert "_neighbour_indices" not in vars(code)
    assert len(searches) == 2


def test_classify_family_m4():
    report = classify_theorem(INST4.C)
    assert report.verdict == VERDICT_NONFIXING
    assert report.theorem_case == CASE2
    assert report.stabilizer_order == 192
    assert report.transitive_on_neighbours
    assert report.delta == 4
    # first non-fixing element in canonical order: translation by 0011
    assert report.witness == translation(H42.vertex([0, 0, 1, 1]))


def test_classify_fixed_spot_checks():
    rep5 = Code.from_entries(HammingScheme(5, 2), [[0] * 5, [1] * 5])
    report = classify_theorem(rep5)
    assert report.verdict == VERDICT_FIXED
    assert report.witness is None and report.theorem_case is None

    rep43 = Code.from_entries(HammingScheme(4, 3), [[0] * 4, [1] * 4])
    assert classify_theorem(rep43).verdict == VERDICT_FIXED


def test_classify_hypothesis_errors():
    with pytest.raises(MinDistanceError):
        classify_theorem(Code.from_entries(H22, [[0, 0], [1, 1]]))
    with pytest.raises(HypothesisError):
        classify_theorem(Code.from_entries(H42, [[0, 0, 0, 0]]))


def test_classify_never_violation_h42_pairs():
    verts = list(H42.vertices())
    checked = 0
    for pair in itertools.combinations(verts, 2):
        code = Code(H42, pair)
        if code.min_distance < 3:
            continue
        checked += 1
        report = classify_theorem(code)
        assert report.theorem_case != VIOLATION
    assert checked == 40  # 32 pairs at distance 3, 8 at distance 4


def test_classify_never_violation_h33_sample():
    rng = random.Random(22)
    scheme = HammingScheme(3, 3)
    for _ in range(60):
        code = random_code_min_distance(rng, scheme, rng.choice((2, 3)), 3)
        report = classify_theorem(code)
        assert report.theorem_case != VIOLATION
        assert report.delta == 3


def test_classify_matches_brute_force_classifier():
    h42 = [Code(H42, pair) for pair in itertools.combinations(H42.vertices(), 2)]
    h42 = [c for c in h42 if c.min_distance >= 3]
    assert len(h42) == 40
    rng = random.Random(11)
    h33 = HammingScheme(3, 3)
    sample = [random_code_min_distance(rng, h33, rng.choice((2, 3)), 3)
              for _ in range(30)]
    transitive = []
    for code in h42 + sample:
        report = classify_theorem(code)
        w = report.witness
        got = None if w is None else (w.coord_perm, w.alphabet_perms)
        assert (got, report.stabilizer_order, report.transitive_on_neighbours) \
            == brute_classify(code)
        transitive.append(report.transitive_on_neighbours)
    # the sample exercises both transitivity verdicts
    assert True in transitive[40:] and False in transitive[40:]


def test_delta3_case_realized_in_h33():
    # exhaustive experiment over every delta=3 code of H(3,3): the 108
    # distance-3 pairs are all fixed, while the 36 maximal codes (three
    # words pairwise differing everywhere) are all non-fixing -- concrete
    # instances of the delta=3 parameter case, and zero violations
    scheme = HammingScheme(3, 3)
    verts = list(scheme.vertices())
    fixed = nonfixing = 0
    for r in (2, 3):
        for combo in itertools.combinations(verts, r):
            code = Code(scheme, combo)
            if code.min_distance < 3:
                continue
            report = classify_theorem(code)
            if report.verdict == VERDICT_FIXED:
                fixed += 1
            else:
                assert report.theorem_case == "CASE3_delta3_mq1_even"
                assert len(code) == 3
                nonfixing += 1
    assert fixed == 108
    assert nonfixing == 36


def test_q_even_m_odd_always_fixed():
    # exhaustive pairs in H(3,2), sampled pairs in H(5,2)
    scheme = HammingScheme(3, 2)
    for pair in itertools.combinations(list(scheme.vertices()), 2):
        code = Code(scheme, pair)
        if code.min_distance >= 3:
            assert classify_theorem(code).verdict == VERDICT_FIXED
    rng = random.Random(23)
    h52 = HammingScheme(5, 2)
    for _ in range(10):
        code = random_code_min_distance(rng, h52, 2, 3)
        assert classify_theorem(code).verdict == VERDICT_FIXED


def test_classification_report_json():
    report = classify_theorem(INST4.C)
    assert report.to_json() == {
        "delta": report.delta, "verdict": report.verdict,
        "witness": automorphism_to_text(report.witness),
        "theorem_case": report.theorem_case,
        "stabilizer_order": report.stabilizer_order,
        "transitive_on_neighbours": report.transitive_on_neighbours}
    fixed = classify_theorem(Code.from_entries(HammingScheme(5, 2), [[0] * 5, [1] * 5]))
    assert fixed.witness is None and fixed.to_json()["witness"] is None
