import itertools
import random

import pytest

import hamnt.precodeword
from hamnt import (Automorphism, Code, HammingScheme, ImageInCodeError,
                   MinDistanceError, NotACodewordError,
                   NotNeighbourStabilizerError, setwise_stabilizer,
                   shell, translation, vertex_to_text, verify_pre_structure)
from hamnt.code_model import neighbour_stabilizer
from hamnt.family_codes import build_family
from hamnt.lemmas import _walk_witnesses
from hamnt.precodeword import _cells, _verify_pre_structures
from helpers import ball1, vertex_pre_structure

H42 = HammingScheme(4, 2)

INST4 = build_family(4)
INST6 = build_family(6)
Y4 = translation(H42.vertex([0, 1, 0, 1]))

# an 8-word code of H(6,2) with delta = 3 that is no block of its
# neighbour-set stabilizer: swapping positions 3 and 5 stabilizes its
# neighbour set and keeps 000101 in the code but moves 001110 out
H62 = HammingScheme(6, 2)
NO_BLOCK = Code.from_entries(H62, [[int(c) for c in w] for w in (
    "000101", "001110", "010011", "011000", "100010", "101001", "110100", "111111")])
SWAP35 = Automorphism(H62, [[0, 1]] * 6, [0, 1, 2, 5, 4, 3])


def pre_set(code, alpha, y):
    """Pre(alpha, y), sorted, from the one-pair structure check."""
    return verify_pre_structure(code, alpha, y).pre_set


def vset(vertices):
    return {vertex_to_text(v) for v in vertices}


def ternary_witnesses():
    """The repetition code of H(3,3) and its 216 witnesses (alpha, y): y a
    neighbour-set stabilizer that moves the codeword alpha out."""
    scheme = HammingScheme(3, 3)
    code = Code.from_entries(scheme, [[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    return code, [(alpha, y) for y in setwise_stabilizer(code.neighbour_set, scheme)
                  for alpha in code.words if y.apply(alpha) not in code]


def test_pre_codewords_m4():
    alpha = H42.zero()
    # oracle: the 6 weight-2 vertices, filtered by pi + 0101 in {0000, 1111}
    expected = {pi for pi in shell(alpha, 2) if Y4.apply(pi) in INST4.C}
    got = pre_set(INST4.C, alpha, Y4)
    assert set(got) == expected
    assert vset(got) == {"0101", "1010"}
    assert len(got) == 2  # m(q-1)/2


def test_pre_codewords_m6():
    scheme = INST6.scheme
    alpha = scheme.zero()
    y = translation(scheme.vertex([1, 0, 0, 1, 0, 0]))
    got = pre_set(INST6.C, alpha, y)
    assert len(got) == 3  # 6 * 1 / 2
    assert vset(got) == {"100100", "010010", "001001"}


def test_pre_codewords_size_law_all_family_pairs():
    for inst in (INST4, INST6):
        m = inst.m
        non_code = [u for u in inst.U.words if u not in inst.C]
        for alpha in inst.C.words:
            for u in non_code:
                got = pre_set(inst.C, alpha, translation(u))
                assert 2 * len(got) == m


def test_pre_codewords_hypothesis_errors():
    alpha = H42.zero()
    with pytest.raises(NotACodewordError):
        pre_set(INST4.C, H42.vertex([1, 0, 0, 0]), Y4)
    with pytest.raises(NotNeighbourStabilizerError):
        pre_set(INST4.C, alpha, translation(H42.vertex([1, 0, 0, 0])))
    with pytest.raises(ImageInCodeError):
        pre_set(INST4.C, alpha, translation(H42.vertex([1, 1, 1, 1])))
    with pytest.raises(ImageInCodeError):
        pre_set(INST4.C, alpha, Automorphism.identity(H42))
    short = Code.from_entries(HammingScheme(2, 2), [[0, 0], [1, 1]])
    with pytest.raises(MinDistanceError):
        pre_set(short, short.words[0], Automorphism.identity(short.scheme))


def test_cells_map_each_neighbour_to_its_pre_codeword_m4():
    # the cells G1(alpha) & G1(pi) give each neighbour nu of alpha the one
    # pre-codeword pi adjacent to it
    report = verify_pre_structure(INST4.C, H42.zero(), Y4)
    pre_of = {vertex_to_text(nu): vertex_to_text(pi)
              for pi, cell in report.cells for nu in cell}
    assert pre_of == {"0100": "0101", "1000": "1010", "0001": "0101", "0010": "1010"}


def test_verify_pre_structure_m4():
    report = verify_pre_structure(INST4.C, H42.zero(), Y4)
    assert report.all_pass
    assert {c.clause for c in report.clauses} == {
        "cells_partition_neighbourhood", "pre_count_half",
        "pre_neighbours_inside_code_neighbours", "dual_cells_partition",
        "dual_images_outside_code"}
    # each cell holds exactly two neighbours of alpha
    for _, cell in report.cells:
        assert len(cell) == 2


def test_verify_pre_structure_family_sweep():
    for inst in (INST4, INST6):
        non_code = [u for u in inst.U.words if u not in inst.C]
        for alpha in inst.C.words:
            for u in non_code:
                report = verify_pre_structure(inst.C, alpha, translation(u))
                assert report.all_pass, (inst.m, str(alpha), str(u))


def test_verify_pre_structure_json():
    report = verify_pre_structure(INST4.C, H42.zero(), Y4)
    data = report.to_json()
    assert data["all_pass"] is True
    assert set(data["pre_set"]) == {"0101", "1010"}
    assert len(data["cells"]) == 2
    assert all(c["pass"] for c in data["clauses"])


def test_parity_detector_contrapositive():
    # on H(3,2), m(q-1) is odd: no neighbour-stabilizing element may move a
    # codeword of a delta >= 3 code out of the code, so the pre-codeword
    # hypotheses are unsatisfiable there
    scheme = HammingScheme(3, 2)
    verts = list(scheme.vertices())
    for pair in itertools.combinations(verts, 2):
        code = Code(scheme, pair)
        if code.min_distance < 3:
            continue
        for x in setwise_stabilizer(code.neighbour_set, scheme):
            for alpha in code.words:
                assert x.apply(alpha) in code


def test_verify_pre_structure_matches_vertex_oracle_ternary():
    """Every witness of the repetition code of H(3,3), one at a time and
    then in one batch in shuffled order, so that the batch's memos are
    read by pairs in every order."""
    code, pairs = ternary_witnesses()
    assert len(pairs) == 216
    oracle = [vertex_pre_structure(code, alpha, y).to_json() for alpha, y in pairs]
    for (alpha, y), want in zip(pairs, oracle):
        report = verify_pre_structure(code, alpha, y)
        assert report.all_pass
        assert report.to_json() == want
    order = list(range(len(pairs)))
    random.Random(0).shuffle(order)
    reports = _verify_pre_structures(code, [pairs[i] for i in order])
    assert [r.to_json() for r in reports] == [oracle[i] for i in order]


def test_batch_matches_single_pairs_under_an_injected_fault(monkeypatch):
    """Each pre-codeword's duals are shared by the pairs whose Pre holds
    it, and only by those.  In the repetition code of H(3,3), Pre(alpha, y)
    is 3 of the 6 permutation words and depends on y; with one codeword
    dropped from the shell of 012, exactly the pairs whose Pre holds 012
    fail dual_cells_partition, in one batch as one pair at a time.  012 is
    vertex 5, and the codeword dropped is the least of its shell."""
    code, pairs = ternary_witnesses()
    real = hamnt.precodeword._index_shell

    def faulty(x, steps, pairs):
        ring = real(x, steps, pairs)
        return [y for y in ring if y != min(ring)] if x == 5 else ring

    monkeypatch.setattr(hamnt.precodeword, "_index_shell", faulty)
    random.Random(1).shuffle(pairs)
    reports = _verify_pre_structures(code, pairs)
    singles = [verify_pre_structure(code, alpha, y) for alpha, y in pairs]
    assert [r.to_json() for r in reports] == [r.to_json() for r in singles]
    holds = [code.scheme.vertex([0, 1, 2]) in r.pre_set for r in reports]
    assert [not r.all_pass for r in reports] == holds
    assert 0 < sum(holds) < len(pairs)


def test_batch_matches_vertex_oracle_on_a_code_that_is_no_block():
    # every 8th of its 3,072 witnesses, from its stabilizer chain
    chain = neighbour_stabilizer(NO_BLOCK)
    pairs = [(alpha, y) for _, alpha, y in _walk_witnesses(NO_BLOCK, chain)][::8]
    reports = _verify_pre_structures(NO_BLOCK, pairs)
    assert len(pairs) == 384
    for (alpha, y), report in zip(pairs, reports, strict=True):
        assert report.all_pass
        assert report.to_json() == vertex_pre_structure(NO_BLOCK, alpha, y).to_json()


def test_batch_raises_hypothesis_errors_at_later_pairs():
    # each later pair meets memos the earlier pairs filled, and still
    # raises the error verify_pre_structure raises on it alone
    alpha, outside = H42.zero(), H42.vertex([1, 0, 0, 0])
    cases = [
        # a y that fixes the code, after a witness
        (INST4.C, [(alpha, Y4), (alpha, translation(H42.vertex([1, 1, 1, 1])))],
         ImageInCodeError),
        # a y already shown to stabilize G1(C) that keeps this codeword in C
        (NO_BLOCK, [(H62.vertex([0, 0, 1, 1, 1, 0]), SWAP35),
                 (H62.vertex([0, 0, 0, 1, 0, 1]), SWAP35)], ImageInCodeError),
        (INST4.C, [(alpha, Y4), (alpha, translation(outside))],
         NotNeighbourStabilizerError),
        (INST4.C, [(alpha, Y4), (outside, Y4)], NotACodewordError),
    ]
    for code, pairs, error in cases:
        assert verify_pre_structure(code, *pairs[0]).all_pass
        with pytest.raises(error):
            verify_pre_structure(code, *pairs[1])
        with pytest.raises(error):
            _verify_pre_structures(code, pairs)


def test_cells_rule_reports_sizes_overlaps_and_cover():
    # the one 2-set partition rule of verify_pre_structure, on G1(0000)
    # (the unit words): (cells, sizes_ok, disjoint, covered)
    nbrs = set(ball1((0, 0, 0, 0), 2))
    cases = [
        ([(1, 1, 0, 0), (0, 0, 1, 1)], (True, True, True)),
        ([(1, 1, 0, 0), (1, 0, 1, 0)], (True, False, False)),
        ([(1, 1, 0, 0)], (True, True, False)),
        ([(1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1)], (True, False, True)),
        ([(1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)], (False, True, True)),
        ([], (True, True, False)),
    ]
    for others, want in cases:
        cells, *flags = _cells(nbrs, others, lambda o: ball1(o, 2))
        assert [sorted(c) for c in cells] == [sorted(nbrs & set(ball1(o, 2))) for o in others]
        assert tuple(flags) == want
