import itertools

import pytest

from hamnt import (Automorphism, Code, HammingScheme, ImageInCodeError,
                   MinDistanceError, NotACodewordError,
                   NotNeighbourStabilizerError, pre_codewords, shell,
                   translation, vertex_to_text, verify_pre_structure)
from hamnt.family_codes import build_family
from hamnt.hamming_core import _ball1
from hamnt.precodeword import _cells
from helpers import vertex_pre_structure

H42 = HammingScheme(4, 2)

INST4 = build_family(4)
INST6 = build_family(6)
Y4 = translation(H42.vertex([0, 1, 0, 1]))


def vset(vertices):
    return {vertex_to_text(v) for v in vertices}


def test_pre_codewords_m4():
    alpha = H42.zero()
    # oracle: the 6 weight-2 vertices, filtered by pi + 0101 in {0000, 1111}
    expected = {pi for pi in shell(alpha, 2) if Y4.apply(pi) in INST4.C}
    got = pre_codewords(INST4.C, alpha, Y4)
    assert set(got) == expected
    assert vset(got) == {"0101", "1010"}
    assert len(got) == 2  # m(q-1)/2


def test_pre_codewords_m6():
    scheme = INST6.scheme
    alpha = scheme.zero()
    y = translation(scheme.vertex([1, 0, 0, 1, 0, 0]))
    got = pre_codewords(INST6.C, alpha, y)
    assert len(got) == 3  # 6 * 1 / 2
    assert vset(got) == {"100100", "010010", "001001"}


def test_pre_codewords_size_law_all_family_pairs():
    for inst in (INST4, INST6):
        m = inst.m
        non_code = [u for u in inst.U.words if u not in inst.C]
        for alpha in inst.C.words:
            for u in non_code:
                got = pre_codewords(inst.C, alpha, translation(u))
                assert 2 * len(got) == m


def test_pre_codewords_hypothesis_errors():
    alpha = H42.zero()
    with pytest.raises(NotACodewordError):
        pre_codewords(INST4.C, H42.vertex([1, 0, 0, 0]), Y4)
    with pytest.raises(NotNeighbourStabilizerError):
        pre_codewords(INST4.C, alpha, translation(H42.vertex([1, 0, 0, 0])))
    with pytest.raises(ImageInCodeError):
        pre_codewords(INST4.C, alpha, translation(H42.vertex([1, 1, 1, 1])))
    with pytest.raises(ImageInCodeError):
        pre_codewords(INST4.C, alpha, Automorphism.identity(H42))
    short = Code.from_entries(HammingScheme(2, 2), [[0, 0], [1, 1]])
    with pytest.raises(MinDistanceError):
        pre_codewords(short, short.words[0], Automorphism.identity(short.scheme))


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
    from hamnt import setwise_stabilizer
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
    """Every witness (alpha, y) of the repetition code of H(3,3): a
    neighbour-set stabilizer y that moves the codeword alpha out."""
    from hamnt import setwise_stabilizer
    scheme = HammingScheme(3, 3)
    code = Code.from_entries(scheme, [[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    count = 0
    for y in setwise_stabilizer(code.neighbour_set, scheme):
        for alpha in code.words:
            if y.apply(alpha) not in code:
                report = verify_pre_structure(code, alpha, y)
                assert report.all_pass
                assert report.to_json() == vertex_pre_structure(code, alpha, y).to_json()
                count += 1
    assert count == 216


def test_cells_rule_reports_sizes_overlaps_and_cover():
    # the one 2-set partition rule of verify_pre_structure, on G1(0000)
    # (the unit words): (cells, sizes_ok, disjoint, covered)
    nbrs = set(_ball1((0, 0, 0, 0), 2))
    cases = [
        ([(1, 1, 0, 0), (0, 0, 1, 1)], (True, True, True)),
        ([(1, 1, 0, 0), (1, 0, 1, 0)], (True, False, False)),
        ([(1, 1, 0, 0)], (True, True, False)),
        ([(1, 1, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1)], (True, False, True)),
        ([(1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1)], (False, True, True)),
        ([], (True, True, False)),
    ]
    for others, want in cases:
        cells, *flags = _cells(nbrs, others, 2)
        assert [sorted(c) for c in cells] == [sorted(nbrs & set(_ball1(o, 2))) for o in others]
        assert tuple(flags) == want
