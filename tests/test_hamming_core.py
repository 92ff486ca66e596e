import itertools
import math
import random

import pytest

import hamnt.hamming_core
from hamnt import (FeasibilityError, HammingScheme, SchemeMismatchError,
                   Triple, common_neighbours, distance, enumerate_triples,
                   neighbours, shell, vertex_from_text, vertex_to_text)
from hamnt.hamming_core import (_index_ball, _index_neighbours, _index_of, _index_shell,
                                _index_steps, _places, _vertex_at)
from helpers import (ball1, brute_distance, brute_neighbours, brute_triple_count,
                     shell_entries, triple_entries)

H42 = HammingScheme(4, 2)
H33 = HammingScheme(3, 3)


def test_scheme_validation():
    with pytest.raises(ValueError):
        HammingScheme(0, 2)
    with pytest.raises(ValueError):
        HammingScheme(3, 1)
    assert HammingScheme(10, 3).vertex_count == 3**10


def test_vertex_validation():
    with pytest.raises(ValueError):
        H42.vertex([0, 1, 1])
    with pytest.raises(ValueError):
        H42.vertex([0, 1, 2, 0])


def test_distance_examples():
    assert distance(H42.vertex([0, 0, 0, 0]), H42.vertex([0, 0, 0, 0])) == 0
    assert distance(H42.vertex([0, 0, 0, 0]), H42.vertex([1, 1, 0, 0])) == 2
    s6 = HammingScheme(6, 2)
    # delta witness of the m=6 family code, checked entrywise
    assert distance(s6.vertex([0, 0, 0, 0, 0, 0]), s6.vertex([0, 1, 1, 0, 1, 1])) == 4


def test_distance_scheme_mismatch():
    with pytest.raises(SchemeMismatchError):
        distance(H42.zero(), HammingScheme(4, 3).zero())


def test_distance_is_a_metric_exhaustive_h33():
    verts = list(H33.vertices())
    for u in verts:
        for v in verts:
            d = distance(u, v)
            assert d == distance(v, u)
            assert (d == 0) == (u == v)
    for u in verts:
        for v in verts:
            for w in verts:
                assert distance(u, w) <= distance(u, v) + distance(v, w)


def test_neighbours_of_zero_h42():
    got = neighbours(H42.zero())
    assert [vertex_to_text(v) for v in got] == ["0001", "0010", "0100", "1000"]


def test_neighbours_match_brute_force_and_count():
    for scheme in (H42, H33, HammingScheme(2, 3)):
        expected_size = scheme.m * (scheme.q - 1)
        for v in scheme.vertices():
            got = neighbours(v)
            assert list(got) == sorted(got)
            assert len(got) == expected_size
            assert set(got) == brute_neighbours(v)


def test_neighbours_h23_example():
    s = HammingScheme(2, 3)
    got = {vertex_to_text(v) for v in neighbours(s.vertex([1, 0]))}
    assert got == {"00", "20", "11", "12"}


def test_common_neighbours_examples():
    got = common_neighbours(H42.vertex([0, 0, 0, 0]), H42.vertex([1, 1, 0, 0]))
    assert {vertex_to_text(v) for v in got} == {"1000", "0100"}
    s32 = HammingScheme(3, 2)
    assert common_neighbours(s32.vertex([0, 0, 0]), s32.vertex([1, 1, 1])) == ()
    with pytest.raises(ValueError):
        common_neighbours(H42.zero(), H42.zero())


def test_common_neighbours_size_two_at_distance_two():
    # exhaustive over H(4,2), H(3,3), H(2,4)
    for scheme in (H42, H33, HammingScheme(2, 4)):
        verts = list(scheme.vertices())
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                if distance(u, v) == 2:
                    assert len(common_neighbours(u, v)) == 2


def test_triple_invariant_enforced():
    with pytest.raises(ValueError):
        Triple(H42.vertex([0, 0, 0, 0]), H42.vertex([1, 0, 0, 0]),
               H42.vertex([1, 1, 1, 0]))


@pytest.mark.parametrize("m,q", [(2, 2), (3, 2)])
def test_enumerate_triples_count_vs_brute_force(m, q):
    scheme = HammingScheme(m, q)
    triples = list(enumerate_triples(scheme))
    expected = (scheme.vertex_count * math.comb(m, 2) * (q - 1) ** 2 * 2)
    assert len(triples) == expected
    assert len(triples) == brute_triple_count(scheme)
    assert len(set((t.alpha, t.nu, t.beta) for t in triples)) == len(triples)


def test_enumerate_triples_counts_frozen():
    assert sum(1 for _ in enumerate_triples(HammingScheme(2, 2))) == 8
    assert sum(1 for _ in enumerate_triples(HammingScheme(3, 2))) == 48


def test_enumerate_triples_cap(monkeypatch):
    # the cap is read at call time, so a patched constant bounds the sweep
    monkeypatch.setattr(hamnt.hamming_core, "DEFAULT_ENUMERATION_CAP", 10)
    with pytest.raises(FeasibilityError):
        enumerate_triples(HammingScheme(4, 2))


def test_vertex_text_round_trip():
    for scheme in (H42, H33):
        for v in scheme.vertices():
            assert vertex_from_text(scheme, vertex_to_text(v)) == v
    wide = HammingScheme(3, 12)
    v = wide.vertex([0, 11, 3])
    assert vertex_to_text(v) == "0,11,3"
    assert vertex_from_text(wide, "0,11,3") == v
    # q = 10 is the last digit-string alphabet
    ten = HammingScheme(2, 10)
    assert vertex_to_text(ten.vertex([9, 0])) == "90"
    assert vertex_from_text(ten, "90") == ten.vertex([9, 0])


def test_brute_distance_agrees():
    for v in H33.vertices():
        for w in H33.vertices():
            assert distance(v, w) == brute_distance(v, w)


@pytest.mark.parametrize("m,q", [(1, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)])
def test_entry_kernels_match_distance_filter(m, q):
    """The index kernels, the entry-tuple oracles of helpers (ball1,
    shell_entries, triple_entries) and the public wrappers, against a
    filter of all vertices by brute distance.  Vertex x of the
    lexicographic list has index x."""
    scheme = HammingScheme(m, q)
    verts = list(scheme.vertices())  # lexicographic
    place, pairs = _places(m, q), list(itertools.combinations(range(m), 2))

    def ring(v, r):
        return [w for w in verts if brute_distance(v, w) == r]

    for x, v in enumerate(verts):
        assert _index_of(v.entries, q) == x and _vertex_at(scheme, x) == v
        steps = _index_steps(x, q, place)
        # position then symbol, as the tuple ball
        assert [verts[y].entries for y in _index_ball(x, steps)] == ball1(v.entries, q)
        assert sorted(ball1(v.entries, q)) == [w.entries for w in ring(v, 1)]
        assert _index_neighbours([x], q, place) == {verts.index(w) for w in ring(v, 1)}
        two = _index_shell(x, steps, pairs)
        assert len(two) == len(set(two)) and [verts[y] for y in sorted(two)] == ring(v, 2)
        assert neighbours(v) == tuple(ring(v, 1))
        for r in range(m + 1):
            assert shell_entries(v.entries, q, r) == [w.entries for w in ring(v, r)]
            assert shell(v, r) == tuple(ring(v, r))
        for w in ring(v, 2):
            shared = [n for n in ring(v, 1) if brute_distance(n, w) == 1]
            assert common_neighbours(v, w) == tuple(shared)

    # alpha, then beta, then nu, each lexicographic; flat as alpha + nu + beta
    expected = [a.entries + n.entries + b.entries
                for a in verts for b in ring(a, 2)
                for n in ring(a, 1) if brute_distance(n, b) == 1]
    got = list(triple_entries(m, q))
    assert set(got) == set(expected)
    assert got == expected
    assert [t.alpha.entries + t.nu.entries + t.beta.entries
            for t in enumerate_triples(scheme)] == expected


def test_index_neighbours_match_brute_neighbours():
    # Gamma_1 of a random vertex set on indices: the union of the members'
    # brute-force neighbourhoods, less the members
    rng = random.Random(12)
    for m, q in [(1, 2), (1, 5), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (3, 4), (5, 2)]:
        scheme = HammingScheme(m, q)
        verts = list(scheme.vertices())
        for _ in range(15):
            members = rng.sample(verts, rng.randint(1, min(6, len(verts))))
            want = set().union(*map(brute_neighbours, members)).difference(members)
            got = _index_neighbours({_index_of(v.entries, q) for v in members}, q, _places(m, q))
            assert got == {_index_of(w.entries, q) for w in want}
