import itertools
import math
import random
from collections import Counter

import pytest

import hamnt.code_model
from hamnt import (Automorphism, Code, FeasibilityError,
                   HammingScheme, SchemeMismatchError, analyze_stabilizer,
                   automorphism_to_text, classify_theorem, code_to_text, distance,
                   enumerate_full_group, find_equivalence, is_code_automorphism,
                   is_linear_binary, neighbour_count, neighbourhoods_disjoint,
                   neighbours, parse_code_text, read_code_file, setwise_stabilizer,
                   shell, stabilizer_chain, stabilizes_set, translation,
                   vertex_to_text, write_code_file)
from hamnt.chain import _first_leaf, _fixes, _pruning_model, _stabilizer_chain
from hamnt.code_model import (_determined_indices, _neighbours_fixed_by,
                              neighbour_stabilizer)
from hamnt.errors import CodeFormatError
from hamnt.family_codes import build_family
from hamnt.lemmas import _witnesses
from helpers import (HAMMING_7_4, binary_span, brute_determined, brute_distance,
                     brute_neighbours, conjugated_by, greedy_code, index_of,
                     random_automorphism, random_code, raw_apply, raw_full_group)

H42 = HammingScheme(4, 2)
H33 = HammingScheme(3, 3)

REP4 = Code.from_entries(H42, [[0, 0, 0, 0], [1, 1, 1, 1]])
FAMILY6 = build_family(6).C


def test_code_normalization():
    c = Code.from_entries(H42, [[1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]])
    assert len(c) == 2
    assert c.words == tuple(sorted(c.words))
    assert c == REP4


def test_code_scheme_check():
    with pytest.raises(SchemeMismatchError):
        Code(H42, [H33.zero()])
    # the least foreign word (by entries) is the one named
    words = [H33.vertex([2, 2, 2]), H42.vertex([1, 0, 0, 0]), H42.vertex([0, 1, 1, 1]),
             H33.zero()]
    with pytest.raises(SchemeMismatchError, match=r"^word 0111 does not belong to H\(3,3\)$"):
        Code(H33, words)


def test_code_matches_a_vertex_level_oracle():
    # the oracle sorts and deduplicates Vertex objects; the input comes in
    # any order with any number of duplicates, and q = 12 uses the comma form
    rng = random.Random(19)
    for scheme in (H33, H42, HammingScheme(2, 4), HammingScheme(2, 12)):
        vertices = list(scheme.vertices())
        for _ in range(40):
            drawn = [rng.choice(vertices) for _ in range(rng.randrange(0, 12))]
            want = sorted(set(drawn))
            code = Code(scheme, drawn)
            shuffled = drawn + drawn[:3]
            rng.shuffle(shuffled)
            again = Code(scheme, shuffled)
            assert code == again and hash(code) == hash(again)
            assert len(code) == len(want)
            assert code.words == tuple(want) and list(code) == want
            texts = [vertex_to_text(w) for w in want]
            assert repr(code) == f"Code({scheme}, {{{', '.join(texts)}}})"
            assert code_to_text(code) == "\n".join([f"{scheme.m} {scheme.q}"] + texts) + "\n"
            if want:
                assert Code(scheme, want[1:]) != code
    # the same entries in another scheme make another code
    assert Code.from_entries(H33, [[0, 0, 0]]) != Code.from_entries(
        HammingScheme(3, 4), [[0, 0, 0]])


def test_membership_is_false_for_anything_but_a_vertex_of_the_scheme():
    code = Code.from_entries(H33, [[0, 0, 0], [1, 1, 1]])
    assert H33.vertex([0, 0, 0]) in code and H33.vertex([1, 1, 1]) in code
    assert H33.vertex([2, 2, 2]) not in code
    for other in ((0, 0, 0), [0, 0, 0], "000", None,
                  HammingScheme(3, 4).vertex([0, 0, 0])):
        assert other not in code


def test_image_matches_per_word_apply():
    rng = random.Random(20)
    for scheme in (H33, H42, HammingScheme(2, 4), HammingScheme(5, 2)):
        for _ in range(30):
            code = random_code(rng, scheme, rng.randrange(0, 6))
            x = random_automorphism(rng, scheme)
            assert code.image(x) == Code(scheme, [x.apply(w) for w in code.words])
    with pytest.raises(SchemeMismatchError):
        REP4.image(Automorphism.identity(H33))


def test_library_functions_build_no_vertex_view():
    # the internal readers use the entry tuples: neither Vertex view is
    # built, on a delta = 4 code and on a delta = 1 code
    rep = Code.from_entries(H42, [[0, 0, 0, 0], [1, 1, 1, 1]])
    classify_theorem(rep)
    near = Code.from_entries(H33, [[0, 0, 0], [0, 0, 1], [2, 2, 2]])
    for code in (rep, near):
        analyze_stabilizer(code)
        neighbour_count(code)
        neighbourhoods_disjoint(code)
        is_linear_binary(code)
        find_equivalence(code, code)
    family = build_family(6).C
    first, total = _witnesses([(family, neighbour_stabilizer(family))], 10**6)
    assert len(first) == total > 0
    for code in (rep, near, family):
        assert "words" not in vars(code) and "neighbour_set" not in vars(code)


def test_min_distance_examples():
    assert REP4.min_distance == 4
    assert Code.from_entries(H42, [[0, 0, 0, 0]]).min_distance == math.inf
    assert Code(H42, []).min_distance == math.inf
    # brute force over the 6 pairs of the m=6 family code
    words = FAMILY6.words
    assert min(distance(u, v) for u, v in itertools.combinations(words, 2)) == 4
    assert FAMILY6.min_distance == 4


def test_min_distance_matches_brute_distance():
    # the mask rule, and the binary-linear shortcut, against the least
    # brute-force distance over all pairs, on random codes of 0 to 12 words
    rng = random.Random(14)
    linear = 0
    for scheme in (H42, H33, HammingScheme(2, 5), HammingScheme(5, 4)):
        verts = list(scheme.vertices())
        for _ in range(60):
            code = random_code(rng, scheme, rng.randint(0, min(12, len(verts))))
            pairs = itertools.combinations(code.words, 2)
            assert code.min_distance == min((brute_distance(u, v) for u, v in pairs),
                                            default=math.inf)
        for rows in ([[1, 1, 0, 0], [0, 0, 1, 1]], [[1, 0, 1, 1]], [[1, 1, 1, 0], [0, 1, 1, 1]]):
            if scheme.q == 2:
                code = binary_span(rows)
                linear += is_linear_binary(code)
                assert code.min_distance == min(
                    brute_distance(u, v) for u, v in itertools.combinations(code.words, 2))
    assert linear == 3


def test_neighbour_set_examples():
    # oracle: all 16 vertices at distance exactly 1 from the code
    expected = {v for v in H42.vertices()
                if v not in REP4 and min(distance(v, w) for w in REP4.words) == 1}
    assert set(REP4.neighbour_set) == expected
    assert len(REP4.neighbour_set) == 8
    assert Code(H42, []).neighbour_set == ()
    assert len(FAMILY6.neighbour_set) == 24


def test_neighbour_set_disjoint_union_when_delta_ge_3():
    for code in (REP4, FAMILY6):
        assert code.min_distance >= 3
        total = sum(len(neighbours(w)) for w in code.words)
        assert total == len(code.neighbour_set)


def test_neighbourhoods_disjoint_matches_union_count():
    # oracle: the neighbourhoods' sizes add up to the size of their union
    rng = random.Random(44)
    seen = set()
    for scheme in (H33, H42, HammingScheme(2, 4)):
        for _ in range(60):
            code = random_code(rng, scheme, rng.randrange(1, 6))
            nbhds = [brute_neighbours(w) for w in code.words]
            expected = sum(map(len, nbhds)) == len(set().union(*nbhds))
            assert neighbourhoods_disjoint(code) == expected
            assert neighbour_count(code) == len(set().union(*nbhds) - set(code.words))
            seen.add((min(code.min_distance, 3), scheme.q == 2, expected))
    # delta 1 both ways (adjacent binary words have disjoint neighbourhoods),
    # delta 2 never disjoint, delta >= 3 always
    assert seen == {(1, True, True), (1, True, False), (1, False, False),
                    (2, True, False), (2, False, False),
                    (3, True, True), (3, False, True)}


def test_neighbourhoods_disjoint_compares_no_two_codewords(monkeypatch):
    # delta = 1: the adjacent codewords are found from each codeword's ball,
    # one ball per codeword, not by comparing the codewords pairwise;
    # min_distance (all pairs, on masks) is cached first and builds none
    rng = random.Random(45)
    rows = rng.sample(list(itertools.product(range(3), repeat=6)), 60)
    code = Code.from_entries(HammingScheme(6, 3), rows)
    balls = []
    real = hamnt.code_model._index_ball
    monkeypatch.setattr(hamnt.code_model, "_index_ball",
                        lambda x, steps: balls.append(x) or real(x, steps))
    assert code.min_distance == 1 and balls == []
    nbhds = [brute_neighbours(w) for w in code.words]
    expected = sum(map(len, nbhds)) == len(set().union(*nbhds))
    assert neighbourhoods_disjoint(code) == expected
    assert sorted(balls) == list(code._indices)


def test_neighbourhoods_disjoint_checks_the_enumeration_cap(monkeypatch):
    # delta = 2: the 2 * 4 * 2 = 16 neighbourhood vertices exceed a cap of
    # 10, so neither function builds Gamma_1(C); a fresh code for each, so
    # neither reads what the other cached
    monkeypatch.setattr(hamnt.code_model, "DEFAULT_ENUMERATION_CAP", 10)
    for f in (neighbour_count, neighbourhoods_disjoint):
        code = Code.from_entries(HammingScheme(4, 3), [[0, 0, 0, 0], [1, 1, 0, 0]])
        with pytest.raises(FeasibilityError, match="enumeration cap 10"):
            f(code)



def test_neighbour_set_checks_the_enumeration_cap(monkeypatch):
    # delta = 4: neighbour_count is arithmetic, but building Gamma_1(C), 16
    # vertices, is refused under a cap of 10; the empty code builds nothing
    monkeypatch.setattr(hamnt.code_model, "DEFAULT_ENUMERATION_CAP", 10)
    code = Code.from_entries(HammingScheme(4, 3), [[0, 0, 0, 0], [1, 1, 1, 1]])
    assert neighbour_count(code) == 16
    with pytest.raises(FeasibilityError, match="hold 16 vertices, over the "
                       "enumeration cap 10"):
        code.neighbour_set
    assert Code(HammingScheme(4, 3), []).neighbour_set == ()

def test_shell_examples():
    assert shell(H42.zero(), 0) == (H42.zero(),)
    assert len(shell(H42.vertex([1, 0, 1, 0]), 2)) == 6
    assert len(shell(H33.vertex([0, 2, 1]), 2)) == 12
    # oracle: enumeration of all 27 vertices
    v = H33.vertex([0, 2, 1])
    assert set(shell(v, 2)) == {w for w in H33.vertices() if distance(v, w) == 2}
    with pytest.raises(ValueError):
        shell(H42.zero(), 5)


def test_image_examples():
    assert REP4.image(Automorphism.identity(H42)) == REP4
    got = REP4.image(translation(H42.vertex([0, 1, 0, 1])))
    assert got == Code.from_entries(H42, [[0, 1, 0, 1], [1, 0, 1, 0]])


def test_image_preserves_min_distance():
    rng = random.Random(10)
    s6 = FAMILY6.scheme
    for _ in range(100):
        x = random_automorphism(rng, s6)
        assert FAMILY6.image(x).min_distance == FAMILY6.min_distance


def test_image_is_group_action():
    rng = random.Random(11)
    for _ in range(25):
        x = random_automorphism(rng, H42)
        y = random_automorphism(rng, H42)
        c = random_code(rng, H42, 3)
        assert c.image(x).image(y) == c.image(x.compose(y))


def test_stabilizes_set_examples():
    inst = build_family(4)
    t = translation(H42.vertex([0, 1, 0, 1]))
    assert stabilizes_set(inst.C.neighbour_set, Automorphism.identity(H42))
    assert stabilizes_set(inst.C.neighbour_set, t)
    assert not stabilizes_set(inst.C.words, t)


def test_stabilized_by_tests_every_element():
    """The set rule read once for a list of elements: true iff each
    element is, for every position of a failing element in the list."""
    rng = random.Random(10)
    verdicts = Counter()
    for scheme in (H42, H33):
        for _ in range(60):
            words = random_code(rng, scheme, rng.choice((1, 2, 3))).neighbour_set
            xs = [random_automorphism(rng, scheme) for _ in range(rng.choice((0, 1, 3)))]
            stab = setwise_stabilizer(words, scheme)
            xs += rng.sample(stab, min(len(stab), rng.choice((1, 3))))
            rng.shuffle(xs)
            fixes = _fixes([index_of(w.entries, scheme.q) for w in words], scheme)
            want = all(stabilizes_set(words, x) for x in xs)
            assert all([fixes(x) for x in xs]) is want
            verdicts[want] += 1
            fixing = [x for x in xs if stabilizes_set(words, x)]
            assert all([fixes(x) for x in fixing])
            verdicts[True] += 1
    assert verdicts[False] >= 20 and verdicts[True] >= 20
    nbrs = build_family(4).C.neighbour_set
    fixes = _fixes([index_of(v.entries, 2) for v in nbrs], H42)
    ident, moving = Automorphism.identity(H42), translation(H42.vertex([1, 0, 0, 0]))
    assert [fixes(x) for x in (ident, ident, moving, ident)] == [True, True, False, True]
    with pytest.raises(SchemeMismatchError):
        stabilizes_set(nbrs, Automorphism.identity(H33))


def test_is_code_automorphism_examples():
    assert is_code_automorphism(REP4, Automorphism.identity(H42))
    assert is_code_automorphism(REP4, translation(H42.vertex([1, 1, 1, 1])))
    s6 = FAMILY6.scheme
    assert not is_code_automorphism(FAMILY6, translation(s6.vertex([1, 0, 0, 1, 0, 0])))


def test_code_automorphisms_stabilize_neighbour_set():
    # sampled codes of size <= 3 against every element of the full group
    rng = random.Random(12)
    group = list(enumerate_full_group(H42))
    for _ in range(6):
        code = random_code(rng, H42, rng.choice((1, 2, 3)))
        nbrs = code.neighbour_set
        for x in group:
            if is_code_automorphism(code, x):
                assert stabilizes_set(nbrs, x)


def test_equivalence_transport_of_aut_group():
    # conjugation maps Aut(C) onto Aut(C^y), checked extensionally on m=4
    rng = random.Random(13)
    inst = build_family(4)
    y = random_automorphism(rng, H42)
    moved = inst.C.image(y)
    aut_c = [x for x in enumerate_full_group(H42) if is_code_automorphism(inst.C, x)]
    aut_moved = {x for x in enumerate_full_group(H42) if is_code_automorphism(moved, x)}
    conjugated = {conjugated_by(x, y) for x in aut_c}
    assert conjugated == aut_moved


def test_is_linear_binary():
    assert is_linear_binary(Code.from_entries(H42, [[0, 0, 0, 0]]))
    assert is_linear_binary(FAMILY6)
    assert not is_linear_binary(
        Code.from_entries(H42, [[0, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0]]))
    assert not is_linear_binary(Code.from_entries(H33, [[0, 0, 0]]))
    # no zero word
    assert not is_linear_binary(Code.from_entries(H42, [[1, 1, 0, 0]]))


def test_find_equivalence():
    h22 = HammingScheme(2, 2)
    c = Code.from_entries(h22, [[0, 0], [1, 1]])
    c2 = Code.from_entries(h22, [[0, 1], [1, 0]])
    assert find_equivalence(c, c) == Automorphism.identity(h22)
    w2 = find_equivalence(c, c2)
    assert w2 is not None
    assert c.image(w2) == c2
    # first witness in canonical order is the translation by 01
    assert w2 == translation(h22.vertex([0, 1]))
    assert find_equivalence(Code.from_entries(H42, [[0, 0, 0, 0]]), REP4) is None


def test_find_equivalence_matches_brute_force_filter():
    # canonical-first witness against the raw full-group filter; the second
    # code is a moved copy of the first or a random code of the same size.
    # The search's first leaf maps the code onto the other one; the witness
    # is the least element of its coset under Aut(code), sometimes not the leaf
    rng = random.Random(44)
    kinds = Counter()
    for scheme, trials in ((H33, 150), (H42, 150), (HammingScheme(2, 4), 20),
                           (HammingScheme(5, 2), 150), (HammingScheme(2, 3), 20),
                           (HammingScheme(4, 3), 30)):
        for i in range(trials):
            size = rng.randint(1, 5)
            code = random_code(rng, scheme, size)
            other = (code.image(random_automorphism(rng, scheme)) if i % 4
                     else random_code(rng, scheme, size))
            w = find_equivalence(code, other)
            target = {v.entries for v in other}
            # |code| = |other|, so mapping into other is mapping onto it
            want = next(((sigma, gs) for sigma, gs in raw_full_group(scheme.m, scheme.q)
                         if all(raw_apply(sigma, gs, v.entries) in target for v in code)),
                        None)
            assert (w and (w.coord_perm, w.alphabet_perms)) == want
            if w is None:
                kinds["none"] += 1
                continue
            kinds["sigma = id" if want[0] == tuple(range(scheme.m)) else "sigma != id"] += 1
            full, rows, levels = _pruning_model([index_of(v.entries, scheme.q) for v in code],
                                                [index_of(v.entries, scheme.q) for v in other],
                                                scheme)
            leaf = _first_leaf(levels, rows, list(range(scheme.m)), [full], [])
            sigma = tuple(key[0] // scheme.q for key in leaf)
            gs = tuple(tuple(k % scheme.q for k in key) for key in leaf)
            kinds["leaf" if (sigma, gs) == want else "not the leaf"] += 1
    # a first leaf that is not least is rare: one moved copy in 30 to 100
    assert len(kinds) == 5 and min(kinds.values()) >= 2, kinds


# find_equivalence witnesses of relabelled images, recorded at commit
# e130cd6, where the witness was the first element of an element search;
# each relabelling is (alphabet permutations, coordinate permutation)
_I, _S = (0, 1), (1, 0)
EQUIVALENCE_PINS = [
    (((_S, _I, _S, _S, _I, _S, _I, _I), (3, 6, 0, 7, 1, 5, 2, 4)),
     "perm=[0,1,2,4,6,7,5,3]; g0=[0,1]; g1=[0,1]; g2=[0,1]; g3=[0,1]; "
     "g4=[0,1]; g5=[0,1]; g6=[0,1]; g7=[0,1]"),
    (((_I, _S, _S, _I, _S, _I, _I, _S, _S, _I), (7, 2, 9, 0, 4, 1, 8, 3, 6, 5)),
     "perm=[0,1,2,3,4,6,7,8,9,5]; g0=[0,1]; g1=[0,1]; g2=[0,1]; g3=[0,1]; "
     "g4=[1,0]; g5=[1,0]; g6=[0,1]; g7=[1,0]; g8=[0,1]; g9=[0,1]"),
]


def test_find_equivalence_matches_parent_pins():
    # the extended Hamming [8,4,4] code and the family's C at m = 10
    extended = binary_span([row + [sum(row) % 2] for row in HAMMING_7_4])
    for code, (relabel, witness) in zip((extended, build_family(10).C), EQUIVALENCE_PINS):
        other = code.image(Automorphism(code.scheme, *relabel))
        assert automorphism_to_text(find_equivalence(code, other)) == witness


def test_code_file_round_trip(tmp_path):
    path = tmp_path / "code.txt"
    write_code_file(FAMILY6, path)
    assert read_code_file(path) == FAMILY6
    text = code_to_text(REP4)
    assert text.splitlines()[0] == "4 2"
    assert parse_code_text(text) == REP4


def test_code_file_comments_and_errors(tmp_path):
    parsed = parse_code_text("# a comment\n\n4 2\n# another\n0000\n1111\n")
    assert parsed == REP4
    with pytest.raises(CodeFormatError):
        parse_code_text("")
    with pytest.raises(CodeFormatError):
        parse_code_text("4\n0000\n")
    with pytest.raises(CodeFormatError):
        parse_code_text("4 2\n00002\n")
    with pytest.raises(CodeFormatError):
        parse_code_text("4 2\n0202\n")
    path = tmp_path / "binary.code"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(CodeFormatError, match="not UTF-8"):
        read_code_file(path)


@pytest.mark.parametrize("text, message, ascii_text", [
    # int() reads each refused form; the file format takes ASCII digits only
    ("3 3\n\u0662\u0660\u0661\n000\n", "line 2: cannot parse vertex '\u0662\u0660\u0661'",
     "3 3\n201\n000\n"),
    ("2 11\n1_0,2\n", "line 2: cannot parse vertex '1_0,2'", "2 11\n10,2\n"),
    ("2 11\n+1,2\n", "line 2: cannot parse vertex '+1,2'", "2 11\n1,2\n"),
    ("2 11\n1, 2\n", "line 2: cannot parse vertex '1, 2'", "2 11\n1,2\n"),
    ("+3 2\n000\n", "line 1: bad header '+3 2'", "3 2\n000\n"),
    ("\u0663 2\n000\n", "line 1: bad header '\u0663 2'", "3 2\n000\n"),
], ids=["other_script_digits", "underscore", "sign", "space_after_comma", "header_sign",
        "header_other_script_digit"])
def test_code_file_numbers_are_ascii_digits(text, message, ascii_text):
    with pytest.raises(CodeFormatError) as info:
        parse_code_text(text)
    assert str(info.value).startswith(message + ": invalid literal for int()")
    assert len(parse_code_text(ascii_text)) == len(ascii_text.splitlines()) - 1


def test_code_file_wide_alphabet():
    wide = HammingScheme(2, 12)
    code = Code.from_entries(wide, [[0, 11], [3, 4]])
    assert parse_code_text(code_to_text(code)) == code


def _far_codes(rng, count):
    """Seeded codes with delta >= 3, from one word up to a maximal greedy
    code, in H(4..8,2), H(3..5,3), H(3..4,4) and H(3,5)."""
    schemes = ([HammingScheme(m, 2) for m in range(4, 9)]
               + [HammingScheme(m, 3) for m in (3, 4, 5)]
               + [HammingScheme(m, 4) for m in (3, 4)] + [HammingScheme(3, 5)])
    return [greedy_code(rng, scheme, 3, rng.choice((1, 2, 3, 4, 6, 10, 40)))
            for scheme in schemes for _ in range(count)]


def test_determined_set_matches_definition():
    # D = C plus its pre-codewords, by counting over the distance-2 shells,
    # against the definition filtered over every vertex
    rng = random.Random(40)
    codes = _far_codes(rng, 40)
    codes += [build_family(m).C for m in (4, 6, 8)]
    codes += [Code.from_entries(H33, [[0, 0, 0], [1, 1, 1], [2, 2, 2]]), binary_span(HAMMING_7_4)]
    with_pre = 0
    for code in codes:
        got = _determined_indices(code)
        assert got == sorted(index_of(v, code.scheme.q) for v in brute_determined(code)), code
        with_pre += len(got) > len(code)
    assert len(codes) == 445 and with_pre >= 20, with_pre


def test_chain_on_determined_set_matches_chain_on_neighbours():
    # one stabilizer, one chain: the same order and the same strong
    # generators in the same order, for delta >= 3 and below it
    rng = random.Random(41)
    codes = _far_codes(rng, 6) + [build_family(m).C for m in (4, 6, 8)]
    codes += [random_code(rng, scheme, rng.randint(1, 5))
              for scheme in (H42, H33, HammingScheme(5, 2)) for _ in range(10)]
    kinds = Counter()
    for code in codes:
        want = stabilizer_chain(code.neighbour_set, code.scheme)
        got = [neighbour_stabilizer(code)]
        if code.min_distance >= 3:
            got.append(_stabilizer_chain(_determined_indices(code), code.scheme))
        for chain in got:
            assert chain.order == want.order
            assert [x.points for x in chain.generators] == [x.points for x in want.generators]
        kinds["delta >= 3" if code.min_distance >= 3 else "delta < 3"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_neighbours_fixed_by_image_code_matches_set_rule():
    # x fixes G1(C) iff G1(C^x) = G1(C), on random elements (mostly
    # non-stabilizers), strong generators and their products
    rng = random.Random(42)
    verdicts = Counter()
    for scheme in (H42, H33, HammingScheme(5, 2), HammingScheme(2, 4)):
        for _ in range(40):
            code = random_code(rng, scheme, rng.randint(1, 5))
            stab = list(stabilizer_chain(code.neighbour_set, scheme).generators)
            stab += [x.compose(y) for x, y in zip(stab, stab[1:])]
            for _ in range(3):
                xs = [random_automorphism(rng, scheme) for _ in range(rng.choice((0, 0, 1)))]
                xs += rng.sample(stab, min(len(stab), rng.choice((0, 1, 3))))
                rng.shuffle(xs)
                want = all(stabilizes_set(code.neighbour_set, x) for x in xs)
                assert _neighbours_fixed_by(code, xs) is want
                verdicts[want] += 1
    assert min(verdicts.values()) >= 50, verdicts
    inst = build_family(6)
    assert _neighbours_fixed_by(inst.C, [inst.witness])
    assert not is_code_automorphism(inst.C, inst.witness)
    with pytest.raises(SchemeMismatchError):
        _neighbours_fixed_by(REP4, [Automorphism.identity(H33)])


def test_min_distance_and_linearity_match_all_pairs():
    # random binary codes, linear spans and non-linear sets, against the
    # all-pairs distance and the all-pairs closure test
    rng = random.Random(43)
    kinds = Counter()
    for m in range(1, 9):
        scheme = HammingScheme(m, 2)
        for _ in range(12):
            rows = [[rng.randint(0, 1) for _ in range(m)] for _ in range(rng.randint(1, m))]
            for code in (binary_span(rows), random_code(rng, scheme, rng.randint(1, 2**m)),
                         Code(scheme, [scheme.zero(), *random_code(rng, scheme, min(3, 2**m))])):
                entries = {w.entries for w in code}
                linear = scheme.zero() in code and all(
                    tuple(a ^ b for a, b in zip(u, v)) in entries
                    for u in entries for v in entries)
                assert is_linear_binary(code) is linear
                pairs = [brute_distance(u, v) for u, v in itertools.combinations(code.words, 2)]
                assert code.min_distance == min(pairs, default=math.inf)
                kinds["linear" if linear else "not linear"] += 1
    assert min(kinds.values()) >= 100, kinds
