import itertools
import math
import random
from collections import Counter

import pytest

import hamnt.chain
import hamnt.code_model
import hamnt.hamming_core
import hamnt.transitivity
import hamnt.wreath_group
from hamnt import (Automorphism, Code, FeasibilityError, GeneratorSet,
                   HammingScheme, SchemeMismatchError, Vertex,
                   automorphism_to_text, classify_theorem, closure,
                   distance, enumerate_full_group,
                   enumerate_triples, find_equivalence,
                   full_group_generators, group_order, is_code_automorphism,
                   least_outside, orbit, schreier_sims, setwise_stabilizer,
                   stabilizer_chain, stabilizes_set, translation)
from hamnt.chain import (_block_levels, _canonical_levels, _first_leaf, _fixes, _grow, _key,
                         _pruning_model, _rebase, _schreier_sims, _Transversal, _walk)
from hamnt.family_codes import build_family
from hamnt.hamming_core import check_enumeration_cap
from hamnt.hamming_core import _vertex_at
from hamnt.wreath_group import _act, _orbit
from helpers import (brute_maps_into, brute_stabilizer_order, conjugated_by,
                     count_sifts, index_of, random_automorphism, raw_apply,
                     tuple_orbit)

H32 = HammingScheme(3, 2)
H33 = HammingScheme(3, 3)
H42 = HammingScheme(4, 2)


def fixing(scheme, entries):
    """The test on elements of the scheme that they fix the vertex set entries."""
    code = Code.from_entries(scheme, entries)
    return lambda x: is_code_automorphism(code, x)


def test_automorphism_validation():
    with pytest.raises(ValueError):
        Automorphism(H32, ((0, 1), (0, 1), (0, 0)), (0, 1, 2))
    with pytest.raises(ValueError):
        Automorphism(H32, ((0, 1),) * 3, (0, 1, 1))
    with pytest.raises(ValueError):
        Automorphism(H32, ((0, 1),) * 2, (0, 1, 2))
    with pytest.raises(ValueError):
        Automorphism(H32, ((0, 1),) * 3, (0, 1))
    with pytest.raises(ValueError):
        Automorphism(H33, ((0, 1),) * 3, (0, 1, 2))
    # lists are accepted and stored as tuples
    x = Automorphism(H32, [[1, 0], [0, 1], [0, 1]], [2, 0, 1])
    assert x == Automorphism(H32, ((1, 0), (0, 1), (0, 1)), (2, 0, 1))


def test_unvalidated_results_equal_validated_elements():
    # compose, inverse, the chain's elements and witnesses and the full
    # enumeration build their results without validation; each must be ==
    # and hash-equal to the validated element with the same fields
    rng = random.Random(8)
    for scheme in (H32, H33, HammingScheme(2, 4)):
        made = list(enumerate_full_group(scheme))
        verts = list(scheme.vertices())
        made += setwise_stabilizer(rng.sample(verts, 3), scheme)
        code = Code(scheme, rng.sample(verts, 3))
        made.append(find_equivalence(code, code.image(random_automorphism(rng, scheme))))
        for _ in range(30):
            x, y = random_automorphism(rng, scheme), random_automorphism(rng, scheme)
            made += [x.compose(y), x.inverse(), conjugated_by(x, y)]
        for z in made:
            checked = Automorphism(scheme, z.alphabet_perms, z.coord_perm)
            assert z == checked and hash(z) == hash(checked)


def test_apply_identity():
    x = Automorphism.identity(H33)
    v = H33.vertex([1, 0, 2])
    assert x.apply(v) == v


def test_apply_single_coordinate_relabel():
    x = Automorphism(H42, ((1, 0), (0, 1), (0, 1), (0, 1)), (0, 1, 2, 3))
    assert x.apply(H42.zero()) == H42.vertex([1, 0, 0, 0])


def test_apply_coordinate_cycle():
    # sigma images (2,0,1): the entry in position i lands in position sigma(i)
    x = Automorphism.from_coord_perm(H32, (2, 0, 1))
    assert x.apply(H32.vertex([1, 0, 0])) == H32.vertex([0, 0, 1])
    # oracle: the action preserves distance on all 8x8 vertex pairs
    verts = list(H32.vertices())
    for u in verts:
        for v in verts:
            assert distance(x.apply(u), x.apply(v)) == distance(u, v)


def test_action_preserves_distance_h33():
    rng = random.Random(1)
    verts = list(H33.vertices())
    for _ in range(20):
        x = random_automorphism(rng, H33)
        for u in verts:
            for v in verts:
                assert distance(x.apply(u), x.apply(v)) == distance(u, v)


def test_compose_is_left_to_right_application():
    rng = random.Random(2)
    verts = list(H32.vertices())
    for _ in range(50):
        x = random_automorphism(rng, H32)
        y = random_automorphism(rng, H32)
        z = x.compose(y)
        for v in verts:
            assert z.apply(v) == y.apply(x.apply(v))


def test_compose_identity_and_inverse():
    rng = random.Random(3)
    ident = Automorphism.identity(H33)
    verts = list(H33.vertices())
    for _ in range(20):
        x = random_automorphism(rng, H33)
        assert x.compose(ident) == x
        assert ident.compose(x) == x
        xinv = x.inverse()
        for v in verts:
            assert xinv.apply(x.apply(v)) == v
            assert x.compose(xinv).apply(v) == v


def test_associativity_extensional():
    rng = random.Random(4)
    verts = list(H32.vertices())
    for _ in range(30):
        x, y, z = (random_automorphism(rng, H32) for _ in range(3))
        lhs = x.compose(y.compose(z))
        rhs = x.compose(y).compose(z)
        for v in verts:
            assert lhs.apply(v) == rhs.apply(v)


def test_translation_examples():
    assert translation(H42.zero()) == Automorphism.identity(H42)
    t = translation(H42.vertex([0, 1, 0, 1]))
    assert t.apply(H42.zero()) == H42.vertex([0, 1, 0, 1])
    assert t.apply(H42.vertex([1, 1, 1, 1])) == H42.vertex([1, 0, 1, 0])
    # order two in characteristic 2
    assert t.inverse() == t
    with pytest.raises(ValueError):
        translation(H33.zero())


def test_translation_addition_law():
    for a in H42.vertices():
        for b in H42.vertices():
            s = H42.vertex([x ^ y for x, y in zip(a.entries, b.entries)])
            assert translation(a).compose(translation(b)) == translation(s)


def test_enumerate_full_group_counts_and_dedup():
    for scheme, expected in ((HammingScheme(2, 2), 8), (H42, 384)):
        els = list(enumerate_full_group(scheme))
        assert len(els) == expected == group_order(scheme)
        assert len(set(els)) == expected
    assert group_order(HammingScheme(6, 2)) == 46080


def test_enumerate_full_group_matches_closure_oracle():
    # independent route: BFS closure from standard generators
    for scheme in (HammingScheme(2, 2), H32, HammingScheme(2, 3)):
        enumerated = list(enumerate_full_group(scheme))
        generated = closure(full_group_generators(scheme))
        assert sorted(enumerated, key=lambda x: x.sort_key) == generated


def test_enumerate_full_group_canonical_order():
    els = list(enumerate_full_group(H32))
    keys = [x.sort_key for x in els]
    assert keys == sorted(keys)
    assert els[0] == Automorphism.identity(H32)


def test_enumerate_full_group_cap():
    with pytest.raises(FeasibilityError):
        enumerate_full_group(HammingScheme(12, 5))


def test_cap_checks_print_short_sizes_exactly_and_never_build_huge_ones(monkeypatch):
    with pytest.raises(FeasibilityError, match=r"^full group of H\(3,200000\) has order "
                       r"about 10\^\d+, over the group cap 100000000$") as info:
        enumerate_full_group(HammingScheme(3, 200000))
    assert info.value.required is None
    monkeypatch.setattr(hamnt.wreath_group, "DEFAULT_GROUP_CAP", 1000)
    with pytest.raises(FeasibilityError, match=r"^full group of H\(10,2\) has order "
                       r"3715891200, over the group cap 1000$"):
        enumerate_full_group(HammingScheme(10, 2))
    with pytest.raises(FeasibilityError, match=r"^H\(20000,2\) has about 10\^6021 vertices"):
        check_enumeration_cap(HammingScheme(20000, 2))
    # a long size near the cap is decided exactly; the cap is read at call time
    monkeypatch.setattr(hamnt.hamming_core, "DEFAULT_ENUMERATION_CAP", 2**400)
    assert check_enumeration_cap(HammingScheme(400, 2)) == 2**400
    monkeypatch.setattr(hamnt.hamming_core, "DEFAULT_ENUMERATION_CAP", 2**400 - 1)
    with pytest.raises(FeasibilityError) as info:
        check_enumeration_cap(HammingScheme(400, 2))
    assert info.value.required == 2**400


def test_stabilizer_search_matches_brute_force_filter():
    # setwise_stabilizer's full element lists, in order: seeded sets of 1-12
    # vertices, the sets that keep many sigmas alive, and m = 1 (one block)
    rng = random.Random(34)
    cases = []
    for scheme in (HammingScheme(5, 2), H33, HammingScheme(2, 4)):
        verts = list(scheme.vertices())
        cases += [(scheme, rng.sample(verts, size)) for size in (1, 2, 3, 5, 8, 12)]
    cases += [(H42, []), (H42, list(H42.vertices())),
              (H42, build_family(4).C.neighbour_set)]
    H13 = HammingScheme(1, 3)
    cases += [(H13, vs) for vs in ([], [H13.vertex([1])],
                                   [H13.vertex([0]), H13.vertex([2])],
                                   list(H13.vertices()))]
    orders = set()
    for scheme, vs in cases:
        found = [(x.coord_perm, x.alphabet_perms) for x in setwise_stabilizer(vs, scheme)]
        assert found == brute_maps_into(scheme, vs, vs)
        orders.add(len(found))
    assert {1, 2, 6, 192, 384} <= orders


def test_stabilizer_chain_matches_brute_force_filter():
    # seeded sets, the empty set and the whole vertex set
    rng = random.Random(35)
    cases = []
    for scheme in (H33, H42, HammingScheme(2, 4), HammingScheme(5, 2)):
        verts = list(scheme.vertices())
        cases += [(scheme, rng.sample(verts, size)) for size in (1, 2, 3, 5, 8)]
        cases += [(scheme, []), (scheme, verts)]
    orders = set()
    for scheme, vs in cases:
        chain = stabilizer_chain(vs, scheme)
        assert chain.order == brute_stabilizer_order(scheme, vs)
        target = {v.entries for v in vs}
        for x in chain.generators:
            assert {raw_apply(x.coord_perm, x.alphabet_perms, w) for w in target} == target
        assert {(x.coord_perm, x.alphabet_perms)
                for x in closure(GeneratorSet(scheme, chain.generators))} == \
            set(brute_maps_into(scheme, vs, vs))
        # each generator extends its level's orbit, so at least doubles the
        # group generated before it
        assert len(chain.generators) <= math.log2(chain.order)
        orders.add(chain.order)
    assert {1, 2, 1152, 1296, 3840} <= orders


def test_schreier_sims_matches_closure():
    rng = random.Random(36)
    for scheme in (H32, H33, H42, HammingScheme(2, 4), HammingScheme(1, 3)):
        for _ in range(8):
            gens = GeneratorSet(scheme, tuple(random_automorphism(rng, scheme)
                                              for _ in range(rng.randint(1, 3))))
            chain = schreier_sims(gens)
            elements = set(closure(gens))
            assert chain.order == len(elements)
            assert set(closure(GeneratorSet(scheme, chain.generators))) == elements
        assert schreier_sims(full_group_generators(scheme)).order == group_order(scheme)
        assert schreier_sims(GeneratorSet(scheme, ())).order == 1
    assert schreier_sims(full_group_generators(HammingScheme(6, 3))).order == \
        group_order(HammingScheme(6, 3))


def test_least_outside_matches_brute_force_first():
    # G = Stab(S) and H = G meet Stab(T): the least element of G \ H is the
    # first element of the brute-force list of G that moves T
    rng = random.Random(37)
    kinds = Counter()
    for scheme, trials in ((H32, 40), (H42, 40), (HammingScheme(5, 2), 30),
                           (HammingScheme(2, 3), 40), (H33, 40),
                           (HammingScheme(4, 3), 8), (HammingScheme(2, 4), 30)):
        verts = list(scheme.vertices())
        for _ in range(trials):
            source = rng.sample(verts, rng.randint(1, 4))
            target = {v.entries for v in rng.sample(verts, rng.randint(1, 4))}
            chain = stabilizer_chain(source, scheme)
            got = least_outside(chain, fixing(scheme, target))
            want = next(((sigma, gs) for sigma, gs in brute_maps_into(scheme, source, source)
                         if {raw_apply(sigma, gs, w) for w in target} != target), None)
            assert (got and (got.coord_perm, got.alphabet_perms)) == want
            kinds["none" if want is None else
                  "sigma = id" if want[0] == tuple(range(scheme.m)) else "sigma != id"] += 1
            # re-based and run to the end, Schreier-Sims finds the same order
            gens = [x.points for x in chain.generators]
            _, _, trans = _schreier_sims(gens, scheme.m * scheme.q,
                                         _canonical_levels(scheme.m, scheme.q))
            assert math.prod(len(t) for t in trans) == chain.order
    assert min(kinds.values()) >= 10 and len(kinds) == 3, kinds


def test_least_outside_follows_key_order_not_insertion_order():
    # chains from schreier_sims keep their generators' order, so a level's
    # transversal is often filled out of key order: for the coordinate
    # 3-cycle c of H(3,2), level 0 (sigma(0)) is filled 0, 2, 1
    c = Automorphism.from_coord_perm(H32, (2, 0, 1))
    chain = schreier_sims(GeneratorSet(H32, (c,)))
    assert list(_rebase(chain)[2][0]) == [(0,), (2,), (1,)]
    # <c> meets Stab({100}) in the identity, so deep = 1 and the answer is
    # the least child of level 0 outside it, c^2 (sigma(0) = 1), not c
    assert least_outside(chain, fixing(H32, {(1, 0, 0)})) == c.compose(c)
    # random generated groups against the first element of closure that
    # moves a random set or an orbit (fixed by the whole group)
    rng = random.Random(38)
    kinds = Counter()
    for scheme in (H32, H33, H42, HammingScheme(2, 4)):
        verts = list(scheme.vertices())
        for _ in range(30):
            gens = GeneratorSet(scheme, tuple(random_automorphism(rng, scheme)
                                              for _ in range(rng.randint(1, 2))))
            chain, elements = schreier_sims(gens), closure(gens)
            for vs in (rng.sample(verts, rng.randint(1, 4)), orbit(gens, rng.choice(verts))):
                target = {v.entries for v in vs}
                want = next((x for x in elements
                             if {raw_apply(x.coord_perm, x.alphabet_perms, w)
                                 for w in target} != target), None)
                assert least_outside(chain, fixing(scheme, target)) == want
                kinds["none" if want is None else "some"] += 1
    assert min(kinds.values()) >= 100, kinds


def test_entry_action_matches_raw_apply():
    # apply, orbit, stabilizes_set, is_code_automorphism and chain._fixes
    # share one action on entry tuples; each is checked against raw_apply
    # on (sigma, gs) drawn here, and the point tuple is built here too
    rng = random.Random(41)
    verdicts = Counter()
    for scheme in (H32, H33, HammingScheme(2, 4), HammingScheme(5, 2)):
        m, q = scheme.m, scheme.q
        verts = list(scheme.vertices())

        def raw():
            return (tuple(rng.sample(range(m), m)),
                    tuple(tuple(rng.sample(range(q), q)) for _ in range(m)))

        for _ in range(25):
            sigma, gs = raw()
            x = Automorphism(scheme, gs, sigma)
            points = tuple(sigma[i] * q + gs[i][c] for i in range(m) for c in range(q))
            trusted = Automorphism._trusted(scheme, points)
            assert x.points == points and x == trusted and hash(x) == hash(trusted)
            assert (trusted.coord_perm, trusted.alphabet_perms) == (sigma, gs)
            checked = Automorphism(scheme, trusted.alphabet_perms, trusted.coord_perm)
            assert checked == trusted and hash(checked) == hash(trusted)
            for v in verts:
                assert x.apply(v).entries == raw_apply(sigma, gs, v.entries)
            # the cycle of x through a vertex is fixed by x; a random set
            # mostly is not
            cycle, w = set(), rng.choice(verts).entries
            while w not in cycle:
                cycle.add(w)
                w = raw_apply(sigma, gs, w)
            for words in (cycle, {v.entries for v in rng.sample(verts, rng.randint(1, 5))}):
                want = {raw_apply(sigma, gs, w) for w in words} == words
                vs = [Vertex(scheme, w) for w in words]
                assert stabilizes_set(vs, x) == want
                assert is_code_automorphism(Code(scheme, vs), x) == want
                assert _fixes([index_of(w, q) for w in words], scheme)(trusted) == want
                verdicts[want] += 1
        for _ in range(10):
            pairs = [raw() for _ in range(rng.randint(1, 2))]
            gens = GeneratorSet(scheme, tuple(Automorphism(scheme, gs, sigma)
                                              for sigma, gs in pairs))
            v = rng.choice(verts)
            seen, frontier = {v.entries}, [v.entries]
            while frontier:
                images = {raw_apply(sigma, gs, u) for u in frontier for sigma, gs in pairs}
                frontier = list(images - seen)
                seen |= images
            assert [u.entries for u in orbit(gens, v)] == sorted(seen)
    assert min(verdicts[True], verdicts[False]) >= 20, verdicts


def test_half_table_action_matches_raw_apply():
    # x acts on indices as hi[v // n] + lo[v % n], n = q^(m - m//2); against
    # raw_apply on (sigma, gs) drawn here, at every m from 1 to 10 (odd and
    # even halves) and q up to 9, on up to 300 vertices per element
    rng = random.Random(47)
    for m in range(1, 11):
        for q in range(2, 10):
            if q ** ((m + 1) // 2) > 2**16:
                continue
            scheme = HammingScheme(m, q)
            for _ in range(3):
                sigma = tuple(rng.sample(range(m), m))
                gs = tuple(tuple(rng.sample(range(q), q)) for _ in range(m))
                x = Automorphism(scheme, gs, sigma)
                hi, lo, n = x._actor
                assert n == q ** (m - m // 2) and len(lo) == n and len(hi) == q ** (m // 2)
                xs = rng.sample(range(q**m), min(300, q**m))
                want = [index_of(raw_apply(sigma, gs, _vertex_at(scheme, v).entries), q)
                        for v in xs]
                assert _act(x._actor, xs) == want
    # at m = 1 the first half is empty: hi = [0] and lo is g_0
    x = Automorphism(HammingScheme(1, 5), ((2, 4, 1, 0, 3),), (0,))
    assert x._actor == ([0], [2, 4, 1, 0, 3], 5)


def test_index_orbit_matches_tuple_orbit():
    # the int _orbit of a random vertex under 1 to 3 random elements, and
    # with a size it stops at, against the breadth-first orbit of helpers
    rng = random.Random(48)
    for scheme in (H32, H33, H42, HammingScheme(2, 4), HammingScheme(5, 2), HammingScheme(3, 5)):
        m, q = scheme.m, scheme.q
        for _ in range(15):
            gens = [random_automorphism(rng, scheme) for _ in range(rng.randint(1, 3))]
            v = tuple(rng.randrange(q) for _ in range(m))
            want = {index_of(w, q) for w in tuple_orbit(gens, v)}
            actors = [x._actor for x in gens]
            assert _orbit(actors, index_of(v, q)) == want
            assert _orbit(actors, index_of(v, q), len(want)) == want


def test_action_tables_are_capped():
    # an element's tables hold q^(m//2) and q^(m - m//2) entries; past the
    # cap on the larger, the action refuses before building one
    big = HammingScheme(40, 2)
    x = Automorphism.identity(big)
    with pytest.raises(FeasibilityError, match="needs tables of 1048576 entries"):
        x.apply(big.zero())
    ok = HammingScheme(32, 2)
    e3 = ok.vertex([int(i == 3) for i in range(32)])
    assert Automorphism.identity(ok).apply(e3) == e3


def test_schreier_sims_stops_at_a_known_order(monkeypatch):
    scheme = HammingScheme(8, 2)
    chain = stabilizer_chain(build_family(8).C.neighbour_set, scheme)
    gens = [x.points for x in chain.generators]
    levels = _canonical_levels(8, 2)
    sifts = []
    real_sift = hamnt.chain._sift
    monkeypatch.setattr(hamnt.chain, "_sift", lambda *a: sifts.append(1) or real_sift(*a))
    _, _, full = _schreier_sims(gens, 16, levels)
    to_the_end = len(sifts)
    _, _, known = _schreier_sims(gens, 16, levels, chain.order)
    assert [list(t) for t in full] == [list(t) for t in known]
    assert ([[t.element(b) for b in t] for t in full]
            == [[t.element(b) for b in t] for t in known])
    assert math.prod(len(t) for t in known) == chain.order
    # the known order spares the sifts that would prove the chain complete
    assert len(sifts) - to_the_end < to_the_end / 2
    # re-based onto a known order the group does not reach, it refuses
    chain.order *= 2
    with pytest.raises(RuntimeError, match="internal error"):
        _rebase(chain)


def test_random_phase_matches_closure(monkeypatch):
    # bounded by the true order, the random phase certifies the chain; by
    # twice that, it cannot, and the deterministic loop finds the true order
    sifts = count_sifts(monkeypatch)
    rng = random.Random(44)
    for scheme in (H32, H33, H42, HammingScheme(2, 4)):
        levels = _block_levels(scheme.m, scheme.q)
        ident = tuple(range(scheme.m * scheme.q))
        for _ in range(10):
            gens = GeneratorSet(scheme, tuple(random_automorphism(rng, scheme)
                                              for _ in range(rng.randint(1, 3))))
            elements = set(closure(gens))
            for bound in (len(elements), 2 * len(elements)):
                runs = []
                for _ in range(2):
                    sifts.clear()
                    chain = schreier_sims(gens, bound)
                    runs.append((chain.generators, len(sifts)))
                assert chain.order == len(elements)
                assert set(closure(GeneratorSet(scheme, chain.generators))) == elements
                # the same found list and sift count on every call
                assert runs[0] == runs[1]
                # strong[k] generates G^(k), the elements fixing the keys
                # of levels 0..k-1
                _, strong, _ = _schreier_sims([x.points for x in gens.generators],
                                              len(ident), levels, bound=bound)
                for k, gens_k in enumerate(strong):
                    fixing = {x for x in elements
                              if all(_key(x.points, lv) == _key(ident, lv) for lv in levels[:k])}
                    assert set(closure(GeneratorSet(scheme, tuple(
                        Automorphism._trusted(scheme, s) for s in gens_k)))) == fixing


def test_known_order_rebase_walks_the_same_elements(monkeypatch):
    # the random phase changes which representatives the transversals hold,
    # but the canonical levels determine each element, so the walk over
    # the known-order re-base lists what the run to the end lists
    sifts = count_sifts(monkeypatch)
    cases = [(build_family(m).stab_gens, 2**m * math.factorial(m // 2)) for m in (6, 8)]
    rng = random.Random(45)
    for _ in range(40):
        gens = GeneratorSet(H33, tuple(random_automorphism(rng, H33)
                                       for _ in range(rng.randint(1, 2))))
        cases.append((gens, len(closure(gens))))
    walked = differ = 0
    for gens, order in cases:
        m, q = gens.scheme.m, gens.scheme.q
        levels, ident = _canonical_levels(m, q), tuple(range(m * q))
        points = [x.points for x in gens.generators]
        sifts.clear()
        _, _, known = _schreier_sims(points, m * q, levels, order)
        if not sifts:
            assert m == 3  # the family's generators need sifts
            continue
        _, _, full = _schreier_sims(points, m * q, levels)
        assert list(_walk(known, levels, 0, ident)) == list(_walk(full, levels, 0, ident))
        walked += 1
        differ += [t.elements for t in known] != [t.elements for t in full]
    assert walked >= 20 and differ >= 10, (walked, differ)


def test_search_cap_and_scheme_are_checked_at_the_call(monkeypatch):
    # one source and one target in H(4,2): masks of 4 bits, over a cap of 3
    monkeypatch.setattr(hamnt.chain, "_MASK_BITS", 3)
    code = Code(H42, [H42.zero()])
    with pytest.raises(FeasibilityError, match="hold 4 bits, over the mask cap 3$"):
        find_equivalence(code, code)
    with pytest.raises(FeasibilityError, match="hold 4 bits, over the mask cap 3$"):
        stabilizer_chain([H42.zero()], H42)
    with pytest.raises(SchemeMismatchError):
        find_equivalence(Code(H32, [H32.zero()]), code)
    with pytest.raises(SchemeMismatchError):
        stabilizer_chain([H32.zero()], H42)


def test_closure_empty_and_translations():
    assert closure(GeneratorSet(H42, ())) == [Automorphism.identity(H42)]
    gens = GeneratorSet(H42, tuple(translation(H42.vertex([int(i == j) for j in range(4)]))
                                   for i in range(4)))
    els = closure(gens)
    assert len(els) == 16


def test_closure_cap_is_error_not_truncation(monkeypatch):
    gens = full_group_generators(H42)
    monkeypatch.setattr(hamnt.wreath_group, "DEFAULT_GROUP_CAP", 100)
    with pytest.raises(FeasibilityError):
        closure(gens)


def test_closure_family_generators_orders():
    # closure order is |C| * (m/2)! * 2 for the family's Aut(C) generators
    assert len(closure(build_family(4).autC_gens)) == 8
    assert len(closure(build_family(6).autC_gens)) == 48


def test_orbit_examples():
    assert orbit(GeneratorSet(H42, ()), H42.vertex([1, 0, 1, 0])) == \
        (H42.vertex([1, 0, 1, 0]),)
    # the full group is vertex transitive
    got = orbit(full_group_generators(H42), H42.zero())
    assert got == tuple(sorted(H42.vertices()))


def test_orbit_family_neighbours():
    inst = build_family(6)
    nbrs = inst.C.neighbour_set
    assert orbit(inst.autC_gens, nbrs[0]) == nbrs
    assert len(nbrs) == 24


def test_conjugate_orbit_equivariance():
    rng = random.Random(6)
    for _ in range(10):
        gens = GeneratorSet(H32, tuple(random_automorphism(rng, H32) for _ in range(2)))
        y = random_automorphism(rng, H32)
        conj = GeneratorSet(H32, tuple(conjugated_by(x, y) for x in gens.generators))
        for v in H32.vertices():
            lhs = orbit(conj, y.apply(v))
            rhs = tuple(sorted(y.apply(w) for w in orbit(gens, v)))
            assert lhs == rhs


def test_conjugated_family_generators_stabilize_translated_code():
    inst = build_family(4)
    y = translation(H42.vertex([1, 0, 0, 0]))
    moved = inst.C.image(y)
    conj = GeneratorSet(H42, tuple(conjugated_by(x, y) for x in inst.autC_gens.generators))
    for x in closure(conj):
        assert moved.image(x) == moved


def test_triples_single_orbit_under_full_group():
    for scheme in (H32, HammingScheme(2, 3)):
        triples = {(t.alpha, t.nu, t.beta) for t in enumerate_triples(scheme)}
        base = next(iter(sorted(triples)))
        reached = {(x.apply(base[0]), x.apply(base[1]), x.apply(base[2]))
                   for x in enumerate_full_group(scheme)}
        assert reached == triples


def test_automorphism_text_form():
    x = Automorphism(H42, ((1, 0), (0, 1), (0, 1), (0, 1)), (1, 0, 2, 3))
    assert automorphism_to_text(x) == \
        "perm=[1,0,2,3]; g0=[1,0]; g1=[0,1]; g2=[0,1]; g3=[0,1]"


def test_scheme_mismatch_errors():
    x = Automorphism.identity(H42)
    with pytest.raises(SchemeMismatchError):
        x.apply(H33.zero())
    with pytest.raises(SchemeMismatchError):
        x.compose(Automorphism.identity(H33))


def test_grow_meets_only_the_new_generators_with_the_old_entries():
    # a transversal grown one generator at a time holds the keys of the
    # orbit, each with an element of the group carrying that key, and is
    # grown exactly as a run over all the generators of the old entries
    rng = random.Random(44)
    for scheme in (H32, H33, H42, HammingScheme(2, 4)):
        ident = tuple(range(scheme.m * scheme.q))
        for _ in range(10):
            xs = [random_automorphism(rng, scheme) for _ in range(rng.randint(1, 3))]
            group = {x.points for x in closure(GeneratorSet(scheme, tuple(xs)))}
            gens = [x.points for x in xs]
            for level in _canonical_levels(scheme.m, scheme.q) + _block_levels(scheme.m, scheme.q):
                step, full = (_Transversal(_key(ident, level), ident),
                              _Transversal(_key(ident, level), ident))
                for k in range(len(gens)):
                    _grow(step, level, gens[:k + 1], k)
                    _grow(full, level, gens[:k + 1])
                    assert list(step) == list(full)
                    assert [step.element(b) for b in step] == [full.element(b) for b in full]
                assert set(step) == {_key(u, level) for u in group}
                assert all(_key(step.element(b), level) == b and step.element(b) in group
                           for b in step)


def test_pruning_model_rows_are_the_lexicographic_permutations():
    # rows[p][i] is (masks, key) of the i-th lexicographic g: the targets'
    # masks at p permuted by g, and g's block key at p.  The target sets
    # leave symbols out and repeat entries, so several symbols share a
    # mask (absent ones share 0): the rows must follow g's positions
    rng = random.Random(29)
    for q in range(2, 8):
        scheme = HammingScheme(2, q)
        verts = list(scheme.vertices())
        for size in (1, 2, q + 1):
            targets = sorted(index_of(v.entries, q) for v in rng.sample(verts, size))
            _, rows, _ = _pruning_model(targets[:1], targets, scheme)
            for p in range(2):
                pos_val = [sum(1 << t for t, x in enumerate(targets)
                               if x // q ** (1 - p) % q == c) for c in range(q)]
                assert rows[p] == [(tuple(pos_val[c] for c in g), tuple(p * q + c for c in g))
                                   for g in itertools.permutations(range(q))]
                if size == 1:
                    assert pos_val.count(0) == q - 1


def test_first_leaf_is_the_least_element_mapping_s_onto_t():
    # the search's order reads (sigma(0), g_0, sigma(1), g_1, ...); its
    # first leaf, whose depth-d key is sigma(d)*q + g_d(c) for each symbol
    # c, is the least element of the brute-force filter in that order, or
    # None when no element maps S onto T
    rng = random.Random(46)
    kinds = Counter()
    for scheme in (H33, H42, HammingScheme(2, 4), HammingScheme(5, 2)):
        verts = list(scheme.vertices())
        for i in range(30):
            source = rng.sample(verts, rng.randint(1, 4))
            x = random_automorphism(rng, scheme)
            target = ([x.apply(v) for v in source] if i % 2
                      else rng.sample(verts, len(source)))
            full, rows, levels = _pruning_model(
                sorted(index_of(v.entries, scheme.q) for v in source),
                sorted(index_of(v.entries, scheme.q) for v in target), scheme)
            leaf = _first_leaf(levels, rows, list(range(scheme.m)), [full], [])
            want = min(([(sigma[d], gs[d]) for d in range(scheme.m)]
                        for sigma, gs in brute_maps_into(scheme, source, target)), default=None)
            assert (leaf and [(key[0] // scheme.q, tuple(k % scheme.q for k in key))
                              for key in leaf]) == want
            kinds["none" if want is None else "leaf"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_classify_searches_once_and_tests_each_generator_once(monkeypatch):
    # one classify of the H(3,3) repetition code (a non-fixing witness, so
    # least_outside re-bases): one Sims' backtrack, whose transversals hold
    # parent pointers to its strong generators and which builds no
    # element, and one membership test per tested element
    searches, active, built, chains, tested = [], [], [], [], Counter()
    real_search, real_element = hamnt.code_model._stabilizer_chain, _Transversal.element
    real_fixes = hamnt.chain._fixes

    def search(words, scheme):
        searches.append(words)
        active.append(True)
        try:
            return real_search(words, scheme)
        finally:
            active.pop()

    def element(trans, b):
        if active:
            built.append(b)
        return real_element(trans, b)

    class Chain(hamnt.chain.StabilizerChain):
        def __init__(self, scheme, strong, transversals):
            chains.append((strong, transversals))
            super().__init__(scheme, strong, transversals)

    def fixes(indices, scheme):
        inside = real_fixes(indices, scheme)
        return lambda s: tested.update([s]) or inside(s)

    monkeypatch.setattr(hamnt.code_model, "_stabilizer_chain", search)
    monkeypatch.setattr(_Transversal, "element", element)
    monkeypatch.setattr(hamnt.chain, "StabilizerChain", Chain)
    monkeypatch.setattr(hamnt.transitivity, "_fixes", fixes)
    code = Code.from_entries(H33, [[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    report = classify_theorem(code)
    assert report.witness is not None and report.stabilizer_order == 108
    assert len(searches) == 1 and built == []
    [(strong, transversals)] = chains
    assert all(pointer is None or (pointer[0] in trans and pointer[1] in strong)
               for trans in transversals for pointer in trans.values())
    assert tested and set(tested.values()) == {1}
