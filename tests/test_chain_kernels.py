"""The chain engine's kernels against their list forms and breadth-first
oracles, and its once-only rules: one action table per element per call,
cap messages formatted only on refusal, and an over-bound search table
held for one top-level call and released on return."""

import io
import random
import sys
from collections import Counter

import pytest

import hamnt.chain
import hamnt.code_model
import hamnt.family_codes
import hamnt.hamming_core
import hamnt.lemmas
import hamnt.precodeword
import hamnt.transitivity
import hamnt.wreath_group
from hamnt import (Automorphism, Code, HammingScheme, full_group_generators, run_lemma_suite,
                   translation, write_code_file)
from hamnt.chain import (_block_levels, _canonical_levels, _grow, _holding_tables, _key,
                         _Transversal)
from hamnt.cli import main
from hamnt.family_codes import build_family
from hamnt.wreath_group import _coordinate_swaps
from helpers import key_closure, random_automorphism, random_code_min_distance

SCHEMES = [HammingScheme(m, q) for m in range(1, 7) for q in range(2, 6)]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    return main(argv, out, err), out.getvalue(), err.getvalue()


@pytest.mark.parametrize("scheme", SCHEMES, ids=str)
def test_gather_composition_matches_the_list_form(scheme):
    # x followed by y is y[pt] for each point pt of x: compose and the
    # transversal elements, each key's path of generators multiplied
    # point by point
    rng = random.Random(scheme.m * 10 + scheme.q)
    ident = tuple(range(scheme.m * scheme.q))
    for _ in range(10):
        x, y = random_automorphism(rng, scheme), random_automorphism(rng, scheme)
        assert x.compose(y).points == tuple([y.points[pt] for pt in x.points])
    gens = [random_automorphism(rng, scheme).points for _ in range(2)]
    for level in _block_levels(scheme.m, scheme.q):
        trans = _Transversal(_key(ident, level), ident)
        _grow(trans, level, gens)
        for b in trans:
            path, c = [], b
            while trans[c] is not None:
                c, s = trans[c]
                path.append(s)
            want = ident
            for s in reversed(path):
                want = tuple([s[pt] for pt in want])
            assert trans.element(b) == want and _key(want, level) == b


@pytest.mark.parametrize("scheme", SCHEMES, ids=str)
def test_grow_closes_the_keys_of_the_breadth_first_oracle(scheme):
    # on every level, grown at once or one generator at a time
    rng = random.Random(scheme.m * 7 + scheme.q)
    ident = tuple(range(scheme.m * scheme.q))
    levels = _canonical_levels(scheme.m, scheme.q) + _block_levels(scheme.m, scheme.q)
    for _ in range(4):
        gens = [random_automorphism(rng, scheme).points for _ in range(rng.randint(1, 3))]
        for level in levels:
            whole, step = ({_key(ident, level): None}, {_key(ident, level): None})
            _grow(whole, level, gens)
            for k in range(len(gens)):
                _grow(step, level, gens[:k + 1], k)
            assert set(whole) == set(step) == key_closure(gens, level)


@pytest.mark.parametrize("scheme", SCHEMES, ids=str)
def test_unchecked_builders_give_the_validated_elements(scheme):
    m, q = scheme.m, scheme.q
    ident = tuple(range(q))
    want = [Automorphism(scheme, [(1, 0) + ident[2:]] + [ident] * (m - 1), range(m))]
    if q > 2:
        want.append(Automorphism(scheme, [ident[1:] + (0,)] + [ident] * (m - 1), range(m)))
    if m > 1:
        want.append(Automorphism.from_coord_perm(scheme, [1, 0] + list(range(2, m))))
    if m > 2:
        want.append(Automorphism.from_coord_perm(scheme, [(i + 1) % m for i in range(m)]))
    assert [x.points for x in full_group_generators(scheme).generators] == \
        [x.points for x in want]
    rng = random.Random(m * 5 + q)
    for _ in range(5):
        images = rng.sample(range(m), m)
        pairs = [tuple(images[i:i + 2]) for i in range(0, m - 1, 2)]
        swapped = list(range(m))
        for i, j in pairs:
            swapped[i], swapped[j] = j, i
        assert _coordinate_swaps(scheme, pairs) == Automorphism.from_coord_perm(scheme, swapped)
        alpha = scheme.vertex([rng.randrange(q) for _ in range(m)])
        if q == 2:
            perms = [(1, 0) if e else (0, 1) for e in alpha.entries]
            assert translation(alpha) == Automorphism(scheme, perms, range(m))
        else:
            with pytest.raises(ValueError, match="q = 2 only"):
                translation(alpha)


def test_family_bases_are_valid_elements():
    for m in (4, 6, 8):
        inst = build_family(m)
        for x in inst.autC_gens.generators + inst.stab_gens.generators + (inst.witness,):
            assert x == Automorphism(inst.scheme, x.alphabet_perms, x.coord_perm)


def _code_files(tmp_path) -> list[str]:
    rng = random.Random(27)
    codes = [Code.from_entries(HammingScheme(3, 3), [[0, 0, 0], [1, 1, 1], [2, 2, 2]]),
             build_family(6).C]
    codes += [random_code_min_distance(rng, HammingScheme(3, 3), rng.choice((2, 3)), 3)
              for _ in range(8)]
    codes += [random_code_min_distance(rng, HammingScheme(4, 2), 2, 3) for _ in range(4)]
    paths = []
    for i, code in enumerate(codes):
        paths.append(str(tmp_path / f"c{i}.code"))
        write_code_file(code, paths[-1])
    return paths


def test_one_call_builds_one_action_table_per_element(tmp_path, monkeypatch):
    # each element builds its tables once however many rules test it, and
    # a second identical call builds as many as the first: nothing is
    # kept from one call to the next
    built = []
    real = hamnt.wreath_group._half_tables
    for module in (hamnt.chain, hamnt.code_model, hamnt.family_codes, hamnt.lemmas,
                   hamnt.precodeword, hamnt.transitivity, hamnt.wreath_group):
        if hasattr(module, "_half_tables"):
            monkeypatch.setattr(module, "_half_tables",
                                lambda points, m, q: built.append(points) or real(points, m, q))
    argvs = [[command, "--input", path, "--format", "json"]
             for path in _code_files(tmp_path) for command in ("classify", "stabilizer")]
    argvs += [["family", "--m", "8", "--exhaustive"], ["family", "--m", "6"]]
    moved = 0
    for argv in argvs:
        counts = []
        for _ in range(2):
            built.clear()
            code, out, _ = run(argv)
            assert code == 0 and Counter(built).most_common(1)[0][1] == 1, argv
            counts.append(len(built))
        assert counts[0] == counts[1] > 0
        moved += '"first_nonfixing": "perm' in out  # least_outside walked past the generators
    assert moved >= 2


def test_a_passing_call_formats_no_cap_message(tmp_path, monkeypatch):
    checked, formatted = [], []
    for module in (hamnt.chain, hamnt.code_model, hamnt.family_codes, hamnt.hamming_core,
                   hamnt.wreath_group):
        def check_cap(ln_size, exact, cap, message, real=module.check_cap):
            checked.append(cap)
            return real(ln_size, exact, cap, lambda size: formatted.append(size) or message(size))
        monkeypatch.setattr(module, "check_cap", check_cap)
    argvs = [["classify", "--input", path] for path in _code_files(tmp_path)]
    argvs += [["family", "--m", "8", "--exhaustive"], ["lemmas", "--m", "4", "--q", "3"]]
    for argv in argvs:
        assert run(argv)[0] == 0
    assert len(checked) >= 5 * len(argvs) and formatted == []
    code, _, err = run(["lemmas", "--m", "1", "--q", "10"])
    assert (code, formatted) == (2, [36288000]) and "36288000 masks" in err


def test_an_over_bound_table_is_held_for_one_call_and_released(monkeypatch):
    # with the bound at 100 rows, H(1,6)'s 720 are over it: the lemma
    # suite's six searches share one table, which nothing keeps afterwards
    monkeypatch.setattr(hamnt.chain, "_TABLE_ROWS", 100)
    monkeypatch.setattr(hamnt.chain, "_kept", {})
    real, tables = hamnt.chain._tables, []
    monkeypatch.setattr(hamnt.chain, "_tables",
                        lambda m, q: tables.append(real(m, q)) or tables[-1])
    assert run_lemma_suite(1, 6).all_pass
    assert len(tables) == 6 and all(t is tables[0] for t in tables)
    assert hamnt.chain._held is None and hamnt.chain._kept == {}
    table = tables[0]
    tables.clear()
    assert sys.getrefcount(table) == 2  # this name and getrefcount's argument
    # nested blocks hold until the outermost ends, also when it raises
    with pytest.raises(ZeroDivisionError):
        with _holding_tables():
            with _holding_tables():
                first = real(1, 6)
            assert real(1, 6) is first
            1 / 0
    assert hamnt.chain._held is None and real(1, 6) is not first
