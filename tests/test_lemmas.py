"""The lemma suite's generator path: pinned outputs, H(8,2), and the
certification of the triple-orbit generators."""

import io
import json
from pathlib import Path

import pytest

import hamnt.lemmas
from hamnt import Automorphism, GeneratorSet, full_group_generators
from hamnt.cli import main

# `lemmas --format json` on each (m, q, seed), keyed "m,q,seed", as
# [exit code, stdout], recorded at commit f4990cd, where the triple orbit
# streamed the full group and Aut(C) was listed element by element.
PINNED = json.loads((Path(__file__).parent / "data" / "lemmas_pinned.json").read_text())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def default_group_cap(monkeypatch):
    monkeypatch.delenv("HNT_GROUP_CAP", raising=False)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_lemmas_json_matches_pinned_output(key):
    m, q, seed = key.split(",")
    got = run(["lemmas", "--m", m, "--q", q, "--seed", seed, "--format", "json"])
    assert got == (PINNED[key][0], PINNED[key][1], "")


def test_lemmas_h82_passes_under_default_cap():
    code, out, _ = run(["lemmas", "--m", "8", "--q", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    assert [c["detail"] for c in data["checks"]] == [
        "3584 distance-2 pairs",
        "orbit 14336 of 14336 triples under 10321920 elements",
        "7224 code automorphisms over 6 sampled codes",
        "verified 40 of 24576 discovered (alpha, y) pairs",
    ]


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

