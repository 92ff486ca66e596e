"""The structural lemma suite: exhaustive checks on one small scheme H(m,q).

The triple orbit and the code automorphisms come from generators and
stabilizer chains (module chain); no clause lists the full group."""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import cached_property

from .chain import schreier_sims, stabilizer_chain
from .code_model import Code, _stabilized_by
from .family_codes import build_family
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme, _ball1,
                           _triple_entries, check_enumeration_cap)
from .precodeword import verify_pre_structure
from .reporting import ClauseResult, all_clauses_pass
from .transitivity import setwise_stabilizer
from .wreath_group import (DEFAULT_GROUP_CAP, _images, _orbit, check_group_cap,
                           full_group_generators)

#: Bound on the (alpha, y) pairs given the full pre-codeword structure check
#: during a lemma sweep; purely a runtime guard, the count is reported.
MAX_PRE_VERIFICATIONS = 40


@dataclass(frozen=True)
class LemmaSuiteReport:
    m: int
    q: int
    seed: int
    checks: tuple[ClauseResult, ...]

    @cached_property
    def all_pass(self) -> bool:
        return all_clauses_pass(self.checks)

    def to_json(self) -> dict:
        return {"m": self.m, "q": self.q, "seed": self.seed,
                "checks": [c.to_json() for c in self.checks],
                "all_pass": self.all_pass}

    @classmethod
    def from_json(cls, data: dict) -> "LemmaSuiteReport":
        return cls(m=data["m"], q=data["q"], seed=data["seed"],
                   checks=tuple(ClauseResult.from_json(c) for c in data["checks"]))


def _sample_codes(scheme: HammingScheme, rng: random.Random, count: int) -> list[Code]:
    verts = list(scheme.vertices())
    codes = []
    if scheme.q == 2 and scheme.m >= 4 and scheme.m % 2 == 0:
        codes.append(build_family(scheme.m).C)
    while len(codes) < count:
        size = min(rng.choice((2, 3)), len(verts))
        codes.append(Code(scheme, rng.sample(verts, size)))
    return codes


def run_lemma_suite(m: int, q: int, seed: int = 0,
                    group_cap: int = DEFAULT_GROUP_CAP) -> LemmaSuiteReport:
    """Exhaustive small-scheme checks of the structural lemmas.

    Runs: the two-common-neighbours law over every distance-2 pair; the
    one-orbit law for triples under the full group; the implication
    "fixes the code => stabilizes its neighbour set" on Aut(C) for sampled
    codes; and the full pre-codeword structure on every (alpha, y)
    neighbour-stabilizer witness discovered on the way.  No clause streams
    the full group.  The triple orbit is taken under the standard
    generators, which Schreier-Sims certifies to generate the full group.
    Aut(C) is the stabilizer chain of C; the elements stabilizing a set
    form a subgroup, so checking its strong generators covers every
    element, and the chain orders give the count.
    """
    scheme = HammingScheme(m, q)
    check_enumeration_cap(scheme, DEFAULT_ENUMERATION_CAP)
    order = check_group_cap(scheme, group_cap)

    checks = []

    vertices = itertools.product(range(q), repeat=m)
    pairs = [(u, v) for u, v in itertools.combinations(vertices, 2)
             if sum(map(operator.ne, u, v)) == 2]
    size2_ok = all(len(set(_ball1(u, q)).intersection(_ball1(v, q))) == 2
                   for u, v in pairs)
    checks.append(ClauseResult(
        "two_common_neighbours", size2_ok, f"{len(pairs)} distance-2 pairs"))

    # a triple as the 3m entries of alpha, nu and beta; x moves each
    # vertex's m entries, so its mover repeats at offsets 0, m and 2m
    flat = list(_triple_entries(scheme))
    codes = _sample_codes(scheme, random.Random(seed), 6)
    if flat:
        gens = full_group_generators(scheme)
        acts = [[(g, k * m + i) for k in range(3) for g, i in x._moves]
                for x in gens.generators]
        reached = _orbit(acts, flat[0])
        certified = schreier_sims(gens).order == order
        checks.append(ClauseResult(
            "triples_single_orbit", certified and reached == set(flat),
            f"orbit {len(reached)} of {len(flat)} triples under {order} elements"))
    else:
        checks.append(ClauseResult("triples_single_orbit", True,
                                   "no triples exist at m = 1"))
    implication_ok, aut_count = True, 0
    for code in codes:
        aut = stabilizer_chain(code.words, scheme, group_cap)
        aut_count += aut.order
        implication_ok = implication_ok and _stabilized_by(
            code.neighbour_set, aut.generators)
    checks.append(ClauseResult(
        "code_automorphisms_stabilize_neighbours", implication_ok,
        f"{aut_count} code automorphisms over {len(codes)} sampled codes"))

    witnesses = []  # (code, alpha, y) with y stabilizing G1(C), alpha^y not in C
    for code in codes:
        if code.min_distance >= 3 and code.neighbour_set:
            words = [w.entries for w in code.words]
            inside = set(words)
            for x in setwise_stabilizer(code.neighbour_set, scheme, group_cap):
                witnesses.extend((code, alpha, x) for alpha, img in zip(
                    code.words, _images(x._moves, words)) if img not in inside)

    checked = witnesses[:MAX_PRE_VERIFICATIONS]
    # a list, so that every witness is checked even after a failure
    pre_ok = all([verify_pre_structure(*w).all_pass for w in checked])
    checks.append(ClauseResult(
        "pre_structure_on_witnesses", pre_ok,
        f"verified {len(checked)} of {len(witnesses)} discovered (alpha, y) pairs"))

    return LemmaSuiteReport(m=m, q=q, seed=seed, checks=tuple(checks))
