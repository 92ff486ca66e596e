"""The structural lemma suite: exhaustive checks on one small scheme H(m,q)."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from .code_model import Code, is_code_automorphism, stabilizes_set
from .family_codes import build_family
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme,
                           check_enumeration_cap, common_neighbours, distance,
                           enumerate_triples)
from .precodeword import verify_pre_structure
from .reporting import ClauseResult, all_clauses_pass
from .transitivity import setwise_stabilizer
from .wreath_group import (DEFAULT_GROUP_CAP, check_group_cap,
                           enumerate_full_group)

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
                    group_cap: int = DEFAULT_GROUP_CAP,
                    enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> LemmaSuiteReport:
    """Exhaustive small-scheme checks of the structural lemmas.

    Runs: the two-common-neighbours law over every distance-2 pair; the
    one-orbit law for triples under the full group; the implication
    "fixes the code => stabilizes its neighbour set" for every group
    element on sampled codes; and the full pre-codeword structure on
    every (alpha, y) neighbour-stabilizer witness discovered on the way.
    The full group is streamed once, feeding both group-wide checks.
    """
    scheme = HammingScheme(m, q)
    check_enumeration_cap(scheme, enumeration_cap)
    order = check_group_cap(scheme, group_cap)

    checks = []

    pairs = [(u, v) for u, v in itertools.combinations(scheme.vertices(), 2)
             if distance(u, v) == 2]
    size2_ok = all(len(common_neighbours(u, v)) == 2 for u, v in pairs)
    checks.append(ClauseResult(
        "two_common_neighbours", size2_ok, f"{len(pairs)} distance-2 pairs"))

    triples = [(t.alpha, t.nu, t.beta) for t in enumerate_triples(scheme, enumeration_cap)]
    codes = _sample_codes(scheme, random.Random(seed), 6)
    reached = set()
    implication_ok = True
    aut_count = 0
    for x in enumerate_full_group(scheme, group_cap):
        if triples:
            alpha, nu, beta = triples[0]
            reached.add((x.apply(alpha), x.apply(nu), x.apply(beta)))
        for code in codes:
            if is_code_automorphism(code, x):
                aut_count += 1
                if not stabilizes_set(code.neighbour_set, x):
                    implication_ok = False
    if triples:
        checks.append(ClauseResult(
            "triples_single_orbit", reached == set(triples),
            f"orbit {len(reached)} of {len(triples)} triples under {order} elements"))
    else:
        checks.append(ClauseResult("triples_single_orbit", True,
                                   "no triples exist at m = 1"))
    checks.append(ClauseResult(
        "code_automorphisms_stabilize_neighbours", implication_ok,
        f"{aut_count} code automorphisms over {len(codes)} sampled codes"))

    witnesses = []  # (code, alpha, y) with y stabilizing G1(C), alpha^y not in C
    for code in codes:
        if code.min_distance >= 3 and code.neighbour_set:
            for x in setwise_stabilizer(code.neighbour_set, scheme, group_cap):
                for alpha in code.words:
                    if x.apply(alpha) not in code:
                        witnesses.append((code, alpha, x))

    checked = witnesses[:MAX_PRE_VERIFICATIONS]
    # a list, so that every witness is checked even after a failure
    pre_ok = all([verify_pre_structure(*w).all_pass for w in checked])
    checks.append(ClauseResult(
        "pre_structure_on_witnesses", pre_ok,
        f"verified {len(checked)} of {len(witnesses)} discovered (alpha, y) pairs"))

    return LemmaSuiteReport(m=m, q=q, seed=seed, checks=tuple(checks))
