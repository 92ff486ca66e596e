"""The structural lemma suite: exhaustive checks on one small scheme H(m,q).

The triple orbit, the code automorphisms and the pre-codeword witnesses
come from stabilizer chains (module chain) by orbit-stabilizer
(Seress, Permutation Group Algorithms, 2003, ch. 4): no clause lists a
group or builds an orbit over the triples."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .chain import (StabilizerChain, _fixes, _holding_tables, _rebase, _stabilizer_chain,
                    _walk, schreier_sims)
from .code_model import Code, _check_shells, neighbour_stabilizer
from .family_codes import build_family
from .hamming_core import (HammingScheme, _index_ball, _index_shell, _index_steps,
                           _places, _vertex_at, check_enumeration_cap)
from .precodeword import _verify_pre_structures
from .reporting import ClauseResult, all_clauses_pass
from .wreath_group import Automorphism, _act, _orbit, full_group_generators, group_order

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


def _sample_codes(scheme: HammingScheme, rng: random.Random, count: int) -> list[Code]:
    """The family C where the scheme has one, then codes of 2 or 3 words
    drawn from the vertex indices."""
    codes = []
    if scheme.q == 2 and scheme.m >= 4 and scheme.m % 2 == 0:
        codes.append(build_family(scheme.m).C)
    vertices = range(scheme.vertex_count)
    while len(codes) < count:
        size = min(rng.choice((2, 3)), len(vertices))
        codes.append(Code._from_indices(scheme, rng.sample(vertices, size)))
    return codes


def _triple_stabilizer_order(scheme: HammingScheme, triple: tuple[int, int, int]) -> int:
    """|G_t| for a triple t = (alpha, nu, beta) of indices in the full
    group G.  The setwise stabilizer
    of {alpha, nu, beta} fixes nu, the one vertex adjacent to the other
    two; it swaps alpha and beta iff a strong generator does."""
    alpha, _, beta = triple
    chain = _stabilizer_chain(sorted(triple), scheme)
    swaps = any(_act(x._actor, (alpha,)) == [beta] for x in chain.generators)
    return chain.order // 2 if swaps else chain.order


def _walk_witnesses(code: Code, chain: StabilizerChain):
    """The witnesses (code, alpha, y) of a code, lazily: y in the chain's
    group, canonical order, then alpha ascending, with alpha^y not in C."""
    scheme, m, q = code.scheme, code.scheme.m, code.scheme.q
    levels, _, transversals = _rebase(chain)
    for u in _walk(transversals, levels, 0, tuple(range(m * q))):
        y = Automorphism._trusted(scheme, u)  # its tables serve the pre-codeword check too
        for alpha, img in zip(code._indices, _act(y._actor, code._indices)):
            if img not in code._index_set:
                yield code, _vertex_at(scheme, alpha), y


def _witnesses(stabs: list[tuple[Code, StabilizerChain]], cap: int) -> tuple[list, int]:
    """(first, total): the first cap witnesses over the codes of stabs,
    pairs of a code with delta >= 3 and the chain of G = Stab(G1(C)), code
    by code, and their number.  alpha^y lies in C for |G_alpha| *
    |C & alpha^G| elements y, so an orbit O of G holds |C & O|^2 * |G| / |O|
    pairs that are not witnesses."""
    first, total = [], 0
    for code, chain in stabs:
        words = code._index_set
        actors = [x._actor for x in chain.generators]
        left, count = set(words), len(words) * chain.order
        while left:
            reach = _orbit(actors, min(left))
            hit = len(reach.intersection(words))
            count -= chain.order // len(reach) * hit * hit
            left -= reach
        total += count
        first.extend(itertools.islice(_walk_witnesses(code, chain),
                                      min(cap - len(first), count)))
    return first, total


def _fixes_neighbours(code: Code, xs) -> bool:
    """True iff every x in xs maps Gamma_1(C) onto itself, tested on Gamma_1(C):
    _neighbours_fixed_by passes every x that fixes C, the implication under test."""
    fixes = _fixes(code._neighbour_indices, code.scheme)
    return all(fixes(x) for x in xs)


def _pair_walk(m: int, q: int):
    """(sizes, t0) on the vertex indices of H(m,q): the ordered distance-2
    pairs by their number of common neighbours, and the first triple
    (alpha, nu, beta) (a pair with one of them) or None."""
    place, pairs = _places(m, q), list(itertools.combinations(range(m), 2))
    steps = [_index_steps(x, q, place) for x in range(q**m)]
    balls = [frozenset(_index_ball(x, s)) for x, s in enumerate(steps)]
    sizes = Counter()
    for x, (s, ball) in enumerate(zip(steps, balls)):
        sizes.update([len(ball & balls[y]) for y in _index_shell(x, s, pairs)])
    ring = _index_shell(0, steps[0], pairs)
    first = ring and balls[0] & balls[min(ring)]
    return sizes, ((0, min(first), min(ring)) if first else None)


@_holding_tables()
def run_lemma_suite(m: int, q: int, seed: int = 0) -> LemmaSuiteReport:
    """Exhaustive small-scheme checks of the structural lemmas.

    Runs: the two-common-neighbours law over every distance-2 pair, on
    vertex indices (_pair_walk); the one-orbit law for triples under the
    full group; the implication "fixes the code => stabilizes its
    neighbour set" on Aut(C) for sampled codes; and the full pre-codeword
    structure on the first MAX_PRE_VERIFICATIONS (alpha, y)
    neighbour-stabilizer witnesses, one batch per code, with the number of
    all of them.  No clause lists a group.  The standard generators count
    once Schreier-Sims certifies that they generate the full group G; the
    triple orbit then has |G| / |G_t| elements for the first triple t, set
    against the walk's triple count.  Aut(C) is the stabilizer chain of C;
    the elements stabilizing a set form a subgroup, so its strong
    generators cover every element; it is Stab(G1(C)) too when D = C.
    The vertices and the pair walk's shells are checked first.
    """
    scheme = HammingScheme(m, q)
    check_enumeration_cap(scheme)
    _check_shells(scheme.vertex_count, "vertices", scheme, 2)

    checks = []

    sizes, t0 = _pair_walk(m, q)
    checks.append(ClauseResult(
        "two_common_neighbours", set(sizes) <= {2},
        f"{sum(sizes.values()) // 2} distance-2 pairs"))

    if t0 is not None:
        count, order = sum(k * n for k, n in sizes.items()), group_order(scheme)
        gens = full_group_generators(scheme)
        # bounded by |G|, Schreier-Sims reaches it iff gens generate G
        certified = schreier_sims(gens, order).order == order
        if certified:
            reached = order // _triple_stabilizer_order(scheme, t0)
        else:
            # the orbit of t0 under the generated subgroup, for the report
            reached, frontier = {t0}, [t0]
            while frontier:
                frontier = {tuple(_act(x._actor, t)) for x in gens.generators
                            for t in frontier} - reached
                reached |= frontier
            reached = len(reached)
        checks.append(ClauseResult(
            "triples_single_orbit", certified and reached == count,
            f"orbit {reached} of {count} triples under {order} elements"))
    else:
        checks.append(ClauseResult("triples_single_orbit", True,
                                   "no triples exist at m = 1"))
    codes = _sample_codes(scheme, random.Random(seed), 6)
    auts = [_stabilizer_chain(code._indices, scheme) for code in codes]
    implication_ok = all([_fixes_neighbours(code, aut.generators)
                          for code, aut in zip(codes, auts)])
    checks.append(ClauseResult(
        "code_automorphisms_stabilize_neighbours", implication_ok,
        f"{sum(aut.order for aut in auts)} code automorphisms over {len(codes)} sampled codes"))

    stabs = [(code, neighbour_stabilizer(code, aut))
             for code, aut in zip(codes, auts) if code.min_distance >= 3]
    checked, total = _witnesses(stabs, MAX_PRE_VERIFICATIONS)
    # one batch per code, as the witnesses come code by code; every report
    # is built before any is read, so every witness is checked after a failure
    reports = []
    for code, group in itertools.groupby(checked, key=lambda w: w[0]):
        reports.extend(_verify_pre_structures(code, [(alpha, y) for _, alpha, y in group]))
    pre_ok = all(r.all_pass for r in reports)
    checks.append(ClauseResult(
        "pre_structure_on_witnesses", pre_ok,
        f"verified {len(checked)} of {total} discovered (alpha, y) pairs"))

    return LemmaSuiteReport(m=m, q=q, seed=seed, checks=tuple(checks))
