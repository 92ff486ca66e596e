"""The doubled-vector binary family in H(m,2), m even and at least 4.

Writing each length-m binary word as a pair (beta, gamma) of half-words,
the family consists of

    U = all doubled words (beta, beta), and
    C = the doubled words with beta of even weight,

so U has minimum distance 2, C has minimum distance 4, and both share one
neighbour set: the words whose halves differ in exactly one position.
Translating by any u in U \\ C preserves that neighbour set but moves C to
a disjoint coset, which is what makes this family the source of
neighbour-transitive codes that their neighbour-set stabilizer does not
fix.

Generator sets, built from one basis of U (the translations by the
doubled unit words e_i) and the coordinate swaps of
wreath_group._coordinate_swaps, with h = m/2:
  * autC_gens: translations by a basis of C, the products of adjacent U
    basis elements (the doubled words e_i + e_{i+1}), the doubled
    adjacent transpositions (i i+1)(i+h i+1+h) for i < h-1, and the
    half-swap prod_i (i, i+h).  These generate the transitive subgroup
    used to prove neighbour transitivity (closure order |C| * h! * 2).
  * stab_gens: the U basis, the same coordinate permutations, and
    additionally the single-column swap (0, h).  For m >= 6 the closure
    of these is the full neighbour-set stabilizer N_U >| K' with K' the
    wreath product S_2 wr S_h; the column swap is what extends the
    half-swap's simultaneous action to independent per-column swaps.
    (m = 4 is exceptional: there the stabilizer is the larger group
    N_W >| S_4, with W all even-weight words.)
  * witness: the first U basis element, the translation by the doubled
    e_0, which lies in U \\ C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .chain import _fixes, schreier_sims
from .code_model import Code, _neighbours_fixed_by, neighbour_stabilizer
from .errors import HypothesisError
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme, Vertex,
                           check_cap)
from .reporting import ClauseResult, all_clauses_pass
from .transitivity import is_neighbour_transitive
# unused here, but perfbench's tracer self-test checks that tracing rebinds it
from .transitivity import setwise_stabilizer  # noqa: F401
from .wreath_group import Automorphism, GeneratorSet, _coordinate_swaps, translation


@dataclass(frozen=True)
class FamilyInstance:
    """One member of the family plus its generator sets and witness."""

    m: int
    scheme: HammingScheme
    U: Code
    C: Code
    autC_gens: GeneratorSet
    stab_gens: GeneratorSet
    witness: Automorphism


@dataclass(frozen=True)
class FamilyReport:
    """Per-clause verdicts from verify_family."""

    m: int
    exhaustive: bool
    clauses: tuple[ClauseResult, ...]
    stabilizer_order: int | None

    @cached_property
    def all_pass(self) -> bool:
        return all_clauses_pass(self.clauses)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "exhaustive": self.exhaustive,
            "clauses": [c.to_json() for c in self.clauses],
            "stabilizer_order": self.stabilizer_order,
            "all_pass": self.all_pass,
        }


def _check_m(m: int):
    if m < 4 or m % 2 != 0:
        raise HypothesisError("m must be even and >= 4")


def build_family(m: int) -> FamilyInstance:
    """Construct U, C, the generator sets, and the non-fixing witness.
    The enumeration cap bounds m times the m * 2^(m/2) neighbours, which
    bounds the 2^(m/2) words too."""
    _check_m(m)
    h = m // 2
    check_cap(2 * math.log(m) + h * math.log(2), lambda: m * m * 2**h,
              DEFAULT_ENUMERATION_CAP,
              lambda size: f"the family at m = {m} has {size} neighbourhood tuple "
                           f"entries, over the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    scheme = HammingScheme(m, 2)

    # the doubled word of the half with index b has index b * 2^h + b
    U = Code._from_indices(scheme, [b << h | b for b in range(2**h)])
    C = Code._from_indices(scheme, [b << h | b for b in range(2**h) if b.bit_count() % 2 == 0])

    # translations by the doubled unit words, a basis of U; their
    # adjacent products translate by a basis of C
    u_basis = [translation(Vertex(scheme, [int(j % h == i) for j in range(m)])) for i in range(h)]
    c_basis = [u_basis[i].compose(u_basis[i + 1]) for i in range(h - 1)]
    swaps = [[(i, i + 1), (i + h, i + 1 + h)] for i in range(h - 1)]
    swaps.append([(i, i + h) for i in range(h)])
    k_gens = [_coordinate_swaps(scheme, pairs) for pairs in swaps]

    autC_gens = GeneratorSet(scheme, tuple(c_basis + k_gens))
    stab_gens = GeneratorSet(scheme, tuple(
        u_basis + k_gens + [_coordinate_swaps(scheme, [(0, h)])]))

    return FamilyInstance(m=m, scheme=scheme, U=U, C=C, autC_gens=autC_gens,
                          stab_gens=stab_gens, witness=u_basis[0])


def verify_family(m: int, exhaustive: bool = False) -> FamilyReport:
    """Run the family verification clauses for one m.

    Non-exhaustive mode checks everything provable from the construction
    and the generators (clauses 1-6).  Exhaustive mode additionally
    computes the order of the setwise stabilizer of the neighbour set, as
    a stabilizer chain by pruned search (on U, which is C plus its
    pre-codewords), and checks that the independently generated expected
    group lies in it and has that order (clause 7): every expected
    generator stabilizes the neighbour set, and Schreier-Sims, bounded by
    the search order, gives the order of the group they generate.  A
    generator stabilizes Gamma_1(C) iff its image code has the same
    neighbour set (clauses 5-7).  They are
    stab_gens for m >= 6; for m = 4, the translations by a basis of the
    even-weight words and the coordinate permutations (0 1), (0 1 2 3).
    Every m that build_family admits (m <= 26) passes the search's caps,
    in about 4 s and 200 MB at m = 26.
    """
    inst = build_family(m)
    h = m // 2
    clauses = []

    du, dc = inst.U.min_distance, inst.C.min_distance
    clauses.append(ClauseResult(
        "min_distances", du == 2 and dc == 4,
        f"delta_U={du}, delta_C={dc}"))

    nbrs_u = inst.U._neighbour_indices
    # (beta, gamma) with gamma = beta but for one entry
    expected_nbrs = {b << h | b ^ 1 << j for b in range(2**h) for j in range(h)}
    clauses.append(ClauseResult(
        "neighbour_set_formula", set(nbrs_u) == expected_nbrs,
        f"|G1(U)|={len(nbrs_u)}, pairs-at-distance-1 count={len(expected_nbrs)}"))

    nbrs_c = inst.C._neighbour_indices
    clauses.append(ClauseResult(
        "neighbour_sets_equal", nbrs_u == nbrs_c,
        f"|G1(U)|={len(nbrs_u)}, |G1(C)|={len(nbrs_c)}"))

    fixes_c = _fixes(inst.C._index_set, inst.scheme)
    fixes = all(fixes_c(x) for x in inst.autC_gens.generators)
    clauses.append(ClauseResult(
        "generators_fix_code", fixes,
        f"{len(inst.autC_gens.generators)} generators"))

    transitive = is_neighbour_transitive(inst.C, inst.autC_gens)
    clauses.append(ClauseResult(
        "neighbour_transitive", transitive,
        f"orbit of least neighbour under {len(inst.autC_gens.generators)} generators"))

    wit_stab = _neighbours_fixed_by(inst.C, (inst.witness,))
    wit_moves = not fixes_c(inst.witness)
    clauses.append(ClauseResult(
        "witness_moves_code", wit_stab and wit_moves,
        f"stabilizes_neighbours={wit_stab}, moves_code={wit_moves}"))

    stab_order = None
    if exhaustive:
        stab_order = neighbour_stabilizer(inst.C).order
        if m == 4:
            even = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))
            expected = GeneratorSet(inst.scheme, tuple(
                [translation(Vertex(inst.scheme, w)) for w in even]
                + [Automorphism.from_coord_perm(inst.scheme, s)
                   for s in ((1, 0, 2, 3), (1, 2, 3, 0))]))
            label = "translations by even-weight words with all coordinate permutations"
        else:
            expected = inst.stab_gens
            label = "closure of stab_gens"
        # the generators lie in the stabilizer, and a subgroup of the
        # stabilizer's order is all of it; inside, Schreier-Sims can stop
        # at that order, which bounds the subgroup's
        inside = _neighbours_fixed_by(inst.C, expected.generators)
        expected_order = schreier_sims(expected, stab_order if inside else None).order
        clauses.append(ClauseResult(
            "stabilizer_matches_expected", inside and stab_order == expected_order,
            f"search order {stab_order}, {label} order {expected_order}"))

    return FamilyReport(m=m, exhaustive=exhaustive, clauses=tuple(clauses),
                        stabilizer_order=stab_order)
