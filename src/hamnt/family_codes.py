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

Generator sets:
  * autC_gens: translations by a basis of C, the doubled adjacent
    transpositions (i i+1)(i+h i+1+h) for i < h-1, and the half-swap
    prod_i (i, i+h), where h = m/2.  These generate the transitive
    subgroup used to prove neighbour transitivity (closure order
    |C| * h! * 2).
  * stab_gens: translations by a basis of U, the same coordinate
    permutations, and additionally the single-column swap (0, h).  For
    m >= 6 the closure of these is the full neighbour-set stabilizer
    N_U >| K' with K' the wreath product S_2 wr S_h; the column swap is
    what extends the half-swap's simultaneous action to independent
    per-column swaps.  (m = 4 is exceptional: there the stabilizer is
    the larger group N_W >| S_4, with W all even-weight words.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

from .code_model import Code, is_code_automorphism, stabilizes_set
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme, Vertex,
                           check_enumeration_cap)
from .reporting import ClauseResult, all_clauses_pass
from .transitivity import is_neighbour_transitive, setwise_stabilizer
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, GeneratorSet,
                           closure, translation)


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

    @classmethod
    def from_json(cls, data: dict) -> "FamilyReport":
        return cls(m=data["m"], exhaustive=data["exhaustive"],
                   clauses=tuple(ClauseResult.from_json(c) for c in data["clauses"]),
                   stabilizer_order=data.get("stabilizer_order"))


def _check_m(m: int):
    if m < 4 or m % 2 != 0:
        raise ValueError("m must be even and >= 4")


def _doubled(scheme: HammingScheme, beta: tuple[int, ...]) -> Vertex:
    return Vertex(scheme, beta + beta)


def _doubled_transposition(scheme: HammingScheme, i: int) -> Automorphism:
    """Coordinate permutation (i i+1)(i+h i+1+h): same transposition on both halves."""
    h = scheme.m // 2
    images = list(range(scheme.m))
    images[i], images[i + 1] = images[i + 1], images[i]
    images[i + h], images[i + 1 + h] = images[i + 1 + h], images[i + h]
    return Automorphism.from_coord_perm(scheme, images)


def _half_swap(scheme: HammingScheme) -> Automorphism:
    """Coordinate permutation exchanging the two halves wholesale."""
    h = scheme.m // 2
    return Automorphism.from_coord_perm(
        scheme, [(i + h) % scheme.m for i in range(scheme.m)])


def _column_swap(scheme: HammingScheme) -> Automorphism:
    """Coordinate transposition (0, h): swaps the halves in column 0 only."""
    h = scheme.m // 2
    images = list(range(scheme.m))
    images[0], images[h] = images[h], images[0]
    return Automorphism.from_coord_perm(scheme, images)


def build_family(m: int,
                 enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> FamilyInstance:
    """Construct U, C, the generator sets, and the non-fixing witness."""
    _check_m(m)
    scheme = HammingScheme(m, 2)
    check_enumeration_cap(scheme, enumeration_cap)
    h = m // 2

    halves = list(product(range(2), repeat=h))
    U = Code(scheme, (_doubled(scheme, b) for b in halves))
    C = Code(scheme, (_doubled(scheme, b) for b in halves if sum(b) % 2 == 0))

    # basis of C: doubled adjacent weight-2 words e_i + e_{i+1}
    c_basis = []
    for i in range(h - 1):
        b = [0] * h
        b[i] = b[i + 1] = 1
        c_basis.append(translation(_doubled(scheme, tuple(b))))
    # basis of U: doubled unit words
    u_basis = []
    for i in range(h):
        b = [0] * h
        b[i] = 1
        u_basis.append(translation(_doubled(scheme, tuple(b))))

    k_gens = [_doubled_transposition(scheme, i) for i in range(h - 1)]
    k_gens.append(_half_swap(scheme))

    autC_gens = GeneratorSet(scheme, tuple(c_basis + k_gens))
    stab_gens = GeneratorSet(scheme, tuple(u_basis + k_gens + [_column_swap(scheme)]))

    e0 = [0] * h
    e0[0] = 1
    witness = translation(_doubled(scheme, tuple(e0)))

    return FamilyInstance(m=m, scheme=scheme, U=U, C=C, autC_gens=autC_gens,
                          stab_gens=stab_gens, witness=witness)


def _expected_m4_stabilizer(scheme: HammingScheme) -> list[Automorphism]:
    """N_W >| S_4 for the m=4 exception: translations by even-weight words
    composed with every coordinate permutation."""
    even = [w for w in product(range(2), repeat=4) if sum(w) % 2 == 0]
    out = []
    for w in even:
        t = translation(Vertex(scheme, w))
        for images in permutations(range(4)):
            out.append(t.compose(Automorphism.from_coord_perm(scheme, images)))
    return sorted(out, key=lambda x: x.sort_key)


def verify_family(m: int, exhaustive: bool = False,
                  group_cap: int = DEFAULT_GROUP_CAP,
                  enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> FamilyReport:
    """Run the family verification clauses for one m.

    Non-exhaustive mode checks everything provable from the construction
    and the generators (clauses 1-6).  Exhaustive mode additionally
    computes the full setwise stabilizer of the neighbour set by pruned
    search and compares it, as a set, with the independently generated
    expected group (clause 7); this needs (q!)^m * m! within the group
    cap, so by default only m in {4, 6, 8} qualify.
    """
    inst = build_family(m, enumeration_cap)
    h = m // 2
    clauses = []

    du, dc = inst.U.min_distance, inst.C.min_distance
    clauses.append(ClauseResult(
        "min_distances", du == 2 and dc == 4,
        f"delta_U={du}, delta_C={dc}"))

    nbrs_u = inst.U.neighbour_set
    expected_nbrs = set()
    for beta in product(range(2), repeat=h):
        for j in range(h):
            gamma = list(beta)
            gamma[j] ^= 1
            expected_nbrs.add(Vertex(inst.scheme, beta + tuple(gamma)))
    clauses.append(ClauseResult(
        "neighbour_set_formula", set(nbrs_u) == expected_nbrs,
        f"|G1(U)|={len(nbrs_u)}, pairs-at-distance-1 count={len(expected_nbrs)}"))

    nbrs_c = inst.C.neighbour_set
    clauses.append(ClauseResult(
        "neighbour_sets_equal", nbrs_u == nbrs_c,
        f"|G1(U)|={len(nbrs_u)}, |G1(C)|={len(nbrs_c)}"))

    fixes = all(is_code_automorphism(inst.C, x) for x in inst.autC_gens.generators)
    clauses.append(ClauseResult(
        "generators_fix_code", fixes,
        f"{len(inst.autC_gens.generators)} generators"))

    transitive = is_neighbour_transitive(inst.C, inst.autC_gens)
    clauses.append(ClauseResult(
        "neighbour_transitive", transitive,
        f"orbit of least neighbour under {len(inst.autC_gens.generators)} generators"))

    wit_stab = stabilizes_set(nbrs_c, inst.witness)
    wit_moves = not is_code_automorphism(inst.C, inst.witness)
    clauses.append(ClauseResult(
        "witness_moves_code", wit_stab and wit_moves,
        f"stabilizes_neighbours={wit_stab}, moves_code={wit_moves}"))

    stab_order = None
    if exhaustive:
        stab = setwise_stabilizer(nbrs_c, inst.scheme, group_cap)
        stab_order = len(stab)
        if m == 4:
            expected = _expected_m4_stabilizer(inst.scheme)
            label = "translations by even-weight words with all coordinate permutations"
        else:
            expected = closure(inst.stab_gens, cap=group_cap)
            label = "closure of stab_gens"
        clauses.append(ClauseResult(
            "stabilizer_matches_expected", stab == expected,
            f"search order {stab_order}, {label} order {len(expected)}"))

    return FamilyReport(m=m, exhaustive=exhaustive, clauses=tuple(clauses),
                        stabilizer_order=stab_order)
