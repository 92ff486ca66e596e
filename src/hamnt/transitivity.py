"""Setwise stabilizers (stabilizer chains by `chain.stabilizer_chain`,
and their elements in canonical order), neighbour transitivity, and the
trichotomy classifier, whose witness is the least element of a chain
outside Aut(C) (`chain.least_outside`).  Transitivity on Gamma_1(C) has
one rule, _transitive_on_neighbours, shared by is_neighbour_transitive
and analyze_stabilizer.  Only setwise_stabilizer, which lists elements,
takes a group cap, on the order of the group it lists."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .chain import _elements, _fixes, least_outside, stabilizer_chain
from .code_model import (Code, _check_shells, _neighbours_fixed_by, neighbour_count,
                         neighbour_stabilizer)
from .errors import FeasibilityError, HypothesisError, MinDistanceError, SchemeMismatchError
from .hamming_core import HammingScheme, Vertex
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, GeneratorSet,
                           _orbit, automorphism_to_text)

VERDICT_FIXED = "FIXED"
VERDICT_NONFIXING = "NONFIXING_WITNESS"
CASE2 = "CASE2_delta4_q2_m_even"
CASE3 = "CASE3_delta3_mq1_even"
VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the trichotomy analysis of one code."""

    delta: int
    verdict: str
    witness: Automorphism | None
    theorem_case: str | None
    stabilizer_order: int
    transitive_on_neighbours: bool

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "verdict": self.verdict,
            "witness": automorphism_to_text(self.witness) if self.witness else None,
            "theorem_case": self.theorem_case,
            "stabilizer_order": self.stabilizer_order,
            "transitive_on_neighbours": self.transitive_on_neighbours,
        }


def setwise_stabilizer(vertices: Iterable[Vertex], scheme: HammingScheme,
                       group_cap: int = DEFAULT_GROUP_CAP) -> list[Automorphism]:
    """All automorphisms mapping the vertex set onto itself, canonical
    order; FeasibilityError when there are over group_cap of them."""
    chain = stabilizer_chain(vertices, scheme)
    if chain.order > group_cap:
        raise FeasibilityError(f"the setwise stabilizer in {scheme} has order {chain.order}, "
                               f"over the group cap {group_cap}")
    return _elements(chain)


def _transitive_on_neighbours(code: Code, xs) -> bool:
    """True iff the group the elements xs generate, which fixes the
    nonempty Gamma_1(C), is transitive on it: a group preserving a finite
    set acts transitively on it iff the orbit of one point is as large as
    the set, where the orbit search stops.  When delta >= 3 the point is a
    neighbour of the least codeword, and Gamma_1(C) is not built."""
    size = neighbour_count(code)
    if code.min_distance >= 3:  # the least codeword with entry 0 raised by one
        w, q, top = code._indices[0], code.scheme.q, code.scheme.q ** (code.scheme.m - 1)
        start = w + top if w // top < q - 1 else w - (q - 1) * top
    else:
        start = code._neighbour_indices[0]
    return len(_orbit([x._actor for x in xs], start, size)) == size


def is_neighbour_transitive(code: Code, gens: GeneratorSet) -> bool:
    """True iff the generated group fixes Gamma_1(C) setwise and is transitive on it."""
    if gens.scheme != code.scheme:
        raise SchemeMismatchError("generators from a different scheme")
    if not code._neighbour_indices:
        raise HypothesisError("neighbour set is empty; transitivity is undefined")
    return (_neighbours_fixed_by(code, gens.generators)
            and _transitive_on_neighbours(code, gens.generators))


@dataclass(frozen=True)
class StabilizerAnalysis:
    """The neighbour-set stabilizer of a code and what it does to the code."""

    order: int
    generators: tuple[Automorphism, ...]
    first_nonfixing: Automorphism | None
    transitive_on_neighbours: bool


def analyze_stabilizer(code: Code) -> StabilizerAnalysis:
    """Stabilizer of Gamma_1(C) (order and strong generators), its first
    element (canonical order) that moves C, and whether it is transitive
    on Gamma_1(C).

    The stabilizer fixes C iff every strong generator does; otherwise the
    first non-fixing element is the chain's least element outside Aut(C),
    which lies in the stabilizer because C determines Gamma_1(C).
    It is transitive iff its strong generators are.  Checks the
    enumeration cap on Gamma_1(C) (_check_shells) first, which is
    built only when delta < 3.
    """
    _check_shells(len(code), "codewords", code.scheme)
    if not neighbour_count(code):
        raise HypothesisError("neighbour set is empty; nothing to stabilize")
    chain = neighbour_stabilizer(code)
    # least_outside tests point tuples; a strong generator's own tables serve the orbit too
    fixes, gens = _fixes(code._indices, code.scheme), {x.points: x for x in chain.generators}
    first = least_outside(
        chain, lambda s: fixes(gens.get(s) or Automorphism._trusted(chain.scheme, s)))
    return StabilizerAnalysis(chain.order, chain.generators, first,
                              _transitive_on_neighbours(code, chain.generators))


def classify_theorem(code: Code) -> ClassificationReport:
    """Analyze one code against the delta >= 3 trichotomy.

    Computes the setwise stabilizer of the neighbour set as a stabilizer
    chain; if every element fixes the code the verdict is FIXED,
    otherwise the first non-fixing element in canonical order is reported
    together with the parameter case it falls under.  A non-fixing
    witness whose parameters fit neither allowed case is tagged
    VIOLATION: that would falsify the trichotomy and is treated by
    callers as a failed assertion, never as a crash.
    """
    delta = code.min_distance
    if len(code) <= 1:
        raise HypothesisError("classification needs at least two codewords")
    if delta < 3:
        raise MinDistanceError(
            f"classification needs minimum distance >= 3, code has {delta}")
    scheme = code.scheme
    analysis = analyze_stabilizer(code)
    witness = analysis.first_nonfixing
    if witness is None:
        verdict, case = VERDICT_FIXED, None
    elif delta == 4 and scheme.q == 2 and scheme.m % 2 == 0:
        verdict, case = VERDICT_NONFIXING, CASE2
    elif delta == 3 and (scheme.m * (scheme.q - 1)) % 2 == 0:
        verdict, case = VERDICT_NONFIXING, CASE3
    else:
        verdict, case = VERDICT_NONFIXING, VIOLATION
    return ClassificationReport(
        delta=int(delta), verdict=verdict, witness=witness, theorem_case=case,
        stabilizer_order=analysis.order,
        transitive_on_neighbours=analysis.transitive_on_neighbours)
