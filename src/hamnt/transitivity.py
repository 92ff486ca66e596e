"""Setwise stabilizers (stabilizer chains by `chain.stabilizer_chain`,
and their elements in canonical order), neighbour transitivity, and the
trichotomy classifier, whose witness is the least element of a chain
outside Aut(C) (`chain.least_outside`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .chain import _elements, fixes_entries, least_outside, stabilizer_chain
from .code_model import (Code, _neighbours_fixed_by, _stabilized_by,
                         neighbour_stabilizer)
from .errors import HypothesisError, MinDistanceError, SchemeMismatchError
from .hamming_core import HammingScheme, Vertex
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, GeneratorSet,
                           _orbit, automorphism_from_text, automorphism_to_text,
                           check_group_cap, orbit)

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

    @classmethod
    def from_json(cls, data: dict, scheme: HammingScheme) -> "ClassificationReport":
        witness = data.get("witness")
        return cls(
            delta=data["delta"],
            verdict=data["verdict"],
            witness=automorphism_from_text(scheme, witness) if witness else None,
            theorem_case=data.get("theorem_case"),
            stabilizer_order=data["stabilizer_order"],
            transitive_on_neighbours=data["transitive_on_neighbours"],
        )


def setwise_stabilizer(vertices: Iterable[Vertex], scheme: HammingScheme,
                       group_cap: int = DEFAULT_GROUP_CAP) -> list[Automorphism]:
    """All automorphisms mapping the vertex set onto itself, canonical order."""
    return _elements(stabilizer_chain(vertices, scheme, group_cap))


def is_neighbour_transitive(code: Code, gens: GeneratorSet) -> bool:
    """True iff the generated group fixes Gamma_1(C) setwise and is transitive on it.

    A group preserving a finite set acts transitively on it iff the orbit
    of one point is as large as the set, so only one orbit is computed.
    """
    if gens.scheme != code.scheme:
        raise SchemeMismatchError("generators from a different scheme")
    nbrs = code._neighbour_entries
    if not nbrs:
        raise ValueError("neighbour set is empty; transitivity is undefined")
    if not _neighbours_fixed_by(code, gens.generators):
        return False
    return len(_orbit([x._moves for x in gens.generators], nbrs[0])) == len(nbrs)


def neighbour_orbits(code: Code, gens: GeneratorSet) -> list[tuple[Vertex, ...]]:
    """Orbit partition of Gamma_1(C) under the generated group.

    Cells are sorted internally and listed by least element; the code is
    neighbour transitive for these generators iff there is one cell.
    """
    if gens.scheme != code.scheme:
        raise SchemeMismatchError("generators from a different scheme")
    nbrs = code.neighbour_set
    if not _stabilized_by(nbrs, gens.generators):
        raise ValueError("a generator moves the neighbour set off itself")
    remaining = set(nbrs)
    cells = []
    for v in nbrs:
        if v not in remaining:
            continue
        cell = orbit(gens, v)
        cells.append(cell)
        remaining -= set(cell)
    return cells


@dataclass(frozen=True)
class StabilizerAnalysis:
    """The neighbour-set stabilizer of a code and what it does to the code."""

    order: int
    generators: tuple[Automorphism, ...]
    first_nonfixing: Automorphism | None
    transitive_on_neighbours: bool


def analyze_stabilizer(code: Code,
                       group_cap: int = DEFAULT_GROUP_CAP) -> StabilizerAnalysis:
    """Stabilizer of Gamma_1(C) (order and strong generators), its first
    element (canonical order) that moves C, and whether it is transitive
    on Gamma_1(C).

    The stabilizer fixes C iff every strong generator does; otherwise the
    first non-fixing element is the chain's least element outside Aut(C),
    which lies in the stabilizer because C determines Gamma_1(C).
    It is transitive iff the orbit of the least neighbour under the strong
    generators is as large as Gamma_1(C).  Checks the group cap first.
    """
    check_group_cap(code.scheme, group_cap)
    nbrs = code._neighbour_entries
    if not nbrs:
        raise HypothesisError("neighbour set is empty; nothing to stabilize")
    chain = neighbour_stabilizer(code, group_cap)
    first = least_outside(chain, fixes_entries([w.entries for w in code.words],
                                               code.scheme.q))
    transitive = len(_orbit([x._moves for x in chain.generators], nbrs[0])) == len(nbrs)
    return StabilizerAnalysis(chain.order, chain.generators, first, transitive)


def classify_theorem(code: Code,
                     group_cap: int = DEFAULT_GROUP_CAP) -> ClassificationReport:
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
    analysis = analyze_stabilizer(code, group_cap)
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
