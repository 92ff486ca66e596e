"""Setwise stabilizers, neighbour transitivity, and the trichotomy classifier.

The stabilizer of a vertex set S in the full group is found by exhaustive
search with pruning: the outer loop runs over coordinate permutations
sigma in lexicographic order; for each sigma a backtracking search
assigns the per-coordinate alphabet permutations g_0, g_1, ... in
coordinate order.  A partial assignment (g_0..g_k) pins the image of
every s in S on the positions sigma(0)..sigma(k); each s keeps a bitmask
of the members of S still compatible with its partial image, and a branch
dies as soon as some mask empties.  Since every group element is a
bijection, mapping S into S already means mapping it onto S, so the leaf
test is just "every mask non-empty".  The leaves appear exactly in the
canonical enumeration order of the full group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .code_model import Code, is_code_automorphism, stabilizes_set
from .errors import HypothesisError, MinDistanceError, SchemeMismatchError
from .hamming_core import HammingScheme, Vertex
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, GeneratorSet,
                           automorphism_from_text, automorphism_to_text,
                           check_group_cap, enumerate_full_group, orbit)

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
    check_group_cap(scheme, group_cap)
    vs = list(vertices)
    for v in vs:
        if v.scheme != scheme:
            raise SchemeMismatchError("set member from a different scheme")
    words = sorted({v.entries for v in vs})
    m, q = scheme.m, scheme.q
    n = len(words)
    if n == 0:
        # everything stabilizes the empty set
        return list(enumerate_full_group(scheme, group_cap))

    # bitmask of candidate targets per (position, symbol)
    full = (1 << n) - 1
    pos_val = [[0] * q for _ in range(m)]
    for t, w in enumerate(words):
        for p, c in enumerate(w):
            pos_val[p][c] |= 1 << t
    perms = list(itertools.permutations(range(q)))

    result: list[Automorphism] = []
    for sigma in itertools.permutations(range(m)):
        chosen: list[tuple[int, ...]] = []

        def search(depth: int, masks: list[int]):
            if depth == m:
                result.append(Automorphism(scheme, tuple(chosen), sigma))
                return
            pv = pos_val[sigma[depth]]
            for g in perms:
                nxt = []
                for s, w in enumerate(words):
                    nm = masks[s] & pv[g[w[depth]]]
                    if not nm:
                        break
                    nxt.append(nm)
                else:
                    chosen.append(g)
                    search(depth + 1, nxt)
                    chosen.pop()

        search(0, [full] * n)
    return result


def is_neighbour_transitive(code: Code, gens: GeneratorSet) -> bool:
    """True iff the generated group fixes Gamma_1(C) setwise and is transitive on it.

    A group preserving a finite set acts transitively on it iff the orbit
    of one point covers it, so only one orbit computation is needed.
    """
    if gens.scheme != code.scheme:
        raise SchemeMismatchError("generators from a different scheme")
    nbrs = code.neighbour_set
    if not nbrs:
        raise ValueError("neighbour set is empty; transitivity is undefined")
    if not all(stabilizes_set(nbrs, x) for x in gens.generators):
        return False
    return orbit(gens, nbrs[0]) == nbrs


def neighbour_orbits(code: Code, gens: GeneratorSet) -> list[tuple[Vertex, ...]]:
    """Orbit partition of Gamma_1(C) under the generated group.

    Cells are sorted internally and listed by least element; the code is
    neighbour transitive for these generators iff there is one cell.
    """
    if gens.scheme != code.scheme:
        raise SchemeMismatchError("generators from a different scheme")
    nbrs = code.neighbour_set
    for x in gens.generators:
        if not stabilizes_set(nbrs, x):
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

    stabilizer: list[Automorphism]
    first_nonfixing: Automorphism | None
    transitive_on_neighbours: bool


def analyze_stabilizer(code: Code,
                       group_cap: int = DEFAULT_GROUP_CAP) -> StabilizerAnalysis:
    """Stabilizer of Gamma_1(C), its first element (canonical order) that
    moves C, and whether it is transitive on Gamma_1(C).

    The stabilizer is listed element by element, so the orbit of the least
    neighbour is just its set of images.  Needs a non-empty neighbour set.
    """
    nbrs = code.neighbour_set
    stab = setwise_stabilizer(nbrs, code.scheme, group_cap)
    first = next((x for x in stab if not is_code_automorphism(code, x)), None)
    transitive = {x.apply(nbrs[0]) for x in stab} == set(nbrs)
    return StabilizerAnalysis(stab, first, transitive)


def classify_theorem(code: Code,
                     group_cap: int = DEFAULT_GROUP_CAP) -> ClassificationReport:
    """Analyze one code against the delta >= 3 trichotomy.

    Computes the setwise stabilizer of the neighbour set; if every element
    fixes the code the verdict is FIXED, otherwise the first non-fixing
    element in canonical order is reported together with the parameter
    case it falls under.  A non-fixing witness whose parameters fit
    neither allowed case is tagged VIOLATION: that would falsify the
    trichotomy and is treated by callers as a failed assertion, never as
    a crash.
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
        stabilizer_order=len(analysis.stabilizer),
        transitive_on_neighbours=analysis.transitive_on_neighbours)
