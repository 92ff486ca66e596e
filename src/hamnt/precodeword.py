"""Pre-codewords: distance-2 vertices that an automorphism pulls into the code.

Given a code C with minimum distance >= 3, a codeword alpha, and a
neighbour-set stabilizer y that moves alpha out of C, the pre-codewords
Pre(alpha, y) are the vertices pi at distance 2 from alpha with
apply(y, pi) in C.  Their neighbourhood cells partition the
neighbourhood of alpha into 2-element cells, which forces
|Pre(alpha, y)| = m(q-1)/2, and dually the codewords at distance 2 from a
pre-codeword pi partition the neighbourhood of pi.  verify_pre_structure
checks all of this exhaustively and reports per clause, with Pre(alpha, y)
as its sorted pre_set; a failing clause would falsify the underlying
mathematics, so it is expected never to fire.  It is the one-pair case
of _verify_pre_structures, which verifies many pairs of one code and does
the work that does not depend on the pair once: the duals and dual cells
of each pre-codeword, and the test that each y stabilizes the neighbour
set.  Its memos live for one call, on vertex indices (module hamming_core).

The hypotheses are checked eagerly with typed errors: the statements are
conditional, and silently proceeding would verify vacuous claims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .code_model import Code, _neighbours_fixed_by
from .errors import (ImageInCodeError, MinDistanceError, NotACodewordError,
                     NotNeighbourStabilizerError, SchemeMismatchError)
from .hamming_core import (Vertex, _index_ball, _index_of, _index_shell, _index_steps,
                           _places, _vertex_at, vertex_to_text)
from .reporting import ClauseResult, all_clauses_pass
from .wreath_group import Automorphism, _act, automorphism_to_text


@dataclass(frozen=True)
class PreReport:
    """Structural verdict for one (code, alpha, y) pre-codeword instance."""

    alpha: Vertex
    y: Automorphism
    pre_set: tuple[Vertex, ...]
    cells: tuple[tuple[Vertex, tuple[Vertex, ...]], ...]
    clauses: tuple[ClauseResult, ...]

    @cached_property
    def all_pass(self) -> bool:
        return all_clauses_pass(self.clauses)

    def to_json(self) -> dict:
        return {
            "alpha": vertex_to_text(self.alpha),
            "y": automorphism_to_text(self.y),
            "pre_set": [vertex_to_text(p) for p in self.pre_set],
            "cells": [{"pi": vertex_to_text(pi),
                       "neighbours": [vertex_to_text(n) for n in cell]}
                      for pi, cell in self.cells],
            "clauses": [c.to_json() for c in self.clauses],
            "all_pass": self.all_pass,
        }


def _check_hypotheses(code: Code, alpha: Vertex, y: Automorphism, stabilizers: set):
    """Raise the typed error of the first hypothesis that (alpha, y) breaks.
    stabilizers holds the points of each y already shown to stabilize
    Gamma_1(C); y joins it once shown."""
    if alpha.scheme != code.scheme or y.scheme != code.scheme:
        raise SchemeMismatchError("alpha, y and code must share one scheme")
    if code.min_distance < 3:
        raise MinDistanceError(
            f"pre-codewords need minimum distance >= 3, code has {code.min_distance}")
    if alpha not in code:
        raise NotACodewordError(f"{vertex_to_text(alpha)} is not a codeword")
    if y.points not in stabilizers:
        # y is a graph automorphism, so the image-code test decides it
        if not _neighbours_fixed_by(code, (y,)):
            raise NotNeighbourStabilizerError(
                "y does not stabilize the code's neighbour set")
        stabilizers.add(y.points)
    if _act(y._actor, (_index_of(alpha.entries, code.scheme.q),))[0] in code._index_set:
        raise ImageInCodeError(
            f"y maps {vertex_to_text(alpha)} back into the code")


def _cells(nbrs: frozenset, others, ball):
    """(cells, sizes_ok, disjoint, covered): the cells nbrs & ball(o) for
    o in others, where ball(o) is Gamma_1(o), and whether each has two
    elements, whether they are pairwise disjoint and whether they cover
    nbrs."""
    cells, seen, sizes_ok, disjoint = [], set(), True, True
    for o in others:
        cell = nbrs.intersection(ball(o))
        cells.append(cell)
        sizes_ok = sizes_ok and len(cell) == 2
        disjoint = disjoint and not seen & cell
        seen.update(cell)
    return cells, sizes_ok, disjoint, seen == nbrs


def verify_pre_structure(code: Code, alpha: Vertex, y: Automorphism) -> PreReport:
    """Exhaustively check the pre-codeword structure for one (alpha, y) pair.

    Clauses:
      cells_partition_neighbourhood  -- the sets G1(alpha) & G1(pi) are
          pairwise disjoint 2-element cells covering G1(alpha)
      pre_count_half                 -- |Pre| = m(q-1)/2
      pre_neighbours_inside_code_neighbours -- G1(pi) within G1(C) for each pi
      dual_cells_partition           -- for each pi, the sets G1(beta) & G1(pi)
          over beta in C(pi) partition G1(pi) into 2-element cells
      dual_images_outside_code       -- apply(y, beta) not in C for each such beta

    The one-pair case of _verify_pre_structures.
    """
    return _verify_pre_structures(code, [(alpha, y)])[0]


def _verify_pre_structures(code: Code, pairs: list) -> list[PreReport]:
    """verify_pre_structure on each (alpha, y) of pairs in turn, raising at
    the first pair that breaks a hypothesis.  What does not depend on the
    pair is found once per call: each vertex's ball, shell and Vertex,
    G1(C), whether each y stabilizes G1(C), and per pre-codeword pi its
    duals C(pi), their cells and the test G1(pi) within G1(C).
    Pre(alpha, y), alpha's cells and the duals' images under y are found
    per pair."""
    m, q, words = code.scheme.m, code.scheme.q, code._index_set
    target = m * (q - 1)
    stabilizers = set()
    # built on first use, after a pair has passed the hypotheses, so a
    # hypothesis error still comes before the enumeration cap's
    gamma1 = cache(lambda: frozenset(code._neighbour_indices))
    place, positions = _places(m, q), list(itertools.combinations(range(m), 2))
    ball = cache(lambda v: frozenset(_index_ball(v, _index_steps(v, q, place))))
    ring = cache(lambda v: sorted(_index_shell(v, _index_steps(v, q, place), positions)))
    vertex = cache(lambda v: _vertex_at(code.scheme, v))

    @cache
    def dual(pi):
        """(C(pi), whether its cells partition G1(pi), G1(pi) within G1(C))"""
        betas = [b for b in ring(pi) if b in words]
        _, sizes_ok, disjoint, covered = _cells(ball(pi), betas, ball)
        return (betas, 2 * len(betas) == target and sizes_ok and disjoint and covered,
                gamma1().issuperset(ball(pi)))

    reports = []
    for alpha, y in pairs:
        _check_hypotheses(code, alpha, y, stabilizers)
        a = _index_of(alpha.entries, q)
        pre = [pi for pi, img in zip(ring(a), _act(y._actor, ring(a))) if img in words]
        ds = [dual(pi) for pi in pre]

        cells, cell_sizes_ok, disjoint, covered = _cells(ball(a), pre, ball)
        clauses = [ClauseResult(
            "cells_partition_neighbourhood",
            cell_sizes_ok and disjoint and covered,
            f"cells={len(cells)} sizes_ok={cell_sizes_ok} disjoint={disjoint} "
            f"covered={covered}")]

        clauses.append(ClauseResult(
            "pre_count_half", 2 * len(pre) == target,
            f"|Pre|={len(pre)}, m(q-1)={target}"))

        clauses.append(ClauseResult(
            "pre_neighbours_inside_code_neighbours", all(inside for _, _, inside in ds),
            f"checked {len(pre)} pre-codewords"))

        failed = [vertex_to_text(vertex(pi)) for pi, (_, ok, _) in zip(pre, ds) if not ok]
        clauses.append(ClauseResult(
            "dual_cells_partition", not failed,
            f"failed at {','.join(failed)}" if failed else "all pre-codewords"))
        clauses.append(ClauseResult(
            "dual_images_outside_code",
            words.isdisjoint(_act(y._actor, [b for betas, _, _ in ds for b in betas])),
            f"checked duals of {len(pre)} pre-codewords"))

        reports.append(PreReport(
            alpha=alpha, y=y, pre_set=tuple([vertex(pi) for pi in pre]),
            cells=tuple([(vertex(pi), tuple([vertex(n) for n in sorted(cell)]))
                         for pi, cell in zip(pre, cells)]),
            clauses=tuple(clauses)))
    return reports
