"""Pre-codewords: distance-2 vertices that an automorphism pulls into the code.

Given a code C with minimum distance >= 3, a codeword alpha, and a
neighbour-set stabilizer y that moves alpha out of C, the pre-codewords
Pre(alpha, y) are the vertices pi at distance 2 from alpha with
apply(y, pi) in C.  Their neighbourhood cells partition the
neighbourhood of alpha into 2-element cells, which forces
|Pre(alpha, y)| = m(q-1)/2, and dually the codewords at distance 2 from a
pre-codeword pi partition the neighbourhood of pi.  verify_pre_structure
checks all of this exhaustively and reports per clause; a failing clause
would falsify the underlying mathematics, so it is expected never to fire.

The hypotheses are checked eagerly with typed errors: the statements are
conditional, and silently proceeding would verify vacuous claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .code_model import Code, _neighbours_fixed_by
from .errors import (ImageInCodeError, MinDistanceError, NotACodewordError,
                     NotNeighbourStabilizerError, SchemeMismatchError)
from .hamming_core import Vertex, _ball1, _shell_entries, vertex_to_text
from .reporting import ClauseResult, all_clauses_pass
from .wreath_group import Automorphism, _images, automorphism_to_text


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


def _check_hypotheses(code: Code, alpha: Vertex, y: Automorphism):
    if alpha.scheme != code.scheme or y.scheme != code.scheme:
        raise SchemeMismatchError("alpha, y and code must share one scheme")
    if code.min_distance < 3:
        raise MinDistanceError(
            f"pre-codewords need minimum distance >= 3, code has {code.min_distance}")
    if alpha not in code:
        raise NotACodewordError(f"{vertex_to_text(alpha)} is not a codeword")
    # y is a graph automorphism, so the image-code test decides it
    if not _neighbours_fixed_by(code, (y,)):
        raise NotNeighbourStabilizerError(
            "y does not stabilize the code's neighbour set")
    if _images(y._moves, (alpha.entries,))[0] in code._entry_set:
        raise ImageInCodeError(
            f"y maps {vertex_to_text(alpha)} back into the code")


def _pre_entries(code: Code, alpha: Vertex, y: Automorphism) -> list[tuple[int, ...]]:
    """Pre(alpha, y) as sorted entry tuples."""
    ring = _shell_entries(alpha.entries, code.scheme.q, 2)
    return [pi for pi, img in zip(ring, _images(y._moves, ring)) if img in code._entry_set]


def _cells(nbrs: set, others, q: int):
    """(cells, sizes_ok, disjoint, covered): the cells nbrs & Gamma_1(o)
    for o in others, and whether each has two elements, whether they are
    pairwise disjoint and whether they cover nbrs."""
    cells, seen, sizes_ok, disjoint = [], set(), True, True
    for o in others:
        cell = nbrs.intersection(_ball1(o, q))
        cells.append(cell)
        sizes_ok = sizes_ok and len(cell) == 2
        disjoint = disjoint and not seen & cell
        seen.update(cell)
    return cells, sizes_ok, disjoint, seen == nbrs


def pre_codewords(code: Code, alpha: Vertex, y: Automorphism) -> tuple[Vertex, ...]:
    """Pre(alpha, y): sorted distance-2 vertices that y maps into the code."""
    _check_hypotheses(code, alpha, y)
    return tuple([Vertex(code.scheme, pi) for pi in _pre_entries(code, alpha, y)])


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
    """
    _check_hypotheses(code, alpha, y)
    scheme = code.scheme
    q = scheme.q
    target = scheme.m * (q - 1)
    words = code._entry_set
    pre = _pre_entries(code, alpha, y)

    cells, cell_sizes_ok, disjoint, covered = _cells(set(_ball1(alpha.entries, q)), pre, q)
    clauses = [ClauseResult(
        "cells_partition_neighbourhood",
        cell_sizes_ok and disjoint and covered,
        f"cells={len(cells)} sizes_ok={cell_sizes_ok} disjoint={disjoint} "
        f"covered={covered}")]

    clauses.append(ClauseResult(
        "pre_count_half", 2 * len(pre) == target,
        f"|Pre|={len(pre)}, m(q-1)={target}"))

    gamma1 = set(code._neighbour_entries)
    inside = all(gamma1.issuperset(_ball1(pi, q)) for pi in pre)
    clauses.append(ClauseResult(
        "pre_neighbours_inside_code_neighbours", inside,
        f"checked {len(pre)} pre-codewords"))

    images_ok, failed = True, []
    for pi in pre:
        duals = [b for b in _shell_entries(pi, q, 2) if b in words]
        _, sizes_ok, disjoint_pi, covered_pi = _cells(set(_ball1(pi, q)), duals, q)
        images_ok = images_ok and words.isdisjoint(_images(y._moves, duals))
        if not (2 * len(duals) == target and sizes_ok and disjoint_pi and covered_pi):
            failed.append(vertex_to_text(Vertex(scheme, pi)))
    clauses.append(ClauseResult(
        "dual_cells_partition", not failed,
        f"failed at {','.join(failed)}" if failed else "all pre-codewords"))
    clauses.append(ClauseResult(
        "dual_images_outside_code", images_ok,
        f"checked duals of {len(pre)} pre-codewords"))

    pre_set = tuple([Vertex(scheme, pi) for pi in pre])
    return PreReport(
        alpha=alpha, y=y, pre_set=pre_set,
        cells=tuple([(v, tuple([Vertex(scheme, n) for n in sorted(cell)]))
                     for v, cell in zip(pre_set, cells)]),
        clauses=tuple(clauses))
