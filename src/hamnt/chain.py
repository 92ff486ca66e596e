"""Stabilizer chains of subgroups of S_q wr S_m: order and strong
generators without listing the elements.  The wreath_group module
docstring describes the chain, its two builders and their callers."""

from __future__ import annotations

import math
from typing import Iterable

from .hamming_core import HammingScheme, Vertex
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, GeneratorSet,
                           _invert, _leaves, _narrow, _pruning_model,
                           check_group_cap)

# Elements are point-image tuples, built as tuple([...]): tuple(generator)
# raised the peak RSS of a classify sweep by about 1 MB.


def _points(pairs, q: int) -> tuple[int, ...]:
    """The point permutation of the (sigma(i), g_i) pairs, i ascending."""
    return tuple([p * q + gc for p, g in pairs for gc in g])


def _grow(trans: dict, k: int, q: int, gens: list[tuple[int, ...]]) -> None:
    """Close trans, the transversal of block k (block image -> element
    moving block k there), under gens in place; entries keep their element."""
    lo, hi = k * q, (k + 1) * q
    frontier = list(trans.values())
    while frontier:
        new = []
        for u in frontier:
            for s in gens:
                b = tuple([s[i] for i in u[lo:hi]])
                if b not in trans:
                    trans[b] = v = tuple([s[i] for i in u])
                    new.append(v)
        frontier = new


def _sift(x: tuple[int, ...], transversals: list[dict], start: int):
    """(residue, level): x times the inverse transversal element of its
    block image, level by level from start, until a transversal misses the
    image (level) or every level is passed (level = m)."""
    q = len(x) // len(transversals)
    for k in range(start, len(transversals)):
        u = transversals[k].get(x[k * q:(k + 1) * q])
        if u is None:
            return x, k
        uinv = _invert(u)
        x = tuple([uinv[i] for i in x])
    return x, len(transversals)


class StabilizerChain:
    """A subgroup of S_q wr S_m as a stabilizer chain (module docstring):
    its order and its strong generators, in the order they were found."""

    def __init__(self, scheme: HammingScheme, strong: list[tuple[int, ...]],
                 transversals: list[dict]):
        m, q = scheme.m, scheme.q
        self.order = math.prod([len(t) for t in transversals])
        self.generators = tuple([Automorphism._trusted(
            scheme, tuple([tuple([pt % q for pt in s[i * q:(i + 1) * q]]) for i in range(m)]),
            tuple([s[i * q] // q for i in range(m)])) for s in strong])


def stabilizer_chain(vertices: Iterable[Vertex], scheme: HammingScheme,
                     group_cap: int = DEFAULT_GROUP_CAP) -> StabilizerChain:
    """The setwise stabilizer of a vertex set as a stabilizer chain, by
    Sims' backtrack over the search of maps_into."""
    check_group_cap(scheme, group_cap)
    vs = list(vertices)
    full, rows, levels = _pruning_model(vs, vs, scheme)
    m, q = scheme.m, scheme.q
    # the identity on blocks 0..k-1 prunes nothing; rows[k][0] is g_k = id
    fixed = [(k, rows[k][0][0]) for k in range(m)]
    prefix_masks = [[full]]
    for k in range(m - 1):
        prefix_masks.append(_narrow(levels[k], rows[k][0][1], prefix_masks[k]))
    ident = _points(fixed, q)
    transversals = [{ident[k * q:(k + 1) * q]: ident} for k in range(m)]
    strong: list[tuple[int, ...]] = []
    for k in reversed(range(m)):
        trans = transversals[k]
        _grow(trans, k, q, strong)
        for p in range(k, m):
            free = [r for r in range(k, m) if r != p]
            for g, row in rows[p]:
                if tuple([p * q + c for c in g]) in trans:
                    continue
                nxt = _narrow(levels[k], row, prefix_masks[k])
                if nxt is None:
                    continue
                leaf = next(_leaves(levels, rows, free, nxt, fixed[:k] + [(p, g)]), None)
                if leaf:
                    strong.append(_points(leaf, q))
                    _grow(trans, k, q, strong)
    return StabilizerChain(scheme, strong, transversals)


def schreier_sims(gens: GeneratorSet) -> StabilizerChain:
    """The subgroup generated by gens as a stabilizer chain, by the
    deterministic Schreier-Sims algorithm."""
    m, q = gens.scheme.m, gens.scheme.q
    ident = tuple(range(m * q))
    transversals = [{ident[k * q:(k + 1) * q]: ident} for k in range(m)]
    # strong[k]: the strong generators that fix blocks 0..k-1 pointwise
    strong: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    found: list[tuple[int, ...]] = []

    def add(s: tuple[int, ...], low: int, high: int):
        found.append(s)
        for k in range(low, high + 1):
            strong[k].append(s)
            _grow(transversals[k], k, q, strong[k])

    for x in gens.generators:
        s = _points(zip(x.coord_perm, x.alphabet_perms), q)
        if s != ident and s not in found:
            add(s, 0, next(i for i, pt in enumerate(s) if pt != i) // q)
    checked: list[set] = [set() for _ in range(m)]
    k = m - 1
    while k >= 0:
        # levels k+1..m-1 are complete: sift the Schreier generators of level k
        residue = None
        for b, u in transversals[k].items():
            for i, s in enumerate(strong[k]):
                if (b, i) in checked[k]:
                    continue
                checked[k].add((b, i))
                us = tuple([s[pt] for pt in u])
                vinv = _invert(transversals[k][us[k * q:(k + 1) * q]])
                residue = _sift(tuple([vinv[pt] for pt in us]), transversals, k + 1)
                if residue[0] != ident:
                    break
                residue = None
            if residue:
                break
        if residue is None:
            k -= 1
        else:
            add(residue[0], k + 1, residue[1])
            k = residue[1]
    return StabilizerChain(gens.scheme, found, transversals)
