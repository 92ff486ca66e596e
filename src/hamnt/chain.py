"""Stabilizer chains of subgroups of S_q wr S_m: order, strong generators
and the least element outside a subgroup, without listing the elements.
The wreath_group module docstring describes them and their callers.

A level (lo, hi, d) keys an element u by tuple(u[lo:hi]), each point
divided by d.  Block levels (k*q, (k+1)*q, 1) key by block k's image;
the canonical levels, (k*q, k*q + 1, q) keyed by sigma(k) for each k and
then the block levels, order elements canonically."""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .hamming_core import HammingScheme, Vertex
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, GeneratorSet,
                           _invert, _leaves, _narrow, _pruning_model,
                           check_group_cap)

# Elements are point-image tuples, built as tuple([...]): tuple(generator)
# raised the peak RSS of a classify sweep by about 1 MB.


def _points(pairs, q: int) -> tuple[int, ...]:
    """The point permutation of the (sigma(i), g_i) pairs, i ascending."""
    return tuple([p * q + gc for p, g in pairs for gc in g])


def _element(scheme: HammingScheme, s: tuple[int, ...]) -> Automorphism:
    m, q = scheme.m, scheme.q
    return Automorphism._trusted(
        scheme, tuple([tuple([pt % q for pt in s[i * q:(i + 1) * q]]) for i in range(m)]),
        tuple([s[i * q] // q for i in range(m)]))


def _key(u: tuple[int, ...], level: tuple[int, int, int]) -> tuple[int, ...]:
    lo, hi, d = level
    return u[lo:hi] if d == 1 else tuple([pt // d for pt in u[lo:hi]])


def _block_levels(m: int, q: int) -> list[tuple[int, int, int]]:
    return [(k * q, (k + 1) * q, 1) for k in range(m)]


def _canonical_levels(m: int, q: int) -> list[tuple[int, int, int]]:
    return [(k * q, k * q + 1, q) for k in range(m)] + _block_levels(m, q)


def _grow(trans: dict, level: tuple[int, int, int], gens: list[tuple[int, ...]]) -> None:
    """Close trans, the transversal of a level (key -> element with that
    key), under gens in place; entries keep their element."""
    lo, hi, d = level
    frontier = list(trans.values())
    while frontier:
        new = []
        for u in frontier:
            for s in gens:
                b = tuple([s[i] // d for i in u[lo:hi]])
                if b not in trans:
                    trans[b] = v = tuple([s[i] for i in u])
                    new.append(v)
        frontier = new


def _sift(x: tuple[int, ...], transversals: list[dict], levels: list, start: int):
    """(residue, level): x times the inverse transversal element of its
    key, level by level from start, until a transversal misses the key
    (level) or every level is passed (level = len(levels))."""
    for k in range(start, len(levels)):
        lo, hi, d = levels[k]
        b = x[lo:hi]  # _key, inlined: this loop is the hot path of Schreier-Sims
        u = transversals[k].get(b if d == 1 else tuple([pt // d for pt in b]))
        if u is None:
            return x, k
        uinv = _invert(u)
        x = tuple([uinv[i] for i in x])
    return x, len(levels)


class StabilizerChain:
    """A subgroup of S_q wr S_m as a stabilizer chain (module docstring):
    its order and its strong generators, in the order they were found."""

    def __init__(self, scheme: HammingScheme, strong: list[tuple[int, ...]],
                 transversals: list[dict]):
        self.scheme = scheme
        self.order = math.prod([len(t) for t in transversals])
        self.generators = tuple([_element(scheme, s) for s in strong])


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
    blocks = _block_levels(m, q)
    transversals = [{_key(ident, b): ident} for b in blocks]
    strong: list[tuple[int, ...]] = []
    for k in reversed(range(m)):
        trans = transversals[k]
        _grow(trans, blocks[k], strong)
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
                    _grow(trans, blocks[k], strong)
    return StabilizerChain(scheme, strong, transversals)


def _schreier_sims(gens: list[tuple[int, ...]], n: int, levels: list,
                   order: int | None = None):
    """(found, strong, transversals) of the group the point tuples gens
    generate on n points, by deterministic Schreier-Sims over levels:
    found lists the strong generators as found, strong[k] those that fix
    the keys of levels 0..k-1.  Given the group's order, it stops once
    the transversal sizes multiply to it: a product of basic orbit sizes
    equal to the order makes the generators strong (Seress 2003, ch. 4)."""
    ident = tuple(range(n))
    base = [_key(ident, lv) for lv in levels]
    transversals = [{b: ident} for b in base]
    strong: list[list[tuple[int, ...]]] = [[] for _ in levels]
    found: list[tuple[int, ...]] = []

    def add(s: tuple[int, ...], low: int, high: int):
        found.append(s)
        for k in range(low, high + 1):
            strong[k].append(s)
            _grow(transversals[k], levels[k], strong[k])

    for s in gens:
        if s != ident and s not in found:
            add(s, 0, next(k for k, lv in enumerate(levels) if _key(s, lv) != base[k]))
    checked: list[set] = [set() for _ in levels]
    k = len(levels) - 1
    while k >= 0 and math.prod([len(t) for t in transversals]) != order:
        # levels k+1.. are complete: sift the Schreier generators of level k
        residue = None
        for b, u in transversals[k].items():
            for i, s in enumerate(strong[k]):
                if (b, i) in checked[k]:
                    continue
                checked[k].add((b, i))
                us = tuple([s[pt] for pt in u])
                vinv = _invert(transversals[k][_key(us, levels[k])])
                residue = _sift(tuple([vinv[pt] for pt in us]), transversals, levels, k + 1)
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
    if order is not None and math.prod([len(t) for t in transversals]) != order:
        raise RuntimeError(f"internal error: Schreier-Sims ended below the known order {order}")
    return found, strong, transversals


def schreier_sims(gens: GeneratorSet) -> StabilizerChain:
    """The subgroup generated by gens as a stabilizer chain, by the
    deterministic Schreier-Sims algorithm."""
    m, q = gens.scheme.m, gens.scheme.q
    points = [_points(zip(x.coord_perm, x.alphabet_perms), q) for x in gens.generators]
    found, _, transversals = _schreier_sims(points, m * q, _block_levels(m, q))
    return StabilizerChain(gens.scheme, found, transversals)


def fixes_entries(entries: Iterable[tuple[int, ...]], q: int) -> Callable[[tuple[int, ...]], bool]:
    """The membership test, on point tuples, of the setwise stabilizer of
    a set of vertices given as entry tuples."""
    words = set(entries)
    # a point's position is pt // q, so sorting the images orders them by position
    return lambda s: all(tuple([pt % q for pt in sorted([s[i * q + c] for i, c in enumerate(w)])])
                         in words for w in words)


def least_outside(chain: StabilizerChain,
                  inside: Callable[[tuple[int, ...]], bool]) -> Automorphism | None:
    """The least element, canonical order, of the chain's group G outside
    its subgroup H = {x in G : inside(x)}, or None when H = G; inside
    tests a point tuple.

    On the canonical levels, the elements sharing u's keys at levels
    0..k-1 form the coset G^(k) u; its children G^(k+1) t u, t in level
    k's transversal, are ordered by the key of t u.  G^(k) lies in H for
    k >= deep.  Above deep every such coset meets G \\ H, and its least
    child is the one holding the identity, the least element of the
    group; at deep a coset lies in H iff u does.  So the search starts at
    level deep - 1 with u = id, takes the least child not in H there,
    then least children.
    """
    m, q = chain.scheme.m, chain.scheme.q
    gens = [_points(zip(x.coord_perm, x.alphabet_perms), q) for x in chain.generators]
    if all(map(inside, gens)):
        return None
    levels = _canonical_levels(m, q)
    _, strong, transversals = _schreier_sims(gens, m * q, levels, chain.order)
    # G^(k) lies in H iff its strong generators do, and then so does G^(k+1)
    deep = sum([not all(map(inside, gens_k)) for gens_k in strong])
    u = tuple(range(m * q))
    for k in range(deep - 1, len(levels)):
        lo, hi, d = levels[k]
        # the key of t u at level k, without building t u
        ts = sorted(transversals[k].values(), key=lambda t: [u[pt] // d for pt in t[lo:hi]])
        children = (tuple([u[pt] for pt in t]) for t in ts)
        u = next(v for v in children if k >= deep or not inside(v))
    return _element(chain.scheme, u)
