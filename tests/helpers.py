"""Shared test utilities: seeded random elements, independent oracles and
a sift counter.

The oracle functions here deliberately avoid the library's search and
enumeration code paths: they recompute expectations from first principles
(nested loops over vertices, brute-force filters over the full group) so
the tests remain dual-route.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

import hamnt.chain
from hamnt import (Automorphism, ClauseResult, Code, HammingScheme, PreReport,
                   Vertex, neighbours, setwise_stabilizer, shell, vertex_to_text)


def random_automorphism(rng: random.Random, scheme: HammingScheme) -> Automorphism:
    perms = tuple(tuple(rng.sample(range(scheme.q), scheme.q))
                  for _ in range(scheme.m))
    sigma = tuple(rng.sample(range(scheme.m), scheme.m))
    return Automorphism(scheme, perms, sigma)


def count_sifts(monkeypatch) -> list:
    """A list that gains one entry per chain._sift call from here on; the
    caller may clear it."""
    sifts = []
    real_sift = hamnt.chain._sift
    monkeypatch.setattr(hamnt.chain, "_sift", lambda *a: sifts.append(1) or real_sift(*a))
    return sifts


def conjugated_by(x: Automorphism, y: Automorphism) -> Automorphism:
    """y^-1 x y, through the public inverse and compose."""
    return y.inverse().compose(x).compose(y)


def random_code(rng: random.Random, scheme: HammingScheme, size: int) -> Code:
    verts = list(scheme.vertices())
    return Code(scheme, rng.sample(verts, size))


def random_code_min_distance(rng: random.Random, scheme: HammingScheme,
                             size: int, delta: int) -> Code:
    """Rejection-sample a code of the given size with min distance >= delta."""
    while True:
        code = random_code(rng, scheme, size)
        if code.min_distance >= delta:
            return code


def binary_span(rows) -> Code:
    """The binary linear code spanned by the rows of a generator matrix."""
    words = {tuple([0] * len(rows[0]))}
    for row in rows:
        words |= {tuple(a ^ b for a, b in zip(w, row)) for w in words}
    return Code.from_entries(HammingScheme(len(rows[0]), 2), words)


HAMMING_7_4 = [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
               [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]


def brute_distance(u: Vertex, v: Vertex) -> int:
    return sum(1 for a, b in zip(u.entries, v.entries) if a != b)


def brute_neighbours(v: Vertex) -> set[Vertex]:
    """Oracle: filter the whole vertex set by distance exactly 1."""
    return {w for w in v.scheme.vertices() if brute_distance(v, w) == 1}


def brute_triple_count(scheme: HammingScheme) -> int:
    """Oracle: nested enumeration over all vertex pairs at distance 2."""
    verts = list(scheme.vertices())
    count = 0
    for alpha in verts:
        for beta in verts:
            if brute_distance(alpha, beta) != 2:
                continue
            for nu in verts:
                if brute_distance(alpha, nu) == 1 and brute_distance(nu, beta) == 1:
                    count += 1
    return count


def ball1(entries: tuple[int, ...], q: int) -> list[tuple[int, ...]]:
    """The m(q-1) entry tuples at distance 1, by position then symbol."""
    out = []
    for i, e in enumerate(entries):
        head, tail = entries[:i], entries[i + 1:]
        out.extend([head + (c,) + tail for c in range(q) if c != e])
    return out


def shell_entries(entries: tuple[int, ...], q: int, radius: int) -> list[tuple[int, ...]]:
    """The entry tuples at distance exactly radius, sorted."""
    others = [[c for c in range(q) if c != e] for e in entries]
    out = []
    for positions in itertools.combinations(range(len(entries)), radius):
        for values in itertools.product(*(others[i] for i in positions)):
            w = list(entries)
            for i, c in zip(positions, values):
                w[i] = c
            out.append(tuple(w))
    out.sort()
    return out


def triple_entries(m: int, q: int):
    """Every triple as the 3m entries alpha + nu + beta, in the order of
    enumerate_triples (alpha, then beta, then nu): beta differs from alpha
    at two positions, and each nu takes beta's entry at one of them."""
    for alpha in itertools.product(range(q), repeat=m):
        for beta in shell_entries(alpha, q, 2):
            i, j = [k for k, (a, b) in enumerate(zip(alpha, beta)) if a != b]
            nus = (alpha[:i] + beta[i:i + 1] + alpha[i + 1:],
                   alpha[:j] + beta[j:j + 1] + alpha[j + 1:])
            for nu in sorted(nus):
                yield alpha + nu + beta


def index_of(entries, q: int) -> int:
    """The base-q index of an entry tuple, first entry most significant."""
    return sum(e * q ** (len(entries) - 1 - i) for i, e in enumerate(entries))


def tuple_orbit(gens, start: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The breadth-first orbit of an entry tuple under the elements gens,
    each applied through raw_apply; a tuple of k*m entries is k vertices,
    each moved alike."""
    raws = [(x.coord_perm, x.alphabet_perms) for x in gens]
    m = len(raws[0][0]) if raws else len(start)
    seen, frontier = {start}, [start]
    while frontier:
        new = {sum([raw_apply(sigma, gs, w[k:k + m]) for k in range(0, len(w), m)], ())
               for sigma, gs in raws for w in frontier} - seen
        seen |= new
        frontier = list(new)
    return seen


def key_closure(gens, level) -> set[tuple[int, ...]]:
    """Oracle for a chain level's transversal keys: the keys reached from
    the identity's under the point tuples gens, breadth first.  A level
    (lo, hi, d) keys a point tuple u by its entries lo..hi-1, each divided
    by d; a block key b (d = 1) goes to [s[i] for i in b] under s, and a
    sigma key (b,) to (s[b*d] // d,)."""
    lo, hi, d = level
    start = tuple(range(lo, hi)) if d == 1 else (lo // d,)
    seen, frontier = {start}, [start]
    while frontier:
        new = {tuple([s[i] for i in b]) if d == 1 else (s[b[0] * d] // d,)
               for s in gens for b in frontier} - seen
        seen |= new
        frontier = list(new)
    return seen


def raw_full_group(m: int, q: int):
    """All (sigma, gs) pairs of the full group, independent of the library."""
    perms = list(itertools.permutations(range(q)))
    for sigma in itertools.permutations(range(m)):
        for gs in itertools.product(perms, repeat=m):
            yield sigma, gs


def raw_apply(sigma, gs, entries):
    out = [0] * len(entries)
    for i, g in enumerate(gs):
        out[sigma[i]] = g[entries[i]]
    return tuple(out)


def brute_stabilizer_order(scheme: HammingScheme, vertex_set) -> int:
    """Oracle: filter the raw full group by setwise stabilization."""
    target = {v.entries for v in vertex_set}
    count = 0
    for sigma, gs in raw_full_group(scheme.m, scheme.q):
        if {raw_apply(sigma, gs, w) for w in target} == target:
            count += 1
    return count


def brute_maps_into(scheme: HammingScheme, source, target) -> list:
    """Oracle: every raw (sigma, gs) mapping source into target, filtered
    from the raw full group in its canonical order."""
    words = {v.entries for v in source}
    allowed = {v.entries for v in target}
    return [(sigma, gs) for sigma, gs in raw_full_group(scheme.m, scheme.q)
            if {raw_apply(sigma, gs, w) for w in words} <= allowed]


def brute_classify(code: Code):
    """Oracle for the stabilizer analysis, filtering the raw full group.

    Returns (witness, order, transitive): the canonical-first (sigma, gs)
    that stabilizes the neighbour set but moves the code (None if there is
    none), the stabilizer order, and whether the images of the least
    neighbour cover the neighbour set.
    """
    q = code.scheme.q
    words = {w.entries for w in code.words}
    nbrs = {w[:i] + (c,) + w[i + 1:] for w in words
            for i in range(len(w)) for c in range(q) if c != w[i]} - words
    least = min(nbrs)
    witness, order, images = None, 0, set()
    for sigma, gs in raw_full_group(code.scheme.m, q):
        if {raw_apply(sigma, gs, v) for v in nbrs} != nbrs:
            continue
        order += 1
        images.add(raw_apply(sigma, gs, least))
        if witness is None and {raw_apply(sigma, gs, w) for w in words} != words:
            witness = (sigma, gs)
    return witness, order, images == nbrs


def listed_witnesses(codes) -> list:
    """Oracle for the lemma suite's witnesses: every (code, alpha, y) with
    y in the listed setwise stabilizer of the code's neighbour set and
    alpha^y outside the code, over the codes with delta >= 3, code by
    code, y in canonical order, alpha ascending."""
    witnesses = []
    for code in codes:
        if code.min_distance >= 3 and code.neighbour_set:
            for y in setwise_stabilizer(code.neighbour_set, code.scheme):
                witnesses.extend((code, alpha, y) for alpha in code.words
                                 if y.apply(alpha) not in code)
    return witnesses


def vertex_pre_structure(code: Code, alpha: Vertex, y: Automorphism) -> PreReport:
    """Oracle for verify_pre_structure on a witness (alpha, y): the same
    clauses written separately on Vertex objects, through the public
    shell, neighbours and apply and membership in the code."""
    pre = tuple(pi for pi in shell(alpha, 2) if y.apply(pi) in code)
    scheme = code.scheme
    target = scheme.m * (scheme.q - 1)

    alpha_nbrs = set(neighbours(alpha))
    cells = []
    cell_sizes_ok = True
    seen: set[Vertex] = set()
    disjoint = True
    for pi in pre:
        cell = tuple(sorted(alpha_nbrs & set(neighbours(pi))))
        cells.append((pi, cell))
        if len(cell) != 2:
            cell_sizes_ok = False
        if seen & set(cell):
            disjoint = False
        seen.update(cell)
    covered = seen == alpha_nbrs
    clauses = [ClauseResult(
        "cells_partition_neighbourhood",
        cell_sizes_ok and disjoint and covered,
        f"cells={len(cells)} sizes_ok={cell_sizes_ok} disjoint={disjoint} "
        f"covered={covered}")]

    clauses.append(ClauseResult(
        "pre_count_half", 2 * len(pre) == target,
        f"|Pre|={len(pre)}, m(q-1)={target}"))

    gamma1 = set(code.neighbour_set)
    inside = all(set(neighbours(pi)) <= gamma1 for pi in pre)
    clauses.append(ClauseResult(
        "pre_neighbours_inside_code_neighbours", inside,
        f"checked {len(pre)} pre-codewords"))

    dual_ok = True
    images_ok = True
    dual_detail = []
    for pi in pre:
        duals = tuple(b for b in shell(pi, 2) if b in code)
        pi_nbrs = set(neighbours(pi))
        seen_pi: set[Vertex] = set()
        ok = 2 * len(duals) == target
        for beta in duals:
            cell = pi_nbrs & set(neighbours(beta))
            if len(cell) != 2 or (seen_pi & cell):
                ok = False
            seen_pi.update(cell)
            if y.apply(beta) in code:
                images_ok = False
        if seen_pi != pi_nbrs:
            ok = False
        if not ok:
            dual_ok = False
            dual_detail.append(vertex_to_text(pi))
    clauses.append(ClauseResult(
        "dual_cells_partition", dual_ok,
        "all pre-codewords" if dual_ok else f"failed at {','.join(dual_detail)}"))
    clauses.append(ClauseResult(
        "dual_images_outside_code", images_ok,
        f"checked duals of {len(pre)} pre-codewords"))

    return PreReport(alpha=alpha, y=y, pre_set=pre, cells=tuple(cells),
                     clauses=tuple(clauses))


def greedy_code(rng: random.Random, scheme: HammingScheme, delta: int, size: int) -> Code:
    """Up to size words with pairwise distance >= delta, taken greedily
    from the vertices in a random order."""
    words = []
    for v in rng.sample(list(scheme.vertices()), scheme.vertex_count):
        if len(words) == size:
            break
        if all(brute_distance(v, w) >= delta for w in words):
            words.append(v)
    return Code(scheme, words)


def brute_determined(code: Code) -> set[tuple[int, ...]]:
    """Oracle for D = {v not in G1(C) : every neighbour of v in G1(C)},
    filtered over every vertex of the scheme straight from the definition."""
    q = code.scheme.q
    words = {w.entries for w in code.words}

    def ball(v):
        return {v[:i] + (c,) + v[i + 1:] for i in range(len(v)) for c in range(q) if c != v[i]}

    gamma1 = set().union(*map(ball, words)) - words
    return {v for v in itertools.product(range(q), repeat=code.scheme.m)
            if v not in gamma1 and ball(v) <= gamma1}


def tuple_pair_walk(m: int, q: int):
    """(sizes, t0) of the lemma suite's pair walk on entry tuples, the walk
    that the index walk replaced: the ordered distance-2 pairs by their
    number of common neighbours, and the first pair's least triple, or
    None when there is no pair."""
    vertices = list(itertools.product(range(q), repeat=m))
    balls = {v: set(ball1(v, q)) for v in vertices}
    sizes = Counter()
    for u in vertices:
        sizes.update([len(balls[u] & balls[v]) for v in shell_entries(u, q, 2)])
    alpha, ring = vertices[0], shell_entries(vertices[0], q, 2)
    first = ring and balls[alpha] & balls[ring[0]]
    return sizes, alpha + min(first) + ring[0] if first else None
