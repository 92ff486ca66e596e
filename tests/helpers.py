"""Shared test utilities: seeded random elements and independent oracles.

The oracle functions here deliberately avoid the library's search and
enumeration code paths: they recompute expectations from first principles
(nested loops over vertices, brute-force filters over the full group) so
the tests remain dual-route.
"""

from __future__ import annotations

import itertools
import random

from hamnt import Automorphism, Code, GeneratorSet, HammingScheme, Vertex


def random_automorphism(rng: random.Random, scheme: HammingScheme) -> Automorphism:
    perms = tuple(tuple(rng.sample(range(scheme.q), scheme.q))
                  for _ in range(scheme.m))
    sigma = tuple(rng.sample(range(scheme.m), scheme.m))
    return Automorphism(scheme, perms, sigma)


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


def full_group_generators(scheme: HammingScheme) -> GeneratorSet:
    """Standard generators of the full group: S_q on coordinate 0 plus S_m."""
    m, q = scheme.m, scheme.q
    ident = tuple(range(q))
    gens = []
    swap01 = (1, 0) + tuple(range(2, q))
    gens.append(Automorphism(scheme, (swap01,) + (ident,) * (m - 1),
                             tuple(range(m))))
    if q > 2:
        cycle = tuple((i + 1) % q for i in range(q))
        gens.append(Automorphism(scheme, (cycle,) + (ident,) * (m - 1),
                                 tuple(range(m))))
    if m > 1:
        images = list(range(m))
        images[0], images[1] = images[1], images[0]
        gens.append(Automorphism.from_coord_perm(scheme, images))
        if m > 2:
            gens.append(Automorphism.from_coord_perm(
                scheme, [(i + 1) % m for i in range(m)]))
    return GeneratorSet(scheme, tuple(gens))


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
