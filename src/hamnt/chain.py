"""Stabilizer chains of subgroups of S_q wr S_m, and the search for the
automorphisms x mapping a vertex set S into a vertex set T.

The search takes S and T as sorted vertex indices (module hamming_core);
stabilizer_chain, the public entry, converts and scheme-checks its
vertices once.  The search (_pruning_model, _narrow, _first_leaf) is a
backtrack: depth k picks the image position p = sigma(k) among the
positions still free (ascending), then g_k.  Each distinct source prefix
s[:k+1] keeps a bitmask of the members of T that agree with its image on
the positions sigma(0)..sigma(k).  x is injective, so a branch dies when
some mask holds fewer targets than its prefix has sources, and every
sigma with a given prefix shares that prefix's pruning.  A leaf maps S
into T, onto T when |S| = |T|; callers need only the first.  The
per-scheme tables (_tables) are kept up to a bound on their rows.  A
search is bounded by what it builds: masks, table and steps (_spend).

A chain holds elements as their point tuples (module wreath_group).
A level (lo, hi, d) keys u by tuple(u[lo:hi]), each point divided by
d; the block levels (k*q, (k+1)*q, 1) key by block k's image.  Level k
holds the transversal of G^(k), the subgroup fixing the keys of levels
0..k-1, as a Schreier vector: each key points to its parent key and the
generator between them.  The order is the product of the transversal
sizes (Seress, Permutation Group Algorithms, 2003, ch. 4 and 4.1).
A key's image follows from the key alone, so _grow closes the keys
without building elements, and a _Transversal builds a key's element on
first read.  Two builders share _grow: stabilizer_chain(S), by Sims'
backtrack over the search with S = T on the block levels m-1 down to 0
(each image of block k that the subgroup found so far does not reach
gets a search for one element fixing blocks 0..k-1 pointwise and moving
block k there), which reads only keys, and schreier_sims(gens), by
Schreier-Sims, which reads elements in _sift: given a bound on the
order, random elements are sifted until the transversal sizes multiply
to it, and a deterministic pass over the Schreier generators completes
the chain when they do not.  _grow meets the old keys with the new
generator only.  Sims' backtrack takes the first leaf under each
prefix, the least element of the group with that prefix, so sets with
one stabilizer give one chain (code_model.neighbour_stabilizer uses this).

The canonical levels, keyed by sigma(0..m-1) and then by the block
images, compared level by level, are the canonical order.  _rebase
re-bases a chain onto them by Schreier-Sims.  There the elements sharing
u's keys at levels 0..k-1 form the coset G^(k) u, and its children
G^(k+1) t u, t in level k's transversal, are ordered by the key of t u,
so _walk yields a coset in canonical order (Seress 2003, ch. 4 and 9).
Every canonical-order answer comes from it: a setwise stabilizer's
elements (_elements), the least element outside a subgroup
(least_outside), the least equivalence (_least_equivalence) and the
lemma suite's first witnesses, walked lazily.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import FeasibilityError, SchemeMismatchError
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme, Vertex, _index_of,
                           _places, check_cap)
from .wreath_group import Automorphism, GeneratorSet, _act, _invert, _points

# Elements are point-image tuples; x followed by y is the C-level gather
# itemgetter(*x)(y), a tuple, as a point tuple has m*q >= 2 entries (a block key q >= 2).

# Bound on m * |S| * |T|, the bits of the masks one search may hold (the
# family's at m = 26 fits), and on the steps of one search (_spend).
_MASK_BITS = 2 * 10**9
_SEARCH_BUDGET = 10**8

# The random phase of _schreier_sims ends after this many sifts in a row
# that reach the identity; the deterministic loop completes from there.
_MISSES = 20


def _key(u: tuple[int, ...], level: tuple[int, int, int]) -> tuple[int, ...]:
    lo, hi, d = level
    return u[lo:hi] if d == 1 else tuple([pt // d for pt in u[lo:hi]])


def _block_levels(m: int, q: int) -> list[tuple[int, int, int]]:
    return [(k * q, (k + 1) * q, 1) for k in range(m)]


def _canonical_levels(m: int, q: int) -> list[tuple[int, int, int]]:
    return [(k * q, k * q + 1, q) for k in range(m)] + _block_levels(m, q)


# The per-scheme tables kept between searches, least recently used first, up
# to _TABLE_ROWS rows (m * q! block keys) in all; a larger one lives for one
# search, or in _held until the outermost _holding_tables block ends.
_TABLE_ROWS = 5 * 10**4
_kept: dict[tuple[int, int], tuple[tuple, tuple]] = {}
_held: dict[tuple[int, int], tuple[tuple, tuple]] | None = None


@contextlib.contextmanager
def _holding_tables():
    """A block, such as a call that searches one scheme several times, in
    which the over-bound tables stay held until the outermost block ends."""
    global _held
    outer, _held = _held is None, {} if _held is None else _held
    try:
        yield
    finally:
        if outer:
            _held = None


def _tables(m: int, q: int) -> tuple[tuple, tuple]:
    """(perms, keys): each alphabet permutation g, lexicographic, with
    itemgetter(*g); keys[p], aligned, g's block key p*q + g(c) at p."""
    held = {} if _held is None else _held
    tables = _kept.pop((m, q), None) or held.get((m, q))
    if tables is None:
        perms = tuple(itertools.permutations(range(q)))
        keys = [perms] + [tuple([tuple([p * q + c for c in g]) for g in perms])
                          for p in range(1, m)]  # block 0's key is g itself
        tables = tuple([(g, itemgetter(*g)) for g in perms]), tuple(keys)
    if m * len(tables[0]) <= _TABLE_ROWS:
        _kept[m, q] = tables
        while sum([k * len(t[0]) for (k, _), t in _kept.items()]) > _TABLE_ROWS:
            del _kept[next(iter(_kept))]
    else:
        held[m, q] = tables
    return tables


def _pruning_model(words: Sequence[int], targets: Sequence[int], scheme: HammingScheme):
    """The pruning model of the search from S and T as sorted vertex
    indices: (full, rows, levels).

    full is the bitmask of every target; rows[p] holds, for each alphabet
    permutation g (lexicographic), (g, pos_val[p][g(c)] for every symbol
    c, g's block key at p), where pos_val[p][c] is the bitmask of the
    targets with entry c at p; levels[k] lists the distinct source
    prefixes w // q^(m-1-k) as (parent, symbol, size): parent indexes the
    prefixes of levels[k-1], and size counts the sources with that
    prefix.  The masks, m * |S| * |T| bits at most, and the rows' m * q! *
    q masks are checked against their caps before either is built.
    """
    m, q = scheme.m, scheme.q
    bits = m * len(words) * len(targets)
    check_cap(math.log(max(bits, 1)), lambda: bits, _MASK_BITS,
              lambda size: f"the search's masks for {len(words)} sources and {len(targets)} "
                           f"targets in {scheme} hold {size} bits, over the mask cap {_MASK_BITS}")
    check_cap(math.log(m * q) + math.lgamma(q + 1), lambda: m * math.factorial(q) * q,
              DEFAULT_ENUMERATION_CAP,
              lambda size: f"the search's permutation table for {scheme} holds {size} "
                           f"masks, over the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    perms, keys = _tables(m, q)
    place = _places(m, q)
    pos_val = [[0] * q for _ in range(m)]
    for t, x in enumerate(targets):
        bit = 1 << t
        for p, row in zip(place, pos_val):
            row[x // p % q] |= bit
    rows = [[(g, get(pv), key) for (g, get), key in zip(perms, keys_p)]
            for pv, keys_p in zip(pos_val, keys)]
    levels, index = [], {0: 0}
    for p in place:
        level: dict[int, list[int]] = {}
        for w in words:
            prefix = w // p
            level.setdefault(prefix, [index[prefix // q], prefix % q, 0])[2] += 1
        levels.append(tuple([tuple(node) for node in level.values()]))
        index = {prefix: i for i, prefix in enumerate(level)}
    return (1 << len(targets)) - 1, rows, levels


def _narrow(level: tuple, row: list[int], masks: list[int]) -> list[int] | None:
    """The masks of one depth's source prefixes (level) after choosing
    sigma(depth) = p and g_depth = g, where row is g's row in rows[p];
    None when one holds fewer targets than its prefix has sources."""
    nxt = []
    for parent, c, size in level:
        nm = masks[parent] & row[c]
        if nm.bit_count() < size:
            return None
        nxt.append(nm)
    return nxt


def _spend(spent: list[int], steps: int) -> None:
    """Add steps to spent, a search's one count, once per position loop
    that ends without a leaf: its candidate rows plus the masks it narrows.
    FeasibilityError past _SEARCH_BUDGET."""
    spent[0] += steps
    if spent[0] > _SEARCH_BUDGET:
        raise FeasibilityError(f"the search took {spent[0]} steps, over the search budget "
                               f"{_SEARCH_BUDGET}")


def _first_leaf(levels: list, rows: list, free: list[int], masks: list[int],
                chosen: list, spent: list[int] | None = None) -> list | None:
    """chosen, the (sigma(d), g_d) of the depths above, completed in place
    at the first leaf below it that no mask prunes (sigma(d) from free
    ascending, then g_d), or None when there is none.  Spends from spent
    (_spend), a fresh count when not given."""
    if not free:
        return chosen
    spent = [0] if spent is None else spent
    level = levels[len(chosen)]
    for i, p in enumerate(free):
        rest = free[:i] + free[i + 1:]
        for g, row, _ in rows[p]:
            nxt = _narrow(level, row, masks)
            if nxt is not None:
                chosen.append((p, g))
                if _first_leaf(levels, rows, rest, nxt, chosen, spent) is not None:
                    return chosen
                chosen.pop()
        _spend(spent, len(rows[p]) + len(masks))
    return None


def _grow(trans: dict, level: tuple[int, int, int], gens: list[tuple[int, ...]],
          closed: int = 0) -> None:
    """Close trans, the Schreier vector of a level (key -> (parent key,
    generator)), under gens in place, given that it is closed under
    gens[:closed]: the old keys meet only the later generators, the new
    ones all of them.  The image of a key b under s is itemgetter(*b)(s)
    on a block level and s[b*d] // d, block b's image, on a sigma level."""
    d = level[2]
    frontier, step = list(trans), gens[closed:]
    while frontier:
        new = []
        for b in frontier:
            get = itemgetter(*b) if d == 1 else itemgetter(b[0] * d)
            for s in step:
                c = get(s) if d == 1 else (get(s) // d,)
                if c not in trans:
                    trans[c] = (b, s)
                    new.append(c)
        frontier, step = new, gens


class _Transversal(dict):
    """A level's Schreier vector, key -> (parent key, generator), the base
    key -> None, whose elements are built on first read and kept."""

    def __init__(self, base: tuple[int, ...], ident: tuple[int, ...]):
        super().__init__({base: None})
        self.elements = {base: ident}

    def element(self, b: tuple[int, ...]) -> tuple[int, ...]:
        """The element with key b: its parent's element times the generator."""
        path, elements = [], self.elements
        while b not in elements:
            path.append(b)
            b = self[b][0]
        u = elements[b]
        for b in reversed(path):
            u = elements[b] = itemgetter(*u)(self[b][1])
        return u


def _sift(x: tuple[int, ...], transversals: list[dict], inverses: list[dict],
          levels: list, start: int):
    """(residue, level): x times the inverse transversal element of its
    key, level by level from start, until a transversal misses the key
    (level) or every level is passed (level = len(levels)).  inverses[k]
    memoises the inverses of level k's transversal elements by key."""
    for k in range(start, len(levels)):
        lo, hi, d = levels[k]
        b = x[lo:hi]  # _key, inlined: this loop is the hot path of Schreier-Sims
        b = b if d == 1 else tuple([pt // d for pt in b])
        uinv = inverses[k].get(b)
        if uinv is None:
            if b not in transversals[k]:
                return x, k
            inverses[k][b] = uinv = _invert(transversals[k].element(b))
        x = itemgetter(*x)(uinv)
    return x, len(levels)


class StabilizerChain:
    """A subgroup of S_q wr S_m as a stabilizer chain (module docstring):
    its order and its strong generators, in the order they were found."""

    def __init__(self, scheme: HammingScheme, strong: list[tuple[int, ...]],
                 transversals: list[dict]):
        self.scheme = scheme
        self.order = math.prod([len(t) for t in transversals])
        self.generators = tuple([Automorphism._trusted(scheme, s) for s in strong])


def stabilizer_chain(vertices: Iterable[Vertex], scheme: HammingScheme) -> StabilizerChain:
    """The setwise stabilizer of a vertex set as a stabilizer chain, by
    Sims' backtrack over the search."""
    vs = set(vertices)
    if any(v.scheme != scheme for v in vs):
        raise SchemeMismatchError("set member from a different scheme")
    return _stabilizer_chain(sorted([_index_of(v.entries, scheme.q) for v in vs]), scheme)


def _stabilizer_chain(words: Sequence[int], scheme: HammingScheme) -> StabilizerChain:
    """stabilizer_chain of a set given as sorted vertex indices, one search."""
    full, rows, levels = _pruning_model(words, words, scheme)
    m, q = scheme.m, scheme.q
    # the identity on blocks 0..k-1 prunes nothing; rows[k][0] is g_k = id
    fixed = [(k, rows[k][0][0]) for k in range(m)]
    prefix_masks = [[full]]
    for k in range(m - 1):
        prefix_masks.append(_narrow(levels[k], rows[k][0][1], prefix_masks[k]))
    blocks = _block_levels(m, q)
    # keys only: the chain's order is the product of the transversal sizes
    transversals = [{rows[k][0][2]: None} for k in range(m)]
    strong: list[tuple[int, ...]] = []
    spent = [0]
    for k in reversed(range(m)):
        # trans starts closed: each generator so far, found deeper, fixes blocks 0..k pointwise
        trans = transversals[k]
        for p in range(k, m):
            free = [r for r in range(k, m) if r != p]
            for g, row, key in rows[p]:
                if key in trans:
                    continue
                nxt = _narrow(levels[k], row, prefix_masks[k])
                if nxt is None:
                    continue
                leaf = _first_leaf(levels, rows, free, nxt, fixed[:k] + [(p, g)], spent)
                if leaf:
                    strong.append(_points(leaf, q))
                    _grow(trans, blocks[k], strong, len(strong) - 1)
            _spend(spent, len(rows[p]) + len(prefix_masks[k]))
    return StabilizerChain(scheme, strong, transversals)


def _schreier_sims(gens: list[tuple[int, ...]], n: int, levels: list,
                   order: int | None = None, bound: int | None = None):
    """(found, strong, transversals) of the group the point tuples gens
    generate on n points, by Schreier-Sims over levels: found lists the
    strong generators as found, strong[k] those that fix the keys of
    levels 0..k-1.  Given the group's order, it stops once the
    transversal sizes multiply to it: a product of basic orbit sizes
    equal to the order makes the generators strong (Seress 2003, ch. 4).
    Given only an upper bound on the order, it stops there the same way,
    and it runs to the end, giving the true order, when the group is
    smaller.

    With either, a random phase comes first (Seress 2003, 4.3 and 4.5):
    it sifts random elements until the order is reached or _MISSES sifts
    in a row reach the identity, and the deterministic loop over the
    Schreier generators, a no-op once the order is reached, completes the
    chain from there.  The random phase draws from a fixed seed, so a call
    repeats its sifts; it changes only which elements the transversals
    and found hold, and the canonical levels determine every element."""
    ident = tuple(range(n))
    base = [_key(ident, lv) for lv in levels]
    transversals = [_Transversal(b, ident) for b in base]
    strong: list[list[tuple[int, ...]]] = [[] for _ in levels]
    found: list[tuple[int, ...]] = []

    def add(s: tuple[int, ...], low: int, high: int):
        found.append(s)
        for k in range(low, high + 1):
            strong[k].append(s)
            _grow(transversals[k], levels[k], strong[k], len(strong[k]) - 1)

    for s in gens:
        if s != ident and s not in found:
            add(s, 0, next(k for k, lv in enumerate(levels) if _key(s, lv) != base[k]))
    checked: list[set] = [set() for _ in levels]
    # transversal elements are built once, so their inverses keep too
    inverses: list[dict] = [{} for _ in levels]
    stop = bound if order is None else order
    if stop is not None and math.prod([len(t) for t in transversals]) != stop:
        # random phase: sift w, the running product of random subproducts
        # of the strong generators; a residue that stops at level j fixes
        # the keys of levels 0..j-1, so it joins strong[0..j].  A chain
        # that its generators already complete skips seeding the RNG
        rng, misses, w = random.Random(0), 0, ident
        while misses < _MISSES and math.prod([len(t) for t in transversals]) != stop:
            for s in found:
                if rng.random() < 0.5:
                    w = itemgetter(*w)(s)
            x, j = _sift(w, transversals, inverses, levels, 0)
            if x == ident:
                misses += 1
            else:
                misses = 0
                add(x, 0, j)
    k = len(levels) - 1
    while k >= 0 and math.prod([len(t) for t in transversals]) != stop:
        # levels k+1.. are complete: sift the Schreier generators of level k
        residue = None
        for b in transversals[k]:
            u = transversals[k].element(b)
            for i, s in enumerate(strong[k]):
                if (b, i) in checked[k]:
                    continue
                checked[k].add((b, i))
                # level k's transversal is closed under strong[k], so the
                # sift of u s passes level k
                residue = _sift(itemgetter(*u)(s), transversals, inverses, levels, k)
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


def schreier_sims(gens: GeneratorSet, bound: int | None = None) -> StabilizerChain:
    """The subgroup generated by gens as a stabilizer chain, by the
    Schreier-Sims algorithm.  Given an upper bound on its order, it sifts
    random elements first and stops once it reaches the bound; without
    one it is deterministic Schreier-Sims."""
    m, q = gens.scheme.m, gens.scheme.q
    found, _, transversals = _schreier_sims([x.points for x in gens.generators],
                                            m * q, _block_levels(m, q), bound=bound)
    return StabilizerChain(gens.scheme, found, transversals)


def _rebase(chain: StabilizerChain):
    """(levels, strong, transversals) of the chain's group re-based onto the
    canonical levels by Schreier-Sims, stopped at its known order."""
    m, q = chain.scheme.m, chain.scheme.q
    levels = _canonical_levels(m, q)
    _, strong, transversals = _schreier_sims([x.points for x in chain.generators],
                                             m * q, levels, chain.order)
    return levels, strong, transversals


def _children(transversal: _Transversal, level: tuple, u: tuple) -> Iterator[tuple[int, ...]]:
    """t u for each t in a level's transversal, lazily, by their keys at
    the level: t's key b gives t u's, itemgetter(*b)(u) on a block level
    and u[b*d] // d on a sigma level, so only the elements read are built."""
    d = level[2]
    if d == 1:
        keys = sorted(transversal, key=lambda b: itemgetter(*b)(u))
    else:
        keys = sorted(transversal, key=lambda b: u[b[0] * d] // d)
    return (itemgetter(*transversal.element(b))(u) for b in keys)


def _walk(transversals: list[dict], levels: list, k: int, u: tuple) -> Iterator[tuple]:
    """Every element of the coset G^(k) u of a chain on the canonical
    levels, canonical order: the children's elements, child by child."""
    while k < len(levels) and len(transversals[k]) == 1:
        k += 1  # G^(k+1) = G^(k)
    if k == len(levels):
        yield u
        return
    for v in _children(transversals[k], levels[k], u):
        yield from _walk(transversals, levels, k + 1, v)


def _elements(chain: StabilizerChain) -> list[Automorphism]:
    """Every element of the chain's group, canonical order."""
    levels, _, transversals = _rebase(chain)
    ident = tuple(range(chain.scheme.m * chain.scheme.q))
    return [Automorphism._trusted(chain.scheme, u) for u in _walk(transversals, levels, 0, ident)]


def _fixes(indices: Iterable[int], scheme: HammingScheme) -> Callable[[Automorphism], bool]:
    """The membership test, on elements of the scheme, of the setwise
    stabilizer of a vertex set given as indices: the one rule for "x maps a
    vertex set onto itself" (into it suffices, x being injective), on x's
    cached tables (x._actor), so each element builds them once."""
    words = frozenset(indices)
    return lambda x: words.issuperset(_act(x._actor, words))


def fixes_entries(entries: Iterable[tuple[int, ...]], q: int) -> Callable[[tuple[int, ...]], bool]:
    """_fixes for a set of vertices given as entry tuples over q symbols,
    as a test on point tuples."""
    entries = list(entries)
    if not entries:
        return lambda s: True
    scheme = HammingScheme(len(entries[0]), q)
    fixes = _fixes([_index_of(w, q) for w in entries], scheme)
    return lambda s: fixes(Automorphism._trusted(scheme, s))


def least_outside(chain: StabilizerChain,
                  inside: Callable[[tuple[int, ...]], bool]) -> Automorphism | None:
    """The least element, canonical order, of the chain's group G outside
    its subgroup H = {x in G : inside(x)} (inside tests a point tuple), or
    None when H = G.  With G^(k) in H for k >= deep, every coset above
    deep meets G \\ H and its least child holds the identity, and a coset
    at deep lies in H iff u does: the answer is the first element below
    the least child of the identity at level deep - 1 that is not in H.
    Each strong generator is tested once, however many levels hold it."""
    inside = functools.cache(inside)
    if all(inside(x.points) for x in chain.generators):
        return None
    levels, strong, transversals = _rebase(chain)
    # G^(k) lies in H iff its strong generators do, and then so does G^(k+1)
    deep = sum([not all(map(inside, gens_k)) for gens_k in strong])
    ident = tuple(range(chain.scheme.m * chain.scheme.q))
    u = next(v for v in _children(transversals[deep - 1], levels[deep - 1], ident)
             if not inside(v))
    return Automorphism._trusted(chain.scheme, next(_walk(transversals, levels, deep, u)))


@_holding_tables()
def _least_equivalence(source: Sequence[int], target: Sequence[int],
                       scheme: HammingScheme) -> Automorphism | None:
    """The least automorphism, canonical order, mapping the vertex set
    source onto target (a set of the same size), both sorted vertex indices,
    or None.  Any leaf y of the search maps source onto target, and the
    elements that do form the coset Aut(source) y; its chain is built only
    once a leaf is found, by a second search of the scheme."""
    full, rows, levels = _pruning_model(source, target, scheme)
    leaf = _first_leaf(levels, rows, list(range(scheme.m)), [full], [])
    if leaf is None:
        return None
    y = _points(leaf, scheme.q)
    levels, _, transversals = _rebase(_stabilizer_chain(source, scheme))
    return Automorphism._trusted(scheme, next(_walk(transversals, levels, 0, y)))
