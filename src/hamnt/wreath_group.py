"""Automorphisms of H(m,q): the wreath product S_q wr S_m = N >| L.

An element x is stored in its unique normal form (g, sigma) with
g = (g_0,...,g_{m-1}) a tuple of alphabet permutations (one per
coordinate, each given by its image tuple) and sigma a permutation of the
coordinates (also given by images).  The right action on a vertex v is

    (v^x)[sigma[i]] = g_i(v[i])

i.e. first relabel each entry, then move the entry at position i to
position sigma(i).  Composition reads left to right: apply(x*y, v) equals
apply(y, apply(x, v)).

The canonical enumeration order used everywhere (full-group enumeration,
stabilizer output, witness selection) is lexicographic over sigma's
images, then lexicographic over the tuple of alphabet-permutation images.

One search, maps_into, finds the automorphisms mapping a vertex set S
into a vertex set T: setwise stabilizers (T = S), code automorphisms and
code equivalences.  A backtrack chooses sigma inside the search: depth k
picks the image position p = sigma(k) among the positions still free
(ascending), then g_k.  Every s in S keeps a bitmask of the members of T
that agree with its image on the positions sigma(0)..sigma(k); the mask
depends only on the prefix s[:k+1], so one mask is kept per distinct
source prefix.  x is injective and maps the sources with that prefix
into the mask, so a branch dies when some mask holds fewer targets than
its prefix has sources (when |S| = |T| every mask must match exactly).
Every sigma with a given prefix thus shares that prefix's pruning.  A
leaf (no mask pruned) maps S into T, onto T when |S| = |T|, as x is a
bijection.  sigma(0) is the first key of the canonical order and the
search fixes it first, so the leaves of each sigma(0) block are sorted
and yielded before the next block is searched.  The group cap is
checked at the call.

The element lists of maps_into serve setwise_stabilizer and
find_equivalence.  Where only a subgroup's order and generators, or its
least element outside a subgroup, are needed, a stabilizer chain gives
them without listing the elements.  It works in the faithful action on the
m*q points (position, symbol), point p*q + c, where x maps (i, c) to
(sigma(i), g_i(c)); a chain element is a tuple of point images.  The
base is the m blocks {(k, c) : c < q}.  Level k holds the transversal of
block k's images under the pointwise stabilizer of blocks 0..k-1, and
the order is the product of the transversal sizes (Seress, Permutation
Group Algorithms, 2003, ch. 4).  Two builders share one orbit/transversal
helper (_grow) and the sifting of _sift, in the module chain:

* stabilizer_chain(S), the setwise stabilizer of S by Sims' backtrack:
  the search above with S = T (_pruning_model, _narrow, _leaves), levels
  m-1 down to 0.  At level k each image (p, g) of block k that the orbit
  of the subgroup found so far does not reach gets a search for one
  element fixing blocks 0..k-1 pointwise and moving block k there; each
  element found is a new strong generator.  The group cap is checked at
  the call.  family --exhaustive, the stabilizer analysis of classify
  and stabilizer, and Aut(C) in the lemma suite use it.
* schreier_sims(gens), the group gens generate, by deterministic
  Schreier-Sims; the family's clause 7 compares the two orders, and the
  lemma suite certifies full_group_generators with it.

least_outside(chain, inside) gives the stabilizer analysis its witness,
the canonical-first element of G \\ Aut(C): it re-bases G by Schreier-Sims
onto levels keyed by sigma(0..m-1), then by the block images, and descends
by least key (Seress 2003, ch. 4 and 9).

enumerate_full_group, which streams every element, has no caller in the
package; the tests use it as an oracle.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CodeFormatError, FeasibilityError, SchemeMismatchError
from .hamming_core import HammingScheme, Vertex, check_cap

#: Default bound on (q!)^m * m! for full-group sweeps.
DEFAULT_GROUP_CAP = 10**8


def _is_perm(images: tuple[int, ...], n: int) -> bool:
    return len(images) == n and sorted(images) == list(range(n))


def _invert(images: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(images)
    for i, img in enumerate(images):
        out[img] = i
    return tuple(out)


@dataclass(frozen=True)
class Automorphism:
    """One element g*sigma of S_q wr S_m acting on the vertices of H(m,q)."""

    scheme: HammingScheme
    alphabet_perms: tuple[tuple[int, ...], ...]
    coord_perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coord_perm", tuple(self.coord_perm))
        object.__setattr__(self, "alphabet_perms",
                           tuple(tuple(g) for g in self.alphabet_perms))
        m, q = self.scheme.m, self.scheme.q
        if not _is_perm(self.coord_perm, m):
            raise ValueError(f"coord_perm {self.coord_perm} is not a permutation of 0..{m-1}")
        if len(self.alphabet_perms) != m:
            raise ValueError(f"need {m} alphabet permutations, got {len(self.alphabet_perms)}")
        for g in self.alphabet_perms:
            if not _is_perm(g, q):
                raise ValueError(f"alphabet perm {g} is not a permutation of 0..{q-1}")

    @classmethod
    def _trusted(cls, scheme: HammingScheme, alphabet_perms: tuple[tuple[int, ...], ...],
                 coord_perm: tuple[int, ...]) -> "Automorphism":
        """An element from fields that are valid by construction: tuples of
        permutations of the right sizes.  Skips __post_init__."""
        x = object.__new__(cls)
        object.__setattr__(x, "scheme", scheme)
        object.__setattr__(x, "alphabet_perms", alphabet_perms)
        object.__setattr__(x, "coord_perm", coord_perm)
        return x

    # -- group operations ------------------------------------------------

    @classmethod
    def identity(cls, scheme: HammingScheme) -> "Automorphism":
        ident = tuple(range(scheme.q))
        return cls(scheme, (ident,) * scheme.m, tuple(range(scheme.m)))

    @classmethod
    def from_coord_perm(cls, scheme: HammingScheme, images) -> "Automorphism":
        """Pure coordinate permutation (identity alphabet action)."""
        ident = tuple(range(scheme.q))
        return cls(scheme, (ident,) * scheme.m, tuple(images))

    def apply(self, v: Vertex) -> Vertex:
        if v.scheme != self.scheme:
            raise SchemeMismatchError(f"vertex of {v.scheme} under automorphism of {self.scheme}")
        out = [0] * self.scheme.m
        for i, g in enumerate(self.alphabet_perms):
            out[self.coord_perm[i]] = g[v.entries[i]]
        return Vertex(self.scheme, tuple(out))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """The element acting as self followed by other."""
        if other.scheme != self.scheme:
            raise SchemeMismatchError("composing automorphisms of different schemes")
        m, q = self.scheme.m, self.scheme.q
        s1, s2 = self.coord_perm, other.coord_perm
        g1, g2 = self.alphabet_perms, other.alphabet_perms
        tau = tuple(s2[s1[i]] for i in range(m))
        h = tuple(tuple(g2[s1[i]][g1[i][a]] for a in range(q)) for i in range(m))
        return Automorphism._trusted(self.scheme, h, tau)

    __mul__ = compose

    def inverse(self) -> "Automorphism":
        m = self.scheme.m
        sinv = _invert(self.coord_perm)
        h: list[tuple[int, ...] | None] = [None] * m
        for i in range(m):
            h[self.coord_perm[i]] = _invert(self.alphabet_perms[i])
        return Automorphism._trusted(self.scheme, tuple(h), sinv)

    def conjugated_by(self, y: "Automorphism") -> "Automorphism":
        """y^-1 * self * y."""
        return y.inverse().compose(self).compose(y)

    # -- ordering / display ------------------------------------------------

    @property
    def sort_key(self):
        return (self.coord_perm, self.alphabet_perms)

    def __lt__(self, other: "Automorphism"):
        return self.sort_key < other.sort_key

    def __str__(self):
        return automorphism_to_text(self)

    def __repr__(self):
        return f"Automorphism({self.scheme}, {automorphism_to_text(self)!r})"


@dataclass(frozen=True)
class GeneratorSet:
    """A finite set of automorphisms of one scheme, used as subgroup generators."""

    scheme: HammingScheme
    generators: tuple[Automorphism, ...]

    def __post_init__(self):
        if not isinstance(self.generators, tuple):
            object.__setattr__(self, "generators", tuple(self.generators))
        for x in self.generators:
            if x.scheme != self.scheme:
                raise SchemeMismatchError("generator belongs to a different scheme")


def translation(alpha: Vertex) -> Automorphism:
    """The translation beta -> beta + alpha of F_2^m.  Binary schemes only."""
    scheme = alpha.scheme
    if scheme.q != 2:
        raise ValueError("translations are defined for q = 2 only")
    swap, ident = (1, 0), (0, 1)
    perms = tuple(swap if e else ident for e in alpha.entries)
    return Automorphism(scheme, perms, tuple(range(scheme.m)))


def group_order(scheme: HammingScheme) -> int:
    """Order of the full automorphism group: (q!)^m * m!."""
    return math.factorial(scheme.q) ** scheme.m * math.factorial(scheme.m)


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


def check_group_cap(scheme: HammingScheme, group_cap: int) -> int:
    """The full group's order; FeasibilityError when it exceeds the group cap."""
    return check_cap(
        scheme.m * math.lgamma(scheme.q + 1) + math.lgamma(scheme.m + 1),
        lambda: group_order(scheme), group_cap,
        f"full group of {scheme} has order {{size}}, over the group cap {group_cap}")


def enumerate_full_group(scheme: HammingScheme, group_cap: int = DEFAULT_GROUP_CAP):
    """Yield all (q!)^m * m! automorphisms once, in canonical order."""
    check_group_cap(scheme, group_cap)
    perms = list(itertools.permutations(range(scheme.q)))

    def gen():
        for sigma in itertools.permutations(range(scheme.m)):
            for gs in itertools.product(perms, repeat=scheme.m):
                yield Automorphism._trusted(scheme, gs, sigma)

    return gen()


def _pruning_model(source: Iterable[Vertex], target: Iterable[Vertex],
                   scheme: HammingScheme):
    """The pruning model both searches share: (full, rows, levels).

    full is the bitmask of every target; rows[p] pairs each alphabet
    permutation g (in lexicographic order) with pos_val[p][g(c)] for every
    symbol c, where pos_val[p][c] is the bitmask of the targets t with
    t[p] == c; levels[k] lists the distinct source prefixes w[:k+1] as
    (parent, symbol, size): parent indexes the prefixes w[:k] of
    levels[k-1], and size counts the sources with that prefix.
    """
    words, targets = [], []
    for vertices, entries in ((source, words), (target, targets)):
        vs = set(vertices)
        if any(v.scheme != scheme for v in vs):
            raise SchemeMismatchError("set member from a different scheme")
        entries.extend(sorted(v.entries for v in vs))
    m, q = scheme.m, scheme.q
    perms = list(itertools.permutations(range(q)))
    pos_val = [[0] * q for _ in range(m)]
    for t, w in enumerate(targets):
        for p, c in enumerate(w):
            pos_val[p][c] |= 1 << t
    rows = [[(g, [pv[g[c]] for c in range(q)]) for g in perms] for pv in pos_val]
    levels, index = [], {(): 0}
    for k in range(m):
        level: dict[tuple[int, ...], list[int]] = {}
        for w in words:
            level.setdefault(w[:k + 1], [index[w[:k]], w[k], 0])[2] += 1
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


def _leaves(levels: list, rows: list, free: list[int], masks: list[int],
            chosen: list):
    """Yield chosen, the (sigma(d), g_d) of the depths above, completed at
    every leaf below it that no mask prunes: sigma(d) from free ascending,
    then g_d.  chosen is the same list each time, changed in place."""
    if not free:
        yield chosen
        return
    level = levels[len(chosen)]
    for i, p in enumerate(free):
        rest = free[:i] + free[i + 1:]
        for g, row in rows[p]:
            nxt = _narrow(level, row, masks)
            if nxt is not None:
                chosen.append((p, g))
                yield from _leaves(levels, rows, rest, nxt, chosen)
                chosen.pop()


def maps_into(source: Iterable[Vertex], target: Iterable[Vertex],
              scheme: HammingScheme,
              group_cap: int = DEFAULT_GROUP_CAP) -> Iterator[Automorphism]:
    """Yield every automorphism x with source^x within target, canonical
    order, by the search above: lazily, one sigma(0) block at a time."""
    check_group_cap(scheme, group_cap)
    full, rows, levels = _pruning_model(source, target, scheme)
    m = scheme.m

    def gen():
        trusted = Automorphism._trusted
        for p0 in range(m):
            free = [r for r in range(m) if r != p0]
            leaves = []  # (sigma, gs) of the sigma(0) = p0 block
            for g, row in rows[p0]:
                nxt = _narrow(levels[0], row, [full])
                if nxt is not None:
                    leaves += [tuple(zip(*leaf))
                               for leaf in _leaves(levels, rows, free, nxt, [(p0, g)])]
            leaves.sort()
            # the elements of one sigma share one images tuple
            shared: dict[tuple[int, ...], tuple[int, ...]] = {}
            for images, gs in leaves:
                yield trusted(scheme, gs, shared.setdefault(images, images))

    return gen()


def closure(gens: GeneratorSet, cap: int = DEFAULT_GROUP_CAP) -> list[Automorphism]:
    """The subgroup generated by gens, as a canonically sorted list.

    Breadth-first multiplication closure over the generators and their
    inverses, deduplicated by normal form.  Exceeding cap raises rather
    than truncating: a truncated closure would corrupt any transitivity
    verdict computed from it.
    """
    ident = Automorphism.identity(gens.scheme)
    step = []
    for x in gens.generators:
        for y in (x, x.inverse()):
            if y not in step:
                step.append(y)
    elements = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for s in step:
                p = e.compose(s)
                if p not in elements:
                    if len(elements) >= cap:
                        raise FeasibilityError(
                            f"closure exceeded cap {cap} (partial size {len(elements)})",
                            cap=cap, partial=len(elements))
                    elements.add(p)
                    new.append(p)
        frontier = new
    return sorted(elements, key=lambda x: x.sort_key)


def orbit(gens: GeneratorSet, v: Vertex) -> tuple[Vertex, ...]:
    """Smallest set containing v and closed under every generator, sorted."""
    if v.scheme != gens.scheme:
        raise SchemeMismatchError("vertex and generators from different schemes")
    seen = {v}
    frontier = [v]
    while frontier:
        new = []
        for u in frontier:
            for x in gens.generators:
                w = x.apply(u)
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        frontier = new
    return tuple(sorted(seen))


def conjugate(gens: GeneratorSet, y: Automorphism) -> GeneratorSet:
    """The generator set {y^-1 x y : x in gens}."""
    if y.scheme != gens.scheme:
        raise SchemeMismatchError("conjugating element from a different scheme")
    yinv = y.inverse()
    return GeneratorSet(gens.scheme,
                        tuple(yinv.compose(x).compose(y) for x in gens.generators))


# -- text form ------------------------------------------------------------

def automorphism_to_text(x: Automorphism) -> str:
    """Report form, e.g. 'perm=[1,0]; g0=[1,0]; g1=[0,1]'."""
    parts = ["perm=[" + ",".join(map(str, x.coord_perm)) + "]"]
    for i, g in enumerate(x.alphabet_perms):
        parts.append(f"g{i}=[" + ",".join(map(str, g)) + "]")
    return "; ".join(parts)


_FIELD_RE = re.compile(r"^(perm|g(\d+))=\[([0-9,\s]*)\]$")


def automorphism_from_text(scheme: HammingScheme, text: str) -> Automorphism:
    """Parse the report form produced by automorphism_to_text."""
    coord_perm = None
    gs: dict[int, tuple[int, ...]] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        match = _FIELD_RE.match(chunk)
        if not match:
            raise CodeFormatError(f"bad automorphism field {chunk!r}")
        images = tuple(int(p) for p in match.group(3).split(",") if p.strip())
        if match.group(1) == "perm":
            coord_perm = images
        else:
            gs[int(match.group(2))] = images
    if coord_perm is None:
        raise CodeFormatError("automorphism text is missing the perm=[...] field")
    if sorted(gs) != list(range(scheme.m)):
        raise CodeFormatError(f"automorphism text needs g0..g{scheme.m - 1}")
    try:
        return Automorphism(scheme, tuple(gs[i] for i in range(scheme.m)), coord_perm)
    except ValueError as exc:
        raise CodeFormatError(str(exc)) from None
