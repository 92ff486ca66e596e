"""Automorphisms of H(m,q): the wreath product S_q wr S_m = N >| L.

An element x = g*sigma has one alphabet permutation g_i per coordinate
and a coordinate permutation sigma.  Its right action on a vertex v is

    (v^x)[sigma[i]] = g_i(v[i])

i.e. first relabel each entry, then move the entry at position i to
position sigma(i).  Composition reads left to right: apply(x*y, v) equals
apply(y, apply(x, v)).

x is stored as its faithful action on the m*q points (position, symbol):
point p*q + c goes to sigma(p)*q + g_p(c), and x followed by y is the
C-level gather itemgetter(*x)(y), a tuple as m*q >= 2 (Seress, Permutation
Group Algorithms, 2003, ch. 4).  The normal form (g, sigma) is derived from
the points for the text form and the canonical order.

Below the boundary a vertex is its base-q index (module hamming_core).
The image index is a sum of one term per position, g_p(v_p) *
q^(m-1-sigma(p)), so x acts through two tables, one per half of the
positions: v goes to hi[v // n] + lo[v % n], n = q^(m - floor(m/2))
(_half_tables, cached per element as _actor).  apply and orbit are the
boundary: they check the scheme and build a Vertex per result.

The canonical enumeration order used everywhere (full-group enumeration,
stabilizer output, witness selection) is lexicographic over sigma's
images, then lexicographic over the tuple of alphabet-permutation images.

Searches and subgroups live in the module chain, and so does the one
set-fixing rule (chain._fixes).  enumerate_full_group and closure
have no caller in the package; the tests use them as oracles, and the
benchmark's tracer wraps them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import FeasibilityError, SchemeMismatchError
from .hamming_core import HammingScheme, Vertex, _index_of, _places, _vertex_at, check_cap

#: Default bound on the elements a listing builds: the full group's
#: (q!)^m * m!, a closure's, or a setwise stabilizer's.
DEFAULT_GROUP_CAP = 10**8

#: Bound on q^ceil(m/2), the larger of an element's two tables (H(32,2) fits).
_TABLE_CAP = 2**16


def _is_perm(images: tuple[int, ...], n: int) -> bool:
    return len(images) == n and sorted(images) == list(range(n))


def _invert(images: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(images)
    for i, img in enumerate(images):
        out[img] = i
    return tuple(out)


def _points(pairs, q: int) -> tuple[int, ...]:
    """The point images of the (sigma(i), g_i) pairs, i ascending."""
    return tuple([p * q + gc for p, g in pairs for gc in g])


def _half_tables(points: tuple[int, ...], m: int, q: int) -> tuple[list, list, int]:
    """(hi, lo, n): the action on indices of the element with these point
    images, v -> hi[v // n] + lo[v % n]; point p*q + c adds its symbol
    times q^(m-1-p).  FeasibilityError past the table cap."""
    h, place = m // 2, _places(m, q)
    n = q * place[h]
    if n > _TABLE_CAP:
        check_cap((m - h) * math.log(q), lambda: n, _TABLE_CAP,
                  lambda size: f"an automorphism's action on H({m},{q}) needs tables "
                               f"of {size} entries, over the table cap {_TABLE_CAP}")
    tables = [[0], [0]]
    for p in range(m):
        column = [pt % q * place[pt // q] for pt in points[p * q:(p + 1) * q]]
        tables[p >= h] = [t + c for t in tables[p >= h] for c in column]
    return tables[0], tables[1], n


def _act(actor: tuple[list, list, int], xs) -> list[int]:
    """The image of each index in xs under an element's half tables."""
    hi, lo, n = actor
    return [hi[v // n] + lo[v % n] for v in xs]


def _orbit(actors: list, start: int, size: int | None = None) -> set[int]:
    """The indices reached from start under the actors, breadth first,
    stopping after the layer that brings them to size when given."""
    seen, frontier = {start}, [start]
    while frontier and len(seen) != size:
        frontier = set().union(*[_act(a, frontier) for a in actors]) - seen
        seen |= frontier
    return seen


@dataclass(frozen=True, init=False)
class Automorphism:
    """One element g*sigma of S_q wr S_m acting on the vertices of H(m,q),
    stored as its point images (module docstring)."""

    scheme: HammingScheme
    points: tuple[int, ...]

    def __init__(self, scheme: HammingScheme, alphabet_perms, coord_perm):
        coord_perm = tuple(coord_perm)
        alphabet_perms = tuple(tuple(g) for g in alphabet_perms)
        m, q = scheme.m, scheme.q
        if not _is_perm(coord_perm, m):
            raise ValueError(f"coord_perm {coord_perm} is not a permutation of 0..{m-1}")
        if len(alphabet_perms) != m:
            raise ValueError(f"need {m} alphabet permutations, got {len(alphabet_perms)}")
        for g in alphabet_perms:
            if not _is_perm(g, q):
                raise ValueError(f"alphabet perm {g} is not a permutation of 0..{q-1}")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "points", _points(zip(coord_perm, alphabet_perms), q))

    @classmethod
    def _trusted(cls, scheme: HammingScheme, points: tuple[int, ...]) -> "Automorphism":
        """An element from point images that are valid by construction (a
        permutation of the m*q points mapping blocks to blocks), unchecked."""
        x = object.__new__(cls)
        object.__setattr__(x, "scheme", scheme)
        object.__setattr__(x, "points", points)
        return x

    @property
    def coord_perm(self) -> tuple[int, ...]:
        q = self.scheme.q
        return tuple([pt // q for pt in self.points[::q]])

    @property
    def alphabet_perms(self) -> tuple[tuple[int, ...], ...]:
        q, pts = self.scheme.q, self.points
        return tuple([tuple([pt % q for pt in pts[i:i + q]]) for i in range(0, len(pts), q)])

    @cached_property
    def _actor(self) -> tuple[list, list, int]:
        return _half_tables(self.points, self.scheme.m, self.scheme.q)

    # -- group operations ------------------------------------------------

    @classmethod
    def identity(cls, scheme: HammingScheme) -> "Automorphism":
        return cls._trusted(scheme, tuple(range(scheme.m * scheme.q)))

    @classmethod
    def from_coord_perm(cls, scheme: HammingScheme, images) -> "Automorphism":
        """Pure coordinate permutation (identity alphabet action)."""
        ident = tuple(range(scheme.q))
        return cls(scheme, (ident,) * scheme.m, tuple(images))

    def apply(self, v: Vertex) -> Vertex:
        if v.scheme != self.scheme:
            raise SchemeMismatchError(f"vertex of {v.scheme} under automorphism of {self.scheme}")
        return _vertex_at(self.scheme, _act(self._actor, [_index_of(v.entries, v.scheme.q)])[0])

    def compose(self, other: "Automorphism") -> "Automorphism":
        """The element acting as self followed by other."""
        if other.scheme != self.scheme:
            raise SchemeMismatchError("composing automorphisms of different schemes")
        return Automorphism._trusted(self.scheme, itemgetter(*self.points)(other.points))

    __mul__ = compose

    def inverse(self) -> "Automorphism":
        return Automorphism._trusted(self.scheme, _invert(self.points))

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


def _element(scheme: HammingScheme, coord_perm, alphabet_perms) -> Automorphism:
    """The constructor's element for arguments valid by construction, unchecked."""
    return Automorphism._trusted(scheme, _points(zip(coord_perm, alphabet_perms), scheme.q))


def translation(alpha: Vertex) -> Automorphism:
    """The translation beta -> beta + alpha of F_2^m.  Binary schemes only."""
    scheme = alpha.scheme
    if scheme.q != 2:
        raise ValueError("translations are defined for q = 2 only")
    return _element(scheme, range(scheme.m), [(1, 0) if e else (0, 1) for e in alpha.entries])


def group_order(scheme: HammingScheme) -> int:
    """Order of the full automorphism group: (q!)^m * m!."""
    return math.factorial(scheme.q) ** scheme.m * math.factorial(scheme.m)


def _coordinate_swaps(scheme: HammingScheme, pairs) -> Automorphism:
    """The coordinate permutation swapping positions i and j for each of
    the disjoint pairs (i, j)."""
    images = list(range(scheme.m))
    for i, j in pairs:
        images[i], images[j] = j, i
    return _element(scheme, images, [range(scheme.q)] * scheme.m)


def full_group_generators(scheme: HammingScheme) -> GeneratorSet:
    """Standard generators of the full group: S_q on coordinate 0 plus S_m."""
    m, q = scheme.m, scheme.q
    rest = [range(q)] * (m - 1)
    gens = [_element(scheme, range(m), [(1, 0, *range(2, q))] + rest)]
    if q > 2:
        gens.append(_element(scheme, range(m), [(*range(1, q), 0)] + rest))
    if m > 1:
        gens.append(_coordinate_swaps(scheme, [(0, 1)]))
        if m > 2:
            gens.append(_element(scheme, [(i + 1) % m for i in range(m)], [range(q)] * m))
    return GeneratorSet(scheme, tuple(gens))


def enumerate_full_group(scheme: HammingScheme, group_cap: int = DEFAULT_GROUP_CAP):
    """Yield all (q!)^m * m! automorphisms once, in canonical order;
    FeasibilityError, at the call, when there are over group_cap."""
    check_cap(scheme.m * math.lgamma(scheme.q + 1) + math.lgamma(scheme.m + 1),
              lambda: group_order(scheme), group_cap,
              lambda size: f"full group of {scheme} has order {size}, over the group cap "
                           f"{group_cap}")
    perms = list(itertools.permutations(range(scheme.q)))

    def gen():
        for sigma in itertools.permutations(range(scheme.m)):
            for gs in itertools.product(perms, repeat=scheme.m):
                yield Automorphism._trusted(scheme, _points(zip(sigma, gs), scheme.q))

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
    seen = _orbit([x._actor for x in gens.generators], _index_of(v.entries, v.scheme.q))
    return tuple([_vertex_at(v.scheme, w) for w in sorted(seen)])


# -- text form ------------------------------------------------------------

def automorphism_to_text(x: Automorphism) -> str:
    """Report form, e.g. 'perm=[1,0]; g0=[1,0]; g1=[0,1]'."""
    parts = ["perm=[" + ",".join(map(str, x.coord_perm)) + "]"]
    for i, g in enumerate(x.alphabet_perms):
        parts.append(f"g{i}=[" + ",".join(map(str, g)) + "]")
    return "; ".join(parts)
