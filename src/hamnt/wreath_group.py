"""Automorphisms of H(m,q): the wreath product S_q wr S_m = N >| L.

An element x = g*sigma has one alphabet permutation g_i per coordinate
and a coordinate permutation sigma.  Its right action on a vertex v is

    (v^x)[sigma[i]] = g_i(v[i])

i.e. first relabel each entry, then move the entry at position i to
position sigma(i).  Composition reads left to right: apply(x*y, v) equals
apply(y, apply(x, v)).

x is stored as its faithful action on the m*q points (position, symbol):
point p*q + c goes to sigma(p)*q + g_p(c), and x followed by y is
tuple([y[pt] for pt in x]) (Seress, Permutation Group Algorithms, 2003,
ch. 4).  The normal form (g, sigma) is derived from the points for the
text form and the canonical order.  Every action on entry tuples goes
through _mover, the pairs (g_i, i) by target position; _images applies
them, and _orbit searches with them breadth first.  apply and orbit are
the boundary: they check the scheme and build a Vertex per result, and
the library calls _images and _orbit on entry tuples.

The canonical enumeration order used everywhere (full-group enumeration,
stabilizer output, witness selection) is lexicographic over sigma's
images, then lexicographic over the tuple of alphabet-permutation images.

Searches and subgroups live in the module chain, and so does the one
set-fixing rule (chain.fixes_entries).  enumerate_full_group and closure
have no caller in the package; the tests use them as oracles, and the
benchmark's tracer wraps them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import FeasibilityError, SchemeMismatchError
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


def _points(pairs, q: int) -> tuple[int, ...]:
    """The point images of the (sigma(i), g_i) pairs, i ascending."""
    return tuple([p * q + gc for p, g in pairs for gc in g])


def _mover(points: tuple[int, ...], q: int) -> list:
    """The action on entry tuples of the element with these point images:
    the pairs (g_i, i) by target position sigma(i), ascending."""
    mover = [None] * (len(points) // q)
    for i in range(0, len(points), q):
        g = tuple([pt % q for pt in points[i:i + q]])
        mover[points[i] // q] = (g, i // q)
    return mover


def _images(mover: list, words) -> list[tuple[int, ...]]:
    """The image of each entry tuple under a mover: entry j is g_i(w[i])."""
    return [tuple([g[w[i]] for g, i in mover]) for w in words]


def _orbit(movers: list, start: tuple[int, ...], size: int | None = None) -> set[tuple[int, ...]]:
    """The entry tuples reached from start under the movers, breadth first,
    stopping after the layer that brings them to size when given."""
    seen, frontier = {start}, [start]
    while frontier and len(seen) != size:
        new = {w for mover in movers for w in _images(mover, frontier)} - seen
        seen |= new
        frontier = list(new)
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
    def _moves(self) -> list:
        return _mover(self.points, self.scheme.q)

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
        return Vertex(self.scheme, _images(self._moves, (v.entries,))[0])

    def compose(self, other: "Automorphism") -> "Automorphism":
        """The element acting as self followed by other."""
        if other.scheme != self.scheme:
            raise SchemeMismatchError("composing automorphisms of different schemes")
        y = other.points
        return Automorphism._trusted(self.scheme, tuple([y[pt] for pt in self.points]))

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


def _coordinate_swaps(scheme: HammingScheme, pairs) -> Automorphism:
    """The coordinate permutation swapping positions i and j for each of
    the disjoint pairs (i, j)."""
    images = list(range(scheme.m))
    for i, j in pairs:
        images[i], images[j] = j, i
    return Automorphism.from_coord_perm(scheme, images)


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
        gens.append(_coordinate_swaps(scheme, [(0, 1)]))
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
    seen = _orbit([x._moves for x in gens.generators], v.entries)
    return tuple([Vertex(v.scheme, w) for w in sorted(seen)])


# -- text form ------------------------------------------------------------

def automorphism_to_text(x: Automorphism) -> str:
    """Report form, e.g. 'perm=[1,0]; g0=[1,0]; g1=[0,1]'."""
    parts = ["perm=[" + ",".join(map(str, x.coord_perm)) + "]"]
    for i, g in enumerate(x.alphabet_perms):
        parts.append(f"g{i}=[" + ",".join(map(str, g)) + "]")
    return "; ".join(parts)
