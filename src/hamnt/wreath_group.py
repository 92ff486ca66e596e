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

Searches and subgroups live in the module chain.  enumerate_full_group
and closure have no caller in the package; the tests use them as oracles.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

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
