"""Vertices of the Hamming graph H(m,q).

Vertices are m-tuples over the alphabet {0,...,q-1} with 0 the
distinguished zero symbol; two vertices are adjacent iff they differ in
exactly one entry.  Coordinates are 0-indexed everywhere.  All set-valued
results are returned as lexicographically sorted tuples without
duplicates, and every value in this module is immutable, so everything
here is safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import (CodeFormatError, FeasibilityError, HypothesisError,
                     SchemeMismatchError)

#: Default bound on q^m for exhaustive vertex sweeps.
DEFAULT_ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class HammingScheme:
    """The parameter pair (m, q) of a Hamming graph H(m,q)."""

    m: int
    q: int

    def __post_init__(self):
        if self.m < 1:
            raise HypothesisError(f"word length m must be >= 1, got {self.m}")
        if self.q < 2:
            raise HypothesisError(f"alphabet size q must be >= 2, got {self.q}")

    @property
    def vertex_count(self) -> int:
        return self.q ** self.m

    def vertex(self, entries) -> "Vertex":
        return Vertex(self, tuple(entries))

    def zero(self) -> "Vertex":
        return Vertex(self, (0,) * self.m)

    def unit(self, i: int) -> "Vertex":
        """The vertex e_i with a single 1 in position i."""
        entries = [0] * self.m
        entries[i] = 1
        return Vertex(self, tuple(entries))

    def vertices(self) -> Iterator["Vertex"]:
        """All q^m vertices in lexicographic order."""
        for entries in itertools.product(range(self.q), repeat=self.m):
            yield Vertex(self, entries)

    def __str__(self):
        return f"H({self.m},{self.q})"


@dataclass(frozen=True)
class Vertex:
    """An m-tuple over {0,...,q-1}; ordered lexicographically by entries."""

    scheme: HammingScheme
    entries: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.scheme.m:
            raise ValueError(
                f"vertex has {len(self.entries)} entries, scheme needs {self.scheme.m}")
        for e in self.entries:
            if not 0 <= e < self.scheme.q:
                raise ValueError(f"entry {e} outside alphabet 0..{self.scheme.q - 1}")

    def __lt__(self, other: "Vertex"):
        return self.entries < other.entries

    def __le__(self, other: "Vertex"):
        return self.entries <= other.entries

    def __str__(self):
        return vertex_to_text(self)

    def __repr__(self):
        return f"Vertex({self.scheme}, {vertex_to_text(self)!r})"


@dataclass(frozen=True)
class Triple:
    """A triple (alpha, nu, beta) with d(alpha,beta)=2 and nu adjacent to both."""

    alpha: Vertex
    nu: Vertex
    beta: Vertex

    def __post_init__(self):
        if distance(self.alpha, self.beta) != 2:
            raise ValueError("triple needs d(alpha, beta) = 2")
        if distance(self.alpha, self.nu) != 1 or distance(self.nu, self.beta) != 1:
            raise ValueError("nu must be a common neighbour of alpha and beta")


def _check_same_scheme(u: Vertex, v: Vertex):
    if u.scheme != v.scheme:
        raise SchemeMismatchError(f"vertices from {u.scheme} and {v.scheme}")


def distance(u: Vertex, v: Vertex) -> int:
    """Hamming distance: the number of entries in which u and v differ."""
    _check_same_scheme(u, v)
    return sum(a != b for a, b in zip(u.entries, v.entries))


def weight(v: Vertex) -> int:
    """Number of non-zero entries; equals distance from the zero vertex."""
    return sum(e != 0 for e in v.entries)


def neighbours(v: Vertex) -> tuple[Vertex, ...]:
    """The m(q-1) vertices at distance 1 from v, sorted lexicographically."""
    scheme = v.scheme
    out = []
    for i, e in enumerate(v.entries):
        for c in range(scheme.q):
            if c != e:
                entries = list(v.entries)
                entries[i] = c
                out.append(Vertex(scheme, tuple(entries)))
    return tuple(sorted(out))


def common_neighbours(u: Vertex, v: Vertex) -> tuple[Vertex, ...]:
    """Sorted intersection of the two neighbourhoods; u must differ from v."""
    _check_same_scheme(u, v)
    if u == v:
        raise ValueError("common_neighbours requires distinct vertices")
    shared = set(neighbours(u)) & set(neighbours(v))
    return tuple(sorted(shared))


def _distance_two(v: Vertex) -> list[Vertex]:
    scheme = v.scheme
    out = []
    for i, j in itertools.combinations(range(scheme.m), 2):
        for a in range(scheme.q):
            if a == v.entries[i]:
                continue
            for b in range(scheme.q):
                if b == v.entries[j]:
                    continue
                entries = list(v.entries)
                entries[i] = a
                entries[j] = b
                out.append(Vertex(scheme, tuple(entries)))
    out.sort()
    return out


def check_enumeration_cap(scheme: HammingScheme, enumeration_cap: int) -> None:
    """Raise FeasibilityError when q^m exceeds the enumeration cap."""
    if scheme.vertex_count > enumeration_cap:
        raise FeasibilityError(
            f"{scheme} has {scheme.vertex_count} vertices, over the "
            f"enumeration cap {enumeration_cap}",
            required=scheme.vertex_count, cap=enumeration_cap)


def enumerate_triples(scheme: HammingScheme,
                      enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Triple]:
    """Yield every triple (alpha, nu, beta) of the scheme.

    Order: alpha, then beta, then nu, each lexicographic.  The number of
    triples is q^m * C(m,2) * (q-1)^2 * 2.
    """
    check_enumeration_cap(scheme, enumeration_cap)

    def gen():
        for alpha in scheme.vertices():
            for beta in _distance_two(alpha):
                for nu in common_neighbours(alpha, beta):
                    yield Triple(alpha, nu, beta)

    return gen()


def vertex_to_text(v: Vertex) -> str:
    """Shared text form: digit string for q <= 10, comma-separated otherwise."""
    if v.scheme.q <= 10:
        return "".join(str(e) for e in v.entries)
    return ",".join(str(e) for e in v.entries)


def vertex_from_text(scheme: HammingScheme, text: str) -> Vertex:
    """Parse the shared text form back into a vertex of the given scheme."""
    text = text.strip()
    try:
        if scheme.q <= 10:
            entries = tuple(int(ch) for ch in text)
        else:
            entries = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CodeFormatError(f"cannot parse vertex {text!r}: {exc}") from None
    try:
        return Vertex(scheme, entries)
    except ValueError as exc:
        raise CodeFormatError(f"bad vertex {text!r} for {scheme}: {exc}") from None
