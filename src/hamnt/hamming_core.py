"""Vertices of the Hamming graph H(m,q).

Vertices are m-tuples over the alphabet {0,...,q-1} with 0 the
distinguished zero symbol; two vertices are adjacent iff they differ in
exactly one entry.  Coordinates are 0-indexed everywhere.  All set-valued
results are returned as lexicographically sorted tuples without
duplicates, and every value in this module is immutable, so everything
here is safe to share between threads.

The combinatorics run on entry tuples: _ball1 (distance 1),
_shell_entries (distance r) and _triple_entries (every triple, flat).
Walks that need no tuples run on base-q vertex indices: _index_steps gives
the digit changes, _index_ball and _index_shell add one or two of them.
The public functions are thin wrappers that build one validated Vertex
or Triple per result; the library's hot paths call the kernels directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

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


def _ball1(entries: tuple[int, ...], q: int) -> list[tuple[int, ...]]:
    """The m(q-1) entry tuples at distance 1, by position then symbol."""
    out = []
    for i, e in enumerate(entries):
        head, tail = entries[:i], entries[i + 1:]
        out.extend([head + (c,) + tail for c in range(q) if c != e])
    return out


def _shell_entries(entries: tuple[int, ...], q: int,
                   radius: int) -> list[tuple[int, ...]]:
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


def _index_steps(entries: tuple[int, ...], q: int, place: list[int]):
    """(x, steps): entries as the base-q number x, place[i] = q^(m-1-i), so
    index order is lexicographic; steps[i] moves entry i to each other symbol."""
    return (sum([e * p for e, p in zip(entries, place)]),
            [[(c - e) * p for c in range(q) if c != e] for e, p in zip(entries, place)])


def _index_ball(x: int, steps: list[list[int]]) -> list[int]:
    """The indices at distance 1 from x, by position then symbol."""
    return [x + a for s in steps for a in s]


def _index_shell(x: int, steps: list[list[int]], pairs) -> list[int]:
    """The indices at distance 2 from x, over the position pairs i < j."""
    return [x + a + b for i, j in pairs for a in steps[i] for b in steps[j]]


def _triple_entries(scheme: HammingScheme) -> Iterator[tuple[int, ...]]:
    """Every triple as the 3m entries alpha + nu + beta, in the order of
    enumerate_triples.  beta differs from alpha at two positions, and
    each nu takes beta's entry at one of them."""
    q = scheme.q
    for alpha in itertools.product(range(q), repeat=scheme.m):
        for beta in _shell_entries(alpha, q, 2):
            i, j = [k for k, (a, b) in enumerate(zip(alpha, beta)) if a != b]
            nus = (alpha[:i] + beta[i:i + 1] + alpha[i + 1:],
                   alpha[:j] + beta[j:j + 1] + alpha[j + 1:])
            for nu in sorted(nus):
                yield alpha + nu + beta


def neighbours(v: Vertex) -> tuple[Vertex, ...]:
    """The m(q-1) vertices at distance 1 from v, sorted lexicographically."""
    return tuple([Vertex(v.scheme, w) for w in sorted(_ball1(v.entries, v.scheme.q))])


def common_neighbours(u: Vertex, v: Vertex) -> tuple[Vertex, ...]:
    """Sorted intersection of the two neighbourhoods; u must differ from v."""
    _check_same_scheme(u, v)
    if u == v:
        raise ValueError("common_neighbours requires distinct vertices")
    q = u.scheme.q
    shared = set(_ball1(u.entries, q)).intersection(_ball1(v.entries, q))
    return tuple([Vertex(u.scheme, w) for w in sorted(shared)])


def shell(alpha: Vertex, radius: int) -> tuple[Vertex, ...]:
    """All vertices at distance exactly radius from alpha, sorted.

    Size is C(m, radius) * (q-1)^radius.
    """
    scheme = alpha.scheme
    if not 0 <= radius <= scheme.m:
        raise ValueError(f"radius {radius} outside 0..{scheme.m}")
    return tuple([Vertex(scheme, w)
                  for w in _shell_entries(alpha.entries, scheme.q, radius)])


def check_cap(ln_size: float, exact: Callable[[], int], cap: int,
              message: str) -> int:
    """The size exact() returns; FeasibilityError when it exceeds cap.

    ln_size, the size's natural log, decides first: a size over 100 digits
    and over e * cap is neither built nor printed, only shown as 10^k.
    """
    if ln_size > max(math.log(max(cap, 1)) + 1, 100 * math.log(10)):
        raise FeasibilityError(
            message.format(size=f"about 10^{ln_size / math.log(10):.0f}"), cap=cap)
    size = exact()
    if size > cap:
        raise FeasibilityError(message.format(size=size), required=size, cap=cap)
    return size


def check_enumeration_cap(scheme: HammingScheme) -> int:
    """q^m; FeasibilityError when it exceeds DEFAULT_ENUMERATION_CAP."""
    return check_cap(
        scheme.m * math.log(scheme.q), lambda: scheme.vertex_count, DEFAULT_ENUMERATION_CAP,
        f"{scheme} has {{size}} vertices, over the enumeration cap {DEFAULT_ENUMERATION_CAP}")


def enumerate_triples(scheme: HammingScheme) -> Iterator[Triple]:
    """Yield every triple (alpha, nu, beta) of the scheme.

    Order: alpha, then beta, then nu, each lexicographic.  The number of
    triples is q^m * C(m,2) * (q-1)^2 * 2.
    """
    check_enumeration_cap(scheme)
    m = scheme.m
    return (Triple(Vertex(scheme, t[:m]), Vertex(scheme, t[m:2 * m]),
                   Vertex(scheme, t[2 * m:])) for t in _triple_entries(scheme))


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
