"""Vertices of the Hamming graph H(m,q).

Vertices are m-tuples over the alphabet {0,...,q-1} with 0 the
distinguished zero symbol; two vertices are adjacent iff they differ in
exactly one entry.  Coordinates are 0-indexed everywhere.  All set-valued
results are returned as lexicographically sorted tuples without
duplicates, and every value in this module is immutable, so everything
here is safe to share between threads.

Below the public functions a vertex is its base-q index
sum_p v_p * q^(m-1-p), so index order is lexicographic order; _index_of
and _vertex_at convert.  _index_steps gives each position's digit
changes, and _index_ball and _index_shell add one or two of them.  The
public functions build one validated Vertex or Triple per result.
"""

from __future__ import annotations

import functools
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


def _index_of(entries, q: int) -> int:
    """The base-q index of an entry tuple."""
    return functools.reduce(lambda x, e: x * q + e, entries, 0)


def _vertex_at(scheme: HammingScheme, x: int) -> Vertex:
    """The vertex with base-q index x."""
    return Vertex(scheme, tuple([x // p % scheme.q for p in _places(scheme.m, scheme.q)]))


@functools.lru_cache(maxsize=64)
def _places(m: int, q: int) -> tuple[int, ...]:
    """place[i] = q^(m-1-i), the weight of entry i in an index (kept per scheme)."""
    return tuple([q ** (m - 1 - i) for i in range(m)])


def _index_steps(x: int, q: int, place: list[int]) -> list[list[int]]:
    """steps[i], the changes to x that move entry i to each other symbol."""
    digits = [x // p % q for p in place]
    return [[(c - e) * p for c in range(q) if c != e] for e, p in zip(digits, place)]


def _index_ball(x: int, steps: list[list[int]]) -> list[int]:
    """The indices at distance 1 from x, by position then symbol."""
    return [x + a for s in steps for a in s]


def _index_shell(x: int, steps: list[list[int]], pairs) -> list[int]:
    """The indices at distance 2 from x, over the position pairs i < j."""
    return [x + a + b for i, j in pairs for a in steps[i] for b in steps[j]]


def _index_neighbours(xs, q: int, place: list[int]) -> set[int]:
    """Gamma_1 of a set of indices: each member with its digit at one
    position raised by c = 1..q-1 (mod q), less the members."""
    out = set()
    for p in place:
        for c in range(1, q):
            out.update([x + (c - (x // p % q + c) // q * q) * p for x in xs])
    return out.difference(xs)


def neighbours(v: Vertex) -> tuple[Vertex, ...]:
    """The m(q-1) vertices at distance 1 from v, sorted lexicographically."""
    return shell(v, 1)


def common_neighbours(u: Vertex, v: Vertex) -> tuple[Vertex, ...]:
    """Sorted intersection of the two neighbourhoods; u must differ from v."""
    _check_same_scheme(u, v)
    if u == v:
        raise ValueError("common_neighbours requires distinct vertices")
    return tuple(sorted(set(neighbours(u)).intersection(neighbours(v))))


def shell(alpha: Vertex, radius: int) -> tuple[Vertex, ...]:
    """All vertices at distance exactly radius from alpha, sorted.

    Size is C(m, radius) * (q-1)^radius.
    """
    m, q = alpha.scheme.m, alpha.scheme.q
    if not 0 <= radius <= m:
        raise ValueError(f"radius {radius} outside 0..{m}")
    x = _index_of(alpha.entries, q)
    steps = _index_steps(x, q, _places(m, q))
    ring = sorted([x + sum(changes) for positions in itertools.combinations(steps, radius)
                   for changes in itertools.product(*positions)])
    return tuple([_vertex_at(alpha.scheme, y) for y in ring])


def check_cap(ln_size: float, exact: Callable[[], int], cap: int,
              message: Callable[[object], str]) -> int:
    """The size exact() returns; FeasibilityError, text message(size), when it exceeds cap.

    ln_size, the size's natural log, decides first: a size over 100 digits
    and over e * cap is neither built nor printed, only shown as 10^k.
    """
    if ln_size > max(math.log(max(cap, 1)) + 1, 100 * math.log(10)):
        raise FeasibilityError(message(f"about 10^{ln_size / math.log(10):.0f}"))
    size = exact()
    if size > cap:
        raise FeasibilityError(message(size), required=size)
    return size


def check_enumeration_cap(scheme: HammingScheme) -> int:
    """q^m; FeasibilityError when it exceeds DEFAULT_ENUMERATION_CAP."""
    return check_cap(
        scheme.m * math.log(scheme.q), lambda: scheme.vertex_count, DEFAULT_ENUMERATION_CAP,
        lambda size: f"{scheme} has {size} vertices, over the enumeration cap "
                     f"{DEFAULT_ENUMERATION_CAP}")


def enumerate_triples(scheme: HammingScheme) -> Iterator[Triple]:
    """Yield every triple (alpha, nu, beta) of the scheme.

    Order: alpha, then beta, then nu, each lexicographic.  The number of
    triples is q^m * C(m,2) * (q-1)^2 * 2.
    """
    check_enumeration_cap(scheme)
    alphas = scheme.vertices() if scheme.m > 1 else ()  # no distance 2 at m = 1
    return (Triple(alpha, nu, beta) for alpha in alphas
            for beta in shell(alpha, 2) for nu in common_neighbours(alpha, beta))


def vertex_to_text(v: Vertex) -> str:
    """Shared text form: digit string for q <= 10, comma-separated otherwise."""
    if v.scheme.q <= 10:
        return "".join(str(e) for e in v.entries)
    return ",".join(str(e) for e in v.entries)


def _digits(parts) -> tuple[int, ...]:
    """The numbers the parts spell in ASCII digits; ValueError, in int()'s
    words, at the first other part (int() also takes signs, underscores,
    spaces and other scripts' digits)."""
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"invalid literal for int() with base 10: {part!r}")
    return tuple(map(int, parts))


def vertex_from_text(scheme: HammingScheme, text: str) -> Vertex:
    """Parse the shared text form back into a vertex of the given scheme."""
    text = text.strip()
    try:
        entries = _digits(text if scheme.q <= 10 else text.split(","))
    except ValueError as exc:
        raise CodeFormatError(f"cannot parse vertex {text!r}: {exc}") from None
    try:
        return Vertex(scheme, entries)
    except ValueError as exc:
        raise CodeFormatError(f"bad vertex {text!r} for {scheme}: {exc}") from None
