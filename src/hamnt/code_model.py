"""Codes as finite vertex subsets of a Hamming graph.

A Code is immutable and stores one representation: its words' entry
tuples, sorted and deduplicated (_entries), and their frozenset
(_entry_set) to look them up.  Every reader below the public functions
uses them.  The Vertex views, words and neighbour_set, are built only
when a caller reads them; the other derived quantities (minimum
distance, Gamma_1(C) as entry tuples) are cached on first use.  The
neighbour set has one builder, _neighbour_entries, which checks the
enumeration cap first.  Codes are stored extensionally even when they
happen to be linear: linearity is detected, never declared.
"x fixes a vertex set" has one rule, chain.fixes_entries, on entry
tuples; stabilizes_set and is_code_automorphism are its boundary
wrappers, which check the scheme and convert once.  For Gamma_1(C),
_neighbours_fixed_by tests x through the image code.  find_equivalence
returns the least automorphism mapping one code onto another, or None.

The neighbour-set stabilizer of a code has one home, neighbour_stabilizer.
Let D = {v not in Gamma_1(C) : Gamma(v) within Gamma_1(C)}; when
delta >= 2 it is C plus its pre-codewords, and Stab(Gamma_1(C)) =
Stab(D).  Proof: Gamma_1(C) determines D.  And Gamma_1(D) = Gamma_1(C):
C lies in D, D misses Gamma_1(C), and every neighbour of D outside D
lies in Gamma_1(C).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .chain import (StabilizerChain, _least_equivalence, _stabilizer_chain,
                    fixes_entries)
from .errors import CodeFormatError, SchemeMismatchError
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme, Vertex,
                           _ball1, _index_shell, _index_steps, check_cap,
                           vertex_from_text, vertex_to_text)
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, _images,
                           check_group_cap)


def _neighbours_of(words, q: int) -> set[tuple[int, ...]]:
    """Gamma_1 of a set of entry tuples, as a set of entry tuples."""
    out = set()
    for w in words:
        out.update(_ball1(w, q))
    return out.difference(words)


class Code:
    """A set of vertices of one scheme, stored as sorted, deduplicated
    entry tuples; the Vertex view words is built on first read."""

    def __init__(self, scheme: HammingScheme, words: Iterable[Vertex]):
        words = list(words)
        foreign = [w for w in words if w.scheme != scheme]
        if foreign:
            raise SchemeMismatchError(f"word {min(foreign)} does not belong to {scheme}")
        self.scheme = scheme
        self._entry_set = frozenset([w.entries for w in words])
        self._entries = tuple(sorted(self._entry_set))

    @classmethod
    def from_entries(cls, scheme: HammingScheme, rows: Iterable[Iterable[int]]) -> "Code":
        return cls(scheme, (scheme.vertex(row) for row in rows))

    @cached_property
    def words(self) -> tuple[Vertex, ...]:
        """The codewords as vertices, sorted."""
        return tuple([Vertex(self.scheme, w) for w in self._entries])

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, v) -> bool:
        return (isinstance(v, Vertex) and v.scheme == self.scheme
                and v.entries in self._entry_set)

    def __eq__(self, other):
        return (isinstance(other, Code) and self.scheme == other.scheme
                and self._entries == other._entries)

    def __hash__(self):
        return hash((self.scheme, self._entries))

    def __repr__(self):
        return f"Code({self.scheme}, {{{', '.join(vertex_to_text(w) for w in self.words)}}})"

    @cached_property
    def min_distance(self) -> float:
        """Minimum pairwise distance; math.inf when fewer than two words.
        A binary linear code's is its least nonzero weight."""
        entries = self._entries
        if len(entries) <= 1:
            return math.inf
        if is_linear_binary(self):
            return min([sum(w) for w in entries if any(w)])
        return min(sum(map(operator.ne, u, v))
                   for u, v in itertools.combinations(entries, 2))

    @cached_property
    def _neighbour_entries(self) -> tuple[tuple[int, ...], ...]:
        """Gamma_1(C) as sorted entry tuples, built only within the
        enumeration cap (_check_neighbour_cap)."""
        _check_neighbour_cap(self)
        return tuple(sorted(_neighbours_of(self._entries, self.scheme.q)))

    @cached_property
    def neighbour_set(self) -> tuple[Vertex, ...]:
        """All non-codewords adjacent to at least one codeword, sorted."""
        return tuple([Vertex(self.scheme, w) for w in self._neighbour_entries])

    def image(self, x: Automorphism) -> "Code":
        """The code {apply(x, w) : w in C}."""
        if x.scheme != self.scheme:
            raise SchemeMismatchError("automorphism from a different scheme")
        return Code.from_entries(self.scheme, _images(x._moves, self._entries))


def _check_neighbour_cap(code: Code) -> None:
    """FeasibilityError unless the codewords' neighbourhoods, len(C) * m *
    (q-1) vertices in all, are within the enumeration cap."""
    total = len(code) * code.scheme.m * (code.scheme.q - 1)
    check_cap(math.log(max(total, 1)), lambda: total, DEFAULT_ENUMERATION_CAP,
              f"the neighbourhoods of {len(code)} codewords of {code.scheme} hold "
              f"{{size}} vertices, over the enumeration cap {DEFAULT_ENUMERATION_CAP}")


def _neighbours_fixed_by(code: Code, xs: Iterable[Automorphism]) -> bool:
    """True iff every x in xs maps Gamma_1(C) onto itself.  x is a graph
    automorphism, so it maps Gamma_1(C) onto Gamma_1(C^x): an x that fixes
    C needs nothing more, and each other image code needs its neighbour
    set once."""
    words = code._entry_set
    passed, nbrs = {words}, None
    for x in xs:
        if x.scheme != code.scheme:
            raise SchemeMismatchError("automorphism from a different scheme")
        image = frozenset(_images(x._moves, words))
        if image in passed:
            continue
        if nbrs is None:
            nbrs = set(code._neighbour_entries)
        if _neighbours_of(image, code.scheme.q) != nbrs:
            return False
        passed.add(image)
    return True


def stabilizes_set(vertices: Iterable[Vertex], x: Automorphism) -> bool:
    """True iff x maps the vertex set onto itself."""
    vertices = tuple(vertices)
    if any(v.scheme != x.scheme for v in vertices):
        raise SchemeMismatchError("set member from a different scheme")
    return fixes_entries([v.entries for v in vertices], x.scheme.q)(x.points)


def is_code_automorphism(code: Code, x: Automorphism) -> bool:
    """True iff x fixes the code setwise (x belongs to Aut(C))."""
    if x.scheme != code.scheme:
        raise SchemeMismatchError("automorphism from a different scheme")
    return fixes_entries(code._entry_set, code.scheme.q)(x.points)


def neighbour_count(code: Code) -> int:
    """|Gamma_1(C)|, building Gamma_1(C) only when delta < 3.

    The codewords' neighbourhoods hold len(C) * m * (q-1) vertices in all;
    when delta >= 3 they are disjoint and hold no codeword, so that total
    is the answer.
    """
    if code.min_distance >= 3:
        return len(code) * code.scheme.m * (code.scheme.q - 1)
    return len(code._neighbour_entries)


def neighbourhoods_disjoint(code: Code) -> bool:
    """True iff the codewords' neighbourhoods are pairwise disjoint.

    Their sizes add up to len(C) * m * (q-1); their union is Gamma_1(C)
    plus the codewords adjacent to another codeword (none unless
    delta = 1).  Gamma_1(C) is counted by neighbour_count, and the
    adjacent codewords by their balls, m(q-1) lookups each.
    """
    m, q = code.scheme.m, code.scheme.q
    count = neighbour_count(code)
    adjacent = 0
    if code.min_distance == 1:
        words = code._entry_set
        adjacent = sum(not words.isdisjoint(_ball1(w, q)) for w in code._entries)
    return len(code) * m * (q - 1) == count + adjacent


def is_linear_binary(code: Code) -> bool:
    """True iff q=2, the zero vertex is a codeword and C is closed under +.

    A basis is taken greedily over the sorted words: each word outside
    the span so far doubles the span, and C is closed iff every new sum
    is a codeword, |C| sums in all.
    """
    if code.scheme.q != 2 or len(code) == 0:
        return False
    span = [(0,) * code.scheme.m]
    if code._entries[0] != span[0]:  # the least word
        return False
    spanned = set(span)
    for w in code._entries:
        if w not in spanned:
            new = [tuple(map(operator.xor, s, w)) for s in span]
            if not code._entry_set.issuperset(new):
                return False
            span += new
            spanned.update(new)
    return True


def _determined_entries(code: Code) -> list[tuple[int, ...]]:
    """D = C plus its pre-codewords, as sorted entry tuples, for delta >= 3.

    The codewords' neighbourhoods are disjoint, and a vertex shares two
    neighbours with each codeword at distance 2.  Those cover all m(q-1)
    neighbours of a pre-codeword, but at most (m-1)(q-1) of a vertex in
    Gamma_1(C), and none of a codeword.  So the pre-codewords are the
    vertices at distance 2 from exactly m(q-1)/2 codewords, and none exist
    when m(q-1) is odd or C has fewer words.  Its len(C) C(m,2) (q-1)^2
    steps on vertex indices are checked against the enumeration cap first.
    """
    m, q = code.scheme.m, code.scheme.q
    words = list(code._entries)
    half, odd = divmod(m * (q - 1), 2)
    if odd or len(words) < half:
        return words
    total = len(words) * math.comb(m, 2) * (q - 1) ** 2
    check_cap(math.log(max(total, 1)), lambda: total, DEFAULT_ENUMERATION_CAP,
              f"the distance-2 shells of {len(words)} codewords of {code.scheme} hold "
              f"{{size}} vertices, over the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    place = [q ** (m - 1 - i) for i in range(m)]
    pairs = list(itertools.combinations(range(m), 2))
    counts = Counter()
    for w in words:
        counts.update(_index_shell(*_index_steps(w, q, place), pairs))
    pre = [tuple([v // p % q for p in place]) for v, n in counts.items() if n == half]
    return sorted(words + pre)


def neighbour_stabilizer(code: Code, group_cap: int = DEFAULT_GROUP_CAP,
                         aut: StabilizerChain | None = None) -> StabilizerChain:
    """Stab(Gamma_1(C)) as a stabilizer chain, searched on D = C plus its
    pre-codewords when delta >= 3 (module docstring) and on Gamma_1(C)
    otherwise.  Both searches give the same chain, so aut, C's chain if
    the caller has it, is the answer when D = C.  Checks the group cap first."""
    check_group_cap(code.scheme, group_cap)
    if code.min_distance < 3:
        return _stabilizer_chain(list(code._neighbour_entries), code.scheme)
    searched = _determined_entries(code)
    if aut is not None and len(searched) == len(code):
        return aut
    return _stabilizer_chain(searched, code.scheme)


def find_equivalence(code: Code, other: Code,
                     group_cap: int = DEFAULT_GROUP_CAP) -> Automorphism | None:
    """First automorphism y (canonical order) with image(code, y) = other,
    or None when there is none."""
    if code.scheme != other.scheme:
        raise SchemeMismatchError("codes from different schemes")
    if len(code) != len(other):
        return None
    return _least_equivalence(code._entries, other._entries, code.scheme, group_cap)


# -- shared code file format ------------------------------------------------
#
# line 1: "m q"; one vertex per later line in the shared text form; lines
# starting with '#' and blank lines are ignored.  Writers emit sorted order.

def parse_code_text(text: str) -> Code:
    scheme = None
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if scheme is None:
            parts = line.split()
            if len(parts) != 2:
                raise CodeFormatError(f"line {lineno}: header must be 'm q', got {line!r}")
            try:
                m, q = int(parts[0]), int(parts[1])
                scheme = HammingScheme(m, q)
            except ValueError as exc:
                raise CodeFormatError(f"line {lineno}: bad header {line!r}: {exc}") from None
            continue
        try:
            words.append(vertex_from_text(scheme, line))
        except CodeFormatError as exc:
            raise CodeFormatError(f"line {lineno}: {exc}") from None
    if scheme is None:
        raise CodeFormatError("empty code file: missing 'm q' header")
    return Code(scheme, words)


def code_to_text(code: Code) -> str:
    lines = [f"{code.scheme.m} {code.scheme.q}"]
    lines.extend(vertex_to_text(w) for w in code.words)
    return "\n".join(lines) + "\n"


def read_code_file(path) -> Code:
    try:
        return parse_code_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise CodeFormatError(f"{path}: not UTF-8 text: {exc}") from None


def write_code_file(code: Code, path) -> None:
    Path(path).write_text(code_to_text(code))
