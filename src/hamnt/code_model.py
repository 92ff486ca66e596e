"""Codes as finite vertex subsets of a Hamming graph.

A Code is immutable and stores one representation: its words' base-q
indices (module hamming_core), sorted and deduplicated (_indices), and
their frozenset (_index_set) to look them up.  Every reader below the
public functions uses them.  The Vertex views, words and neighbour_set,
are built only when a caller reads them; the other derived quantities
(minimum distance, Gamma_1(C) as indices) are cached on first use, each
behind its cap: the pair cap, and the enumeration cap in the one builder
of Gamma_1(C), _neighbour_indices.  Codes are stored extensionally even
when they happen to be linear: linearity is detected, never declared.
"x fixes a vertex set" has one rule, chain._fixes, a test on elements
over indices; stabilizes_set and is_code_automorphism are its boundary
wrappers, which check the scheme and convert once, and
chain.least_outside takes it as it is.  For Gamma_1(C),
_neighbours_fixed_by tests x through the image code.  find_equivalence returns the least
automorphism mapping one code onto another, or None.

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
from collections import Counter
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .chain import StabilizerChain, _fixes, _least_equivalence, _stabilizer_chain
from .errors import CodeFormatError, FeasibilityError, SchemeMismatchError
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme, Vertex, _digits,
                           _index_ball, _index_neighbours, _index_of, _index_shell,
                           _index_steps, _places, _vertex_at, check_cap,
                           vertex_from_text, vertex_to_text)
from .wreath_group import Automorphism, _act

#: Bound on the pairs min_distance compares (20,000 words of H(24,2), about 20 s).
_PAIR_CAP = 2 * 10**8


class Code:
    """A set of vertices of one scheme, stored as sorted, deduplicated
    vertex indices; the Vertex view words is built on first read."""

    def __init__(self, scheme: HammingScheme, words: Iterable[Vertex]):
        words = list(words)
        foreign = [w for w in words if w.scheme != scheme]
        if foreign:
            raise SchemeMismatchError(f"word {min(foreign)} does not belong to {scheme}")
        self.scheme = scheme
        self._index_set = frozenset([_index_of(w.entries, scheme.q) for w in words])
        self._indices = tuple(sorted(self._index_set))

    @classmethod
    def from_entries(cls, scheme: HammingScheme, rows: Iterable[Iterable[int]]) -> "Code":
        return cls(scheme, (scheme.vertex(row) for row in rows))

    @classmethod
    def _from_indices(cls, scheme: HammingScheme, indices: Iterable[int]) -> "Code":
        """The code of these vertex indices, valid by construction, unchecked."""
        code = object.__new__(cls)
        code.scheme, code._index_set = scheme, frozenset(indices)
        code._indices = tuple(sorted(code._index_set))
        return code

    @cached_property
    def words(self) -> tuple[Vertex, ...]:
        """The codewords as vertices, sorted."""
        return tuple([_vertex_at(self.scheme, x) for x in self._indices])

    def __len__(self):
        return len(self._indices)

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, v) -> bool:
        return (isinstance(v, Vertex) and v.scheme == self.scheme
                and _index_of(v.entries, self.scheme.q) in self._index_set)

    def __eq__(self, other):
        return (isinstance(other, Code) and self.scheme == other.scheme
                and self._indices == other._indices)

    def __hash__(self):
        return hash((self.scheme, self._indices))

    def __repr__(self):
        return f"Code({self.scheme}, {{{', '.join(vertex_to_text(w) for w in self.words)}}})"

    @cached_property
    def min_distance(self) -> float:
        """Minimum pairwise distance; math.inf when fewer than two words.
        A binary linear code's is its least nonzero weight.  Otherwise two
        words at distance d share m - d bits of their masks, a bit per
        position and occurring symbol (m * min(q, |C|) bits at most), whose
        pairs are checked against _PAIR_CAP first, once per 512 mask bits."""
        indices, m, q = self._indices, self.scheme.m, self.scheme.q
        if len(indices) <= 1:
            return math.inf
        if is_linear_binary(self):
            return min([x.bit_count() for x in indices if x])
        n = len(indices)
        pairs = n * (n - 1) // 2 * -(-m * min(q, n) // 512)
        if pairs > _PAIR_CAP:
            raise FeasibilityError(
                f"the minimum distance of {n} codewords of {self.scheme} compares {pairs} "
                f"pairs of 512-bit mask blocks, over the pair cap {_PAIR_CAP}")
        bit: dict[int, int] = {}  # point p*q + v_p -> its bit, numbered as points occur
        masks = [sum([1 << bit.setdefault(p * q + x // d % q, len(bit))
                      for p, d in enumerate(_places(m, q))]) for x in indices]
        return m - max([max(map(int.bit_count, map(a.__and__, masks[i + 1:])))
                        for i, a in enumerate(masks[:-1])])

    @cached_property
    def _neighbour_indices(self) -> tuple[int, ...]:
        """Gamma_1(C) as sorted indices, built only within the enumeration
        cap (_check_shells)."""
        _check_shells(len(self), "codewords", self.scheme)
        m, q = self.scheme.m, self.scheme.q
        return tuple(sorted(_index_neighbours(self._index_set, q, _places(m, q))))

    @cached_property
    def neighbour_set(self) -> tuple[Vertex, ...]:
        """All non-codewords adjacent to at least one codeword, sorted."""
        return tuple([_vertex_at(self.scheme, x) for x in self._neighbour_indices])

    def image(self, x: Automorphism) -> "Code":
        """The code {apply(x, w) : w in C}."""
        if x.scheme != self.scheme:
            raise SchemeMismatchError("automorphism from a different scheme")
        return Code._from_indices(self.scheme, _act(x._actor, self._indices))


def _neighbours_fixed_by(code: Code, xs: Iterable[Automorphism]) -> bool:
    """True iff every x in xs maps Gamma_1(C) onto itself.  x is a graph
    automorphism, so it maps Gamma_1(C) onto Gamma_1(C^x): an x that fixes
    C needs nothing more, and each other image code needs its neighbour
    set once."""
    words, q, place = code._index_set, code.scheme.q, _places(code.scheme.m, code.scheme.q)
    passed, nbrs = {words}, None
    for x in xs:
        if x.scheme != code.scheme:
            raise SchemeMismatchError("automorphism from a different scheme")
        image = frozenset(_act(x._actor, words))
        if image in passed:
            continue
        if nbrs is None:
            nbrs = set(code._neighbour_indices)
        if _index_neighbours(image, q, place) != nbrs:
            return False
        passed.add(image)
    return True


def stabilizes_set(vertices: Iterable[Vertex], x: Automorphism) -> bool:
    """True iff x maps the vertex set onto itself."""
    vertices = tuple(vertices)
    if any(v.scheme != x.scheme for v in vertices):
        raise SchemeMismatchError("set member from a different scheme")
    return _fixes([_index_of(v.entries, x.scheme.q) for v in vertices], x.scheme)(x)


def is_code_automorphism(code: Code, x: Automorphism) -> bool:
    """True iff x fixes the code setwise (x belongs to Aut(C))."""
    if x.scheme != code.scheme:
        raise SchemeMismatchError("automorphism from a different scheme")
    return _fixes(code._index_set, code.scheme)(x)


def neighbour_count(code: Code) -> int:
    """|Gamma_1(C)|, building Gamma_1(C) only when delta < 3.

    The codewords' neighbourhoods hold len(C) * m * (q-1) vertices in all;
    when delta >= 3 they are disjoint and hold no codeword, so that total
    is the answer.
    """
    if code.min_distance >= 3:
        return len(code) * code.scheme.m * (code.scheme.q - 1)
    return len(code._neighbour_indices)


def neighbourhoods_disjoint(code: Code) -> bool:
    """True iff the codewords' neighbourhoods are pairwise disjoint.

    Their sizes add up to len(C) * m * (q-1); their union is Gamma_1(C)
    plus the codewords adjacent to another codeword (none unless
    delta = 1).  Gamma_1(C) is counted by neighbour_count, and the
    adjacent codewords by their balls, m(q-1) lookups each.
    """
    m, q = code.scheme.m, code.scheme.q
    count, adjacent = neighbour_count(code), 0
    if code.min_distance == 1:
        words, place = code._index_set, _places(m, q)
        adjacent = sum(not words.isdisjoint(_index_ball(x, _index_steps(x, q, place)))
                       for x in code._indices)
    return len(code) * m * (q - 1) == count + adjacent


def is_linear_binary(code: Code) -> bool:
    """True iff q=2, the zero vertex is a codeword and C is closed under +.

    A basis is taken greedily over the sorted words: each word outside
    the span so far doubles the span, and C is closed iff every new sum
    is a codeword, |C| sums in all.
    """
    if code.scheme.q != 2 or len(code) == 0 or code._indices[0]:  # the least word
        return False
    span, spanned = [0], {0}
    for w in code._indices:
        if w not in spanned:
            new = [s ^ w for s in span]
            if not code._index_set.issuperset(new):
                return False
            span += new
            spanned.update(new)
    return True


def _check_shells(count: int, what: str, scheme: HammingScheme, radius: int = 1) -> None:
    """FeasibilityError unless the shells of radius 1 or 2 about count vertices
    (what they are), count * C(m,radius) * (q-1)^radius in all, are within the cap."""
    total = count * math.comb(scheme.m, radius) * (scheme.q - 1) ** radius
    shells = "neighbourhoods" if radius == 1 else "distance-2 shells"
    check_cap(math.log(max(total, 1)), lambda: total, DEFAULT_ENUMERATION_CAP, lambda size: (
        f"the {shells} of {count} {what} of {scheme} hold {size} vertices, over the "
        f"enumeration cap {DEFAULT_ENUMERATION_CAP}"))


def _determined_indices(code: Code) -> list[int]:
    """D = C plus its pre-codewords, as sorted indices, for delta >= 3.

    The codewords' neighbourhoods are disjoint, and a vertex shares two
    neighbours with each codeword at distance 2.  Those cover all m(q-1)
    neighbours of a pre-codeword, but at most (m-1)(q-1) of a vertex in
    Gamma_1(C), and none of a codeword.  So the pre-codewords are the
    vertices at distance 2 from exactly m(q-1)/2 codewords, and none exist
    when m(q-1) is odd or C has fewer words.  Its len(C) C(m,2) (q-1)^2
    steps are checked against the enumeration cap first.
    """
    m, q = code.scheme.m, code.scheme.q
    words = list(code._indices)
    half, odd = divmod(m * (q - 1), 2)
    if odd or len(words) < half:
        return words
    _check_shells(len(words), "codewords", code.scheme, 2)
    place, pairs = _places(m, q), list(itertools.combinations(range(m), 2))
    counts = Counter()
    for w in words:
        counts.update(_index_shell(w, _index_steps(w, q, place), pairs))
    return sorted(words + [v for v, n in counts.items() if n == half])


def neighbour_stabilizer(code: Code, aut: StabilizerChain | None = None) -> StabilizerChain:
    """Stab(Gamma_1(C)) as a stabilizer chain, searched on D = C plus its
    pre-codewords when delta >= 3 (module docstring) and on Gamma_1(C)
    otherwise.  Both searches give the same chain, so aut, C's chain if
    the caller has it, is the answer when D = C."""
    if code.min_distance < 3:
        return _stabilizer_chain(list(code._neighbour_indices), code.scheme)
    searched = _determined_indices(code)
    if aut is not None and len(searched) == len(code):
        return aut
    return _stabilizer_chain(searched, code.scheme)


def find_equivalence(code: Code, other: Code) -> Automorphism | None:
    """First automorphism y (canonical order) with image(code, y) = other,
    or None when there is none."""
    if code.scheme != other.scheme:
        raise SchemeMismatchError("codes from different schemes")
    if len(code) != len(other):
        return None
    return _least_equivalence(code._indices, other._indices, code.scheme)


# -- shared code file format ------------------------------------------------
#
# line 1: "m q"; one vertex per later line in the shared text form; lines
# starting with '#' and blank lines are ignored.  Every number is ASCII
# digits only (hamming_core._digits).  Writers emit sorted order.

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
                m, q = _digits(parts)
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
