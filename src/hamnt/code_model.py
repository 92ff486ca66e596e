"""Codes as finite vertex subsets of a Hamming graph.

A Code stores its words sorted and deduplicated and is immutable; the
derived quantities (minimum distance, neighbour set) are cached on first
use.  Codes are stored extensionally even when they happen to be linear:
linearity is detected, never declared.  "x fixes a vertex set" has one
rule, _stabilized_by, which acts on entry tuples (module wreath_group)
and reads the set once for a list of elements; stabilizes_set is that
rule for one element, and is_code_automorphism is it on the code's words.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .chain import _least_equivalence
from .errors import CodeFormatError, SchemeMismatchError
from .hamming_core import (DEFAULT_ENUMERATION_CAP, HammingScheme, Vertex,
                           _ball1, check_cap, vertex_from_text, vertex_to_text)
from .wreath_group import (DEFAULT_GROUP_CAP, Automorphism, GeneratorSet,
                           _images, translation)


class Code:
    """A deduplicated, lexicographically sorted set of vertices of one scheme."""

    def __init__(self, scheme: HammingScheme, words: Iterable[Vertex]):
        ws = sorted(set(words))
        for w in ws:
            if w.scheme != scheme:
                raise SchemeMismatchError(f"word {w} does not belong to {scheme}")
        self.scheme = scheme
        self.words = tuple(ws)
        self._word_set = frozenset(ws)

    @classmethod
    def from_entries(cls, scheme: HammingScheme, rows: Iterable[Iterable[int]]) -> "Code":
        return cls(scheme, (scheme.vertex(row) for row in rows))

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __contains__(self, v: Vertex):
        return v in self._word_set

    def __eq__(self, other):
        return (isinstance(other, Code) and self.scheme == other.scheme
                and self.words == other.words)

    def __hash__(self):
        return hash((self.scheme, self.words))

    def __repr__(self):
        return f"Code({self.scheme}, {{{', '.join(vertex_to_text(w) for w in self.words)}}})"

    @cached_property
    def min_distance(self) -> float:
        """Minimum pairwise distance; math.inf when fewer than two words."""
        if len(self.words) <= 1:
            return math.inf
        entries = [w.entries for w in self.words]
        return min(sum(map(operator.ne, u, v))
                   for u, v in itertools.combinations(entries, 2))

    @cached_property
    def neighbour_set(self) -> tuple[Vertex, ...]:
        """All non-codewords adjacent to at least one codeword, sorted."""
        q = self.scheme.q
        words = {w.entries for w in self.words}
        out = set()
        for w in words:
            out.update(_ball1(w, q))
        out -= words
        return tuple([Vertex(self.scheme, w) for w in sorted(out)])

    def image(self, x: Automorphism) -> "Code":
        """The code {apply(x, w) : w in C}."""
        if x.scheme != self.scheme:
            raise SchemeMismatchError("automorphism from a different scheme")
        return Code(self.scheme, (x.apply(w) for w in self.words))


@dataclass(frozen=True)
class EquivalenceWitness:
    """An automorphism certifying image(C, y) = C' for a code pair."""

    y: Automorphism


def _stabilized_by(vertices: Iterable[Vertex], xs: Iterable[Automorphism]) -> bool:
    """True iff every x in xs maps the vertex set onto itself.  The set's
    schemes and entry tuples are read once, not once per x."""
    vertices = tuple(vertices)
    schemes = {v.scheme for v in vertices}
    words = {v.entries for v in vertices}
    for x in xs:
        if schemes - {x.scheme}:
            raise SchemeMismatchError("set member from a different scheme")
        if set(_images(x._moves, words)) != words:
            return False
    return True


def stabilizes_set(vertices: Iterable[Vertex], x: Automorphism) -> bool:
    """True iff x maps the vertex set onto itself."""
    return _stabilized_by(vertices, (x,))


def is_code_automorphism(code: Code, x: Automorphism) -> bool:
    """True iff x fixes the code setwise (x belongs to Aut(C))."""
    if x.scheme != code.scheme:
        raise SchemeMismatchError("automorphism from a different scheme")
    return stabilizes_set(code.words, x)


def neighbour_count(code: Code) -> int:
    """|Gamma_1(C)|, building Gamma_1(C) only when delta < 3.

    The codewords' neighbourhoods hold len(C) * m * (q-1) vertices in all;
    when delta >= 3 they are disjoint and hold no codeword, so that total
    is the answer.  Otherwise the total is checked against the enumeration
    cap before Gamma_1(C) is built.
    """
    total = len(code) * code.scheme.m * (code.scheme.q - 1)
    if code.min_distance >= 3:
        return total
    check_cap(math.log(total), lambda: total, DEFAULT_ENUMERATION_CAP,
              f"the neighbourhoods of {len(code)} codewords of {code.scheme} hold "
              f"{{size}} vertices, over the enumeration cap {DEFAULT_ENUMERATION_CAP}")
    return len(code.neighbour_set)


def neighbourhoods_disjoint(code: Code) -> bool:
    """True iff the codewords' neighbourhoods are pairwise disjoint.

    They are when delta >= 3.  Otherwise: their sizes add up to
    len(C) * m * (q-1); their union is Gamma_1(C) plus the codewords
    adjacent to another codeword (none unless delta = 1).
    """
    if code.min_distance >= 3:
        return True
    m, q = code.scheme.m, code.scheme.q
    adjacent = 0
    if code.min_distance == 1:
        entries = [w.entries for w in code.words]
        adjacent = sum(any(sum(map(operator.ne, u, v)) == 1 for v in entries)
                       for u in entries)
    return len(code) * m * (q - 1) == len(code.neighbour_set) + adjacent


def is_linear_binary(code: Code) -> bool:
    """True iff q=2, the zero vertex is a codeword and C is closed under +."""
    if code.scheme.q != 2 or len(code) == 0:
        return False
    if code.scheme.zero() not in code:
        return False
    for u, v in itertools.combinations_with_replacement(code.words, 2):
        s = Vertex(code.scheme, tuple(a ^ b for a, b in zip(u.entries, v.entries)))
        if s not in code:
            return False
    return True


def translation_subgroup(code: Code) -> GeneratorSet:
    """Translations by a generating subset of a binary linear code.

    Greedy basis extraction over the sorted words; the closure of the
    result has order exactly |C|.
    """
    if not is_linear_binary(code):
        raise ValueError("translation_subgroup needs a binary linear code")
    span = {code.scheme.zero().entries}
    gens: list[Automorphism] = []
    for w in code.words:
        if w.entries in span:
            continue
        gens.append(translation(w))
        for s in list(span):
            span.add(tuple(a ^ b for a, b in zip(s, w.entries)))
    return GeneratorSet(code.scheme, tuple(gens))


def find_equivalence(code: Code, other: Code,
                     group_cap: int = DEFAULT_GROUP_CAP) -> EquivalenceWitness | None:
    """First automorphism (canonical order) mapping code onto other, if any."""
    if code.scheme != other.scheme:
        raise SchemeMismatchError("codes from different schemes")
    if len(code) != len(other):
        return None
    y = _least_equivalence(code, other, code.scheme, group_cap)
    return None if y is None else EquivalenceWitness(y)


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
