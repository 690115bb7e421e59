"""Paired triangular matrix elements and distributive product expansions.

The algebraic layer is deliberately small: elements are (right, left) pairs
of 2x2 triangular matrices over exact rationals, composed entrywise, plus the
symbolic expansion of a product of sums into free (matching label) and
interaction (mixed label) terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .germs import snap_to_fraction
from .tower import LEFT, RIGHT

# Level tags, inner to outer.  Expansion output is ordered by this sequence.
ST = "ST"
MG = "MG"
M = "M"
LEVELS = (ST, MG, M)

FREE = "free"
INTERACTION = "interaction"


def _coerce_rows(rows) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    rows = tuple(tuple(snap_to_fraction(v) for v in row) for row in rows)
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise ValueError("a triangular element needs a 2x2 entry grid")
    return rows


@dataclass(frozen=True)
class TriangularElement:
    """One side of a bielement: a 2x2 triangular matrix.

    Left elements are upper triangular (lower-left entry zero); right
    elements are lower triangular (upper-right entry zero).
    """

    side: str
    entries: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ValueError(f"side must be left or right, got {self.side!r}")
        object.__setattr__(self, "entries", _coerce_rows(self.entries))
        if self.side == LEFT and self.entries[1][0] != 0:
            raise ValueError("left elements are upper triangular")
        if self.side == RIGHT and self.entries[0][1] != 0:
            raise ValueError("right elements are lower triangular")

    def __add__(self, other: "TriangularElement") -> "TriangularElement":
        if not isinstance(other, TriangularElement):
            return NotImplemented
        if other.side != self.side:
            raise ValueError("cannot add elements from opposite sides")
        rows = tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        )
        return TriangularElement(self.side, rows)

    @staticmethod
    def zero(side: str) -> "TriangularElement":
        return TriangularElement(side, ((0, 0), (0, 0)))


@dataclass(frozen=True)
class Bielement:
    """A (right, left) pair of triangular elements."""

    right: TriangularElement
    left: TriangularElement

    def __post_init__(self):
        if self.right.side != RIGHT:
            raise ValueError("first component must be a right element")
        if self.left.side != LEFT:
            raise ValueError("second component must be a left element")


def cross_compose(a: Bielement, b: Bielement) -> Bielement:
    """Cross binary composition: entrywise addition on both sides at once."""
    return Bielement(a.right + b.right, a.left + b.left)


@dataclass(frozen=True)
class LabeledTerm:
    """One term of an expanded product of labeled sums."""

    right_label: str
    left_label: str
    kind: str
    payload: tuple[Any, Any]


def _tag_key(tag: str) -> tuple[int, str]:
    return (LEVELS.index(tag) if tag in LEVELS else len(LEVELS), tag)


def _check_parts(parts: Sequence[tuple[str, Any]], side: str) -> list[tuple[str, Any]]:
    parts = list(parts)
    if not parts:
        raise ValueError(f"{side} part list is empty")
    tags = [tag for tag, _ in parts]
    if len(set(tags)) != len(tags):
        raise ValueError(f"duplicate {side} tag in {tags}")
    return parts


def expand_sum_product(
    right_parts: Sequence[tuple[str, Any]], left_parts: Sequence[tuple[str, Any]]
) -> list[LabeledTerm]:
    """Expand (sum of right parts) x (sum of left parts) into labeled terms.

    Free terms (equal labels on both sides) come first, then interaction
    terms, each block ordered by level tag.
    """
    right_parts = _check_parts(right_parts, "right")
    left_parts = _check_parts(left_parts, "left")
    free, cross = [], []
    for rtag, rpayload in sorted(right_parts, key=lambda p: _tag_key(p[0])):
        for ltag, lpayload in sorted(left_parts, key=lambda p: _tag_key(p[0])):
            term = LabeledTerm(
                rtag,
                ltag,
                FREE if rtag == ltag else INTERACTION,
                (rpayload, lpayload),
            )
            (free if term.kind == FREE else cross).append(term)
    return free + cross
