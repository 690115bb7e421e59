"""Level tags and the distributive expansion of a product of labeled sums.

The bisemigroup reaches the report through one operation: the symbolic
expansion of (sum of right parts) x (sum of left parts) into free (matching
label) and interaction (mixed label) terms.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

# Level tags, inner to outer.  Expansion output is ordered by this sequence.
ST = "ST"
MG = "MG"
M = "M"
LEVELS = (ST, MG, M)

FREE = "free"
INTERACTION = "interaction"


class LabeledTerm(NamedTuple):
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
