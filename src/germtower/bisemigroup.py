"""Level tags and the distributive expansion of a product of labeled sums.

The bisemigroup reaches the report through one operation: the symbolic
expansion of (sum of right parts) x (sum of left parts) into free (matching
label) and interaction (mixed label) terms.
"""

from __future__ import annotations

from typing import Sequence

from .tower import Record

# Level tags, inner to outer.  Expansion output is ordered by this sequence.
ST = "ST"
MG = "MG"
M = "M"
LEVELS = (ST, MG, M)

FREE = "free"
INTERACTION = "interaction"


class LabeledTerm(Record):
    """One term of an expanded product of labeled sums."""

    __slots__ = ("right_label", "left_label", "kind")


def _sorted_tags(tags: Sequence[str], side: str) -> list[str]:
    tags = list(tags)
    if not tags:
        raise ValueError(f"{side} part list is empty")
    if len(set(tags)) != len(tags):
        raise ValueError(f"duplicate {side} tag in {tags}")
    for tag in tags:
        if tag not in LEVELS:
            raise ValueError(f"{side} tag {tag!r} is not a level tag: {', '.join(LEVELS)}")
    return sorted(tags, key=LEVELS.index)


def expand_sum_product(right_tags: Sequence[str], left_tags: Sequence[str]) -> list[LabeledTerm]:
    """Expand (sum of right parts) x (sum of left parts), each part named by
    its tag, into labeled terms.

    Each side holds distinct level tags (``LEVELS``), so there are at most
    nine terms.  Free terms (equal labels on both sides) come first, then
    interaction terms, each block ordered by level tag.
    """
    rights = _sorted_tags(right_tags, "right")
    lefts = _sorted_tags(left_tags, "left")
    terms = [
        LabeledTerm(rtag, ltag, FREE if rtag == ltag else INTERACTION)
        for rtag in rights
        for ltag in lefts
    ]
    return sorted(terms, key=lambda term: term.kind != FREE)  # stable: free terms first
