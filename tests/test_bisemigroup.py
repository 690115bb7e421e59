"""Labeled product expansion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germtower import LabeledTerm, expand_sum_product
from germtower.bisemigroup import FREE, INTERACTION, MG, M, ST


def test_expand_two_levels():
    terms = expand_sum_product([(ST, "r0"), (MG, "r1")], [(ST, "l0"), (MG, "l1")])
    assert len(terms) == 4
    assert [t.kind for t in terms] == [FREE, FREE, INTERACTION, INTERACTION]
    assert terms[0] == LabeledTerm(ST, ST, FREE, ("r0", "l0"))
    assert terms[1] == LabeledTerm(MG, MG, FREE, ("r1", "l1"))
    assert {(t.right_label, t.left_label) for t in terms[2:]} == {(ST, MG), (MG, ST)}


def test_expand_three_levels():
    tags = [ST, MG, M]
    terms = expand_sum_product([(t, t.lower()) for t in tags], [(t, t.upper()) for t in tags])
    free = [t for t in terms if t.kind == FREE]
    cross = [t for t in terms if t.kind == INTERACTION]
    assert (len(free), len(cross)) == (3, 6)
    # free block first, each block level-ordered
    assert terms[: len(free)] == free
    assert [t.right_label for t in free] == tags
    assert [(t.right_label, t.left_label) for t in cross] == [
        (ST, MG),
        (ST, M),
        (MG, ST),
        (MG, M),
        (M, ST),
        (M, MG),
    ]


def test_expand_rejects_bad_parts():
    with pytest.raises(ValueError):
        expand_sum_product([], [(ST, 1)])
    with pytest.raises(ValueError):
        expand_sum_product([(ST, 1), (ST, 2)], [(ST, 3)])


@given(
    n_right=st.integers(min_value=1, max_value=3),
    n_left=st.integers(min_value=1, max_value=3),
)
def test_expansion_counts(n_right, n_left):
    rparts = [(LEVELS_TAG, i) for LEVELS_TAG, i in zip((ST, MG, M), range(n_right))]
    lparts = [(tag, i) for tag, i in zip((ST, MG, M), range(n_left))]
    terms = expand_sum_product(rparts, lparts)
    assert len(terms) == n_right * n_left
    shared = min(n_right, n_left)
    assert sum(1 for t in terms if t.kind == FREE) == shared
