"""Tower construction, degree arithmetic, and JSON ingestion."""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germtower import ClassIndex, Tower, TowerConfig, build_tower
from germtower.tower import MAX_CLASSES, tower_config_from_json


def oracle_degree(offset: int, step: int, times: int) -> int:
    """Independent loop-sum oracle: add the step repeatedly onto the offset."""
    total = offset
    for _ in range(times):
        total += step
    return total


def test_real_degrees_small_tower():
    tower = build_tower(TowerConfig(quantum_modulus=2, offset=1, depth=3))
    assert [tower.real_degree(mu) for mu in (1, 2, 3)] == [3, 5, 7]


def test_real_degree_matches_loop_oracle():
    tower = build_tower(TowerConfig(quantum_modulus=4, offset=3, depth=6))
    expected = oracle_degree(3, 4, 6)
    assert expected == 27
    assert tower.real_degree(6) == expected


def test_complex_degrees_with_dilation():
    tower = build_tower(
        TowerConfig(quantum_modulus=3, offset=2, depth=4, complex_multiplicity=(1, 2, 3, 4))
    )
    # oracle: offset plus mu steps of size N * m^(mu)
    expected = [oracle_degree(2, 3 * m, mu) for mu, m in [(1, 1), (2, 2), (3, 3), (4, 4)]]
    assert expected == [5, 14, 29, 50]
    assert [tower.complex_degree(mu) for mu in (1, 2, 3, 4)] == expected


def test_complex_degree_equals_real_when_dilation_is_one():
    tower = build_tower(TowerConfig(quantum_modulus=5, offset=2, depth=6))
    for mu in range(1, 7):
        assert tower.complex_degree(mu) == tower.real_degree(mu)


def test_real_degree_accepts_class_index():
    tower = build_tower(TowerConfig(quantum_modulus=2, offset=1, depth=3, multiplicity=(1, 3, 1)))
    assert tower.real_degree(ClassIndex(2, 1)) == tower.real_degree(ClassIndex(2, 3)) == 5


def test_place_lists_equivalent_completions():
    tower = build_tower(TowerConfig(quantum_modulus=2, offset=0, depth=2, multiplicity=(1, 3)))
    place = tower.place(2)
    assert place == (ClassIndex(2, 1), ClassIndex(2, 2), ClassIndex(2, 3))
    assert len(set(place)) == 3


def test_class_indices_lexicographic():
    tower = build_tower(TowerConfig(quantum_modulus=1, offset=0, depth=2, multiplicity=(2, 2)))
    assert tower.class_indices() == (
        ClassIndex(1, 1),
        ClassIndex(1, 2),
        ClassIndex(2, 1),
        ClassIndex(2, 2),
    )


def test_class_count_sums_multiplicities():
    tower = build_tower(TowerConfig(quantum_modulus=2, offset=0, depth=4, multiplicity=(1, 2, 3, 4)))
    # oracle: enumerate the rectangle by hand
    assert len(tower.class_indices()) == sum((1, 2, 3, 4)) == 10


@given(
    modulus=st.integers(min_value=1, max_value=9),
    depth=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_degree_congruence_invariant(modulus, depth, data):
    offset = data.draw(st.integers(min_value=0, max_value=modulus - 1))
    mult = tuple(
        data.draw(st.integers(min_value=1, max_value=4)) for _ in range(depth)
    )
    dil = tuple(
        data.draw(st.integers(min_value=1, max_value=4)) for _ in range(depth)
    )
    tower = build_tower(TowerConfig(modulus, offset, depth, mult, dil))
    for mu in range(1, depth + 1):
        assert tower.real_degree(mu) % modulus == offset % modulus
        assert tower.complex_degree(mu) % modulus == offset % modulus
    degrees = [tower.real_degree(mu) for mu in range(1, depth + 1)]
    assert degrees == sorted(degrees)


def test_truncated_keeps_prefix():
    tower = build_tower(TowerConfig(quantum_modulus=2, offset=1, depth=4, multiplicity=(1, 2, 1, 2)))
    short = tower.truncated(2)
    assert short.depth == 2
    assert short.class_indices() == (ClassIndex(1, 1), ClassIndex(2, 1), ClassIndex(2, 2))
    assert short.real_degree(2) == tower.real_degree(2)
    assert tower.truncated(tower.depth) == tower


@pytest.mark.parametrize("depth", [0, 4, 5])
def test_truncation_outside_the_tower_names_its_range(depth):
    tower = build_tower(TowerConfig(2, 1, 3))
    with pytest.raises(ValueError, match=rf"^truncation depth {depth} outside 1\.\.3$"):
        tower.truncated(depth)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(quantum_modulus=0, offset=0, depth=1),
        dict(quantum_modulus=3, offset=3, depth=1),
        dict(quantum_modulus=3, offset=-1, depth=1),
        dict(quantum_modulus=3, offset=0, depth=0),
        dict(quantum_modulus=3, offset=0, depth=3, multiplicity=(1, 2)),
        dict(quantum_modulus=3, offset=0, depth=2, multiplicity=(1, 0)),
        # beyond the class budget
        dict(quantum_modulus=3, offset=0, depth=10**12),
        dict(quantum_modulus=3, offset=0, depth=1, multiplicity=(MAX_CLASSES + 1,)),
        dict(quantum_modulus=3, offset=0, depth=2, multiplicity=(MAX_CLASSES, 1)),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        TowerConfig(**kwargs)


def test_a_depth_below_one_is_rejected_by_name():
    # the degree bound's max() also raises on a tower of no class, so only
    # the message shows which check caught it
    with pytest.raises(ValueError, match="depth must be >= 1"):
        TowerConfig(3, 0, 0)


def test_class_budget_admits_towers_at_the_bound():
    assert TowerConfig(3, 0, MAX_CLASSES).depth == MAX_CLASSES
    assert sum(TowerConfig(3, 0, 2, (MAX_CLASSES - 1, 1)).multiplicity) == MAX_CLASSES


def test_out_of_range_lookups_rejected():
    tower = build_tower(TowerConfig(quantum_modulus=2, offset=0, depth=2))
    with pytest.raises(ValueError):
        tower.real_degree(3)
    with pytest.raises(ValueError):
        tower.place(0)


def test_json_roundtrip():
    cfg = tower_config_from_json(
        {
            "quantum_modulus": 3,
            "offset": 2,
            "depth": 2,
            "multiplicity": [2, 1],
            "complex_multiplicity": [1, 3],
        }
    )
    assert cfg == TowerConfig(3, 2, 2, (2, 1), (1, 3))
    # a copy would restore its fields past the immutability guard
    with pytest.raises(AttributeError, match="immutable"):
        copy.copy(cfg)
    with pytest.raises(AttributeError, match="immutable"):
        del cfg.depth


@pytest.mark.parametrize(
    "override",
    [
        {"quantum_modulus": None},
        {"depth": "3"},
        {"offset": 1.0},
        {"depth": True},
        {"multiplicity": [1, None, 1]},
        {"multiplicity": [1, 1.5, 1]},
        {"multiplicity": 2},
        {"complex_multiplicity": "111"},
    ],
    ids=[
        "modulus-null",
        "depth-string",
        "offset-float",
        "depth-bool",
        "multiplicity-null-entry",
        "multiplicity-float-entry",
        "multiplicity-int",
        "complex-multiplicity-string",
    ],
)
def test_json_rejects_non_integers(override):
    data = {"quantum_modulus": 2, "offset": 1, "depth": 3}
    data.update(override)
    with pytest.raises(ValueError):
        tower_config_from_json(data)


def test_json_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError):
        tower_config_from_json({"quantum_modulus": 2, "depth": 1, "levels": 3})
    with pytest.raises(ValueError):
        tower_config_from_json({"quantum_modulus": 2})
    with pytest.raises(ValueError, match="tower config must be a JSON object"):
        tower_config_from_json(5)
