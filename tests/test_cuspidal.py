"""Toroidal compactification, bistrings, and correspondence records."""

import cmath
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germtower import (
    Germ,
    Mode,
    TowerConfig,
    attach_sections,
    bistring_modulus,
    build_tower,
    compactify,
    level_record,
    lgc,
    lggc_st,
    parse_reduce_rule,
    tensor,
)
from germtower.bisemigroup import ST
from germtower.cuspidal import EllipticSemimodule, unit_amplitude
from germtower.sheaves import TIME, endo_split
from germtower.tower import ClassIndex, LEFT, RIGHT


def bisheaf(depth=4, mult=(), modulus=2, offset=1, nature=TIME):
    tower = build_tower(TowerConfig(modulus, offset, depth, mult))
    template = lambda idx: Germ.from_coeffs(1, {(2,): idx.mu})
    return tensor(
        attach_sections(tower.class_indices(), RIGHT, ST, nature, template),
        attach_sections(tower.class_indices(), LEFT, ST, nature, template),
    )


def cusp_mode_indices(record):
    """Every class of a record's left cuspidal modes, in index order."""
    indices = list(record.reduced[1].mode_indices())
    if record.orthogonal is not None:
        indices.extend(record.orthogonal[1].mode_indices())
    return tuple(sorted(indices))


def naive_mode_sum(modes, x):
    """Independent oracle: explicit cos/sin accumulation."""
    re = im = 0.0
    for mode in modes:
        angle = mode.sign * cmath.pi * mode.mu * x
        re += mode.amplitude * cmath.cos(angle).real
        im += mode.amplitude * cmath.sin(angle).real
    return complex(re, im)


def test_compactify_one_mode_per_section():
    b = bisheaf(depth=3, mult=(1, 2, 1))
    right = compactify(b.right)
    left = compactify(b.left)
    assert len(right.modes) == len(b.right.sections) == 4
    assert all(m.sign == -1 for m in right.modes)
    assert all(m.sign == 1 for m in left.modes)
    assert right.mode_indices() == b.right.carrier
    assert all(m.amplitude == 1.0 for m in right.modes)


def test_amplitude_rule_applied_per_class():
    b = bisheaf(depth=3)
    esm = compactify(b.left, amplitude_rule=lambda idx: idx.mu / 2)
    assert [m.amplitude for m in esm.modes] == [0.5, 1.0, 1.5]
    with pytest.raises(ValueError):
        compactify(b.left, amplitude_rule=lambda idx: -1.0)


def test_even_class_convention():
    b = bisheaf(depth=5)
    esm = compactify(b.right, even_only=True)
    assert [m.mu for m in esm.modes] == [2, 4]
    single = bisheaf(depth=1)
    with pytest.raises(ValueError):
        compactify(single.right, even_only=True)


def test_compactify_rejects_empty():
    b = bisheaf(depth=2)
    reduced, comp = endo_split(b.right, [False] * len(b.right))
    with pytest.raises(ValueError):
        compactify(reduced)


def test_mode_validation():
    with pytest.raises(ValueError):
        Mode(1, 1, 1.0, 0)
    with pytest.raises(ValueError):
        Mode(1, 1, -0.5, 1)
    mode = Mode(1, 1, 1.0, 1)
    with pytest.raises(AttributeError):
        mode.sign = -1
    assert mode != (1, 1, 1.0, 1)


def test_evaluate_matches_naive_sum():
    b = bisheaf(depth=4)
    esm = compactify(b.left, amplitude_rule=lambda idx: 1.0 + idx.mu)
    for x in (0.0, 0.21, -1.7, 3.5):
        assert esm.evaluate(x) == pytest.approx(naive_mode_sum(esm.modes, x), abs=1e-12)


def test_single_left_mode_is_unit_phasor():
    esm = EllipticSemimodule(LEFT, (ClassIndex(2, 1),), (1.0,))
    z = esm.evaluate(0.25)
    assert z == pytest.approx(cmath.exp(1j * cmath.pi * 0.5))
    assert abs(esm.evaluate(0.77)) == pytest.approx(1.0)


@given(
    mu=st.integers(min_value=1, max_value=9),
    r_r=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    r_l=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    xs=st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=12),
)
def test_bistring_modulus_constant(mu, r_r, r_l, xs):
    values = bistring_modulus(Mode(mu, 1, r_r, -1), Mode(mu, 1, r_l, 1), xs)
    expected = r_r * r_l
    assert all(abs(v - expected) < 1e-9 * max(1.0, expected) for v in values)
    if len(values) > 1:
        assert statistics.pvariance(values) < 1e-12


def test_bistring_modulus_rejects_mismatches():
    with pytest.raises(ValueError):
        bistring_modulus(Mode(1, 1, 1.0, 1), Mode(1, 1, 1.0, 1), [0.0])
    with pytest.raises(ValueError):
        bistring_modulus(Mode(1, 1, 1.0, -1), Mode(2, 1, 1.0, 1), [0.0])


def test_lgc_bijection_and_degrees():
    b = bisheaf(depth=4, mult=(1, 2, 1, 3), modulus=3, offset=1)
    record = lgc(b)
    assert record.bijection_holds()
    assert len(record.weil_side) == len(b.indices()) == 7
    assert record.mode_pair_count() == 7
    assert [w.degree for w in record.weil_side] == [
        b.tower.real_degree(idx) for idx in b.indices()
    ]
    assert record.orthogonal is None
    assert cusp_mode_indices(record) == b.indices()


def test_lgc_even_convention_filters_both_sides():
    b = bisheaf(depth=4)
    record = level_record(b, None, even_only=True)
    assert [w.mu for w in record.weil_side] == [2, 4]
    assert [m.mu for m in record.reduced[0].modes] == [2, 4]
    assert record.bijection_holds()


def test_lggc_st_splits_then_compactifies():
    b = bisheaf(depth=4)
    record = lggc_st(b, parse_reduce_rule("mu<=H", 4))
    assert record.orthogonal is not None
    assert [m.mu for m in record.reduced[0].modes] == [1, 2]
    assert [m.mu for m in record.orthogonal[0].modes] == [3, 4]
    assert record.bijection_holds()
    # split-then-compactify covers the same classes as compactify-whole
    assert cusp_mode_indices(record) == b.indices()


def test_lggc_st_all_reduced_drops_orthogonal():
    b = bisheaf(depth=3)
    record = lggc_st(b, reduce=lambda idx: True)
    assert record.orthogonal is None
    assert record.mode_pair_count() == 3
    assert record.bijection_holds()


def test_lggc_st_rejects_empty_reduced():
    b = bisheaf(depth=3)
    with pytest.raises(ValueError, match="cannot compactify an empty semisheaf"):
        lggc_st(b, reduce=lambda idx: False)


@given(
    modulus=st.integers(min_value=1, max_value=7),
    depth=st.integers(min_value=1, max_value=10),
    cut=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
def test_split_compactify_mode_multiset_identity(modulus, depth, cut, data):
    offset = data.draw(st.integers(min_value=0, max_value=modulus - 1))
    mult = tuple(data.draw(st.integers(min_value=1, max_value=3)) for _ in range(depth))
    tower = build_tower(TowerConfig(modulus, offset, depth, mult))
    template = lambda idx: Germ.monomial(1, (2,))
    b = tensor(
        attach_sections(tower.class_indices(), RIGHT, ST, TIME, template),
        attach_sections(tower.class_indices(), LEFT, ST, TIME, template),
    )
    whole = sorted(compactify(b.right).mode_indices())
    pred = lambda idx: idx.mu <= cut
    if not any(pred(i) for i in b.indices()):
        return
    record = lggc_st(b, reduce=pred)
    assert list(cusp_mode_indices(record)) == whole
