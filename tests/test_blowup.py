"""Versal deformation, blowup coverings, and the level cascade."""

import pytest

from germtower import (
    Germ,
    TowerConfig,
    attach_sections,
    blow_up,
    build_tower,
    classify_germ,
    deform,
    desingularize,
    detect_resingularization,
    format_germ,
    generate_levels,
    inject_singularity,
    tensor,
    time_space_lift,
)
from germtower.bisemigroup import M, MG, ST
from germtower.germs import (
    CUSP,
    ELLIPTIC_UMBILIC,
    FOLD,
    HYPERBOLIC_UMBILIC,
    MORSE,
    REGULAR,
    SWALLOWTAIL,
)
from germtower.sheaves import (
    COMPLEMENTARY,
    ORTHOGONAL,
    REDUCED,
    SPACE,
    SPACE_SHIFTED,
    TIME_SHIFTED,
    shift,
)
from germtower.tower import ClassIndex, LEFT, RIGHT


def space_sheaf(depth=4, side=RIGHT, nvars=1, modulus=2, offset=1):
    tower = build_tower(TowerConfig(modulus, offset, depth))
    if nvars == 1:
        template = lambda idx: Germ.from_coeffs(1, {(2,): 1})
    else:
        template = lambda idx: Germ.from_coeffs(2, {(2, 0): 1, (0, 2): 1})
    return attach_sections(tower, side, ST, SPACE_SHIFTED, template)


def starred(name, depth=4, side=RIGHT):
    nvars = 2 if name in (ELLIPTIC_UMBILIC, HYPERBOLIC_UMBILIC) else 1
    return inject_singularity(space_sheaf(depth, side, nvars), name)


# ---------------------------------------------------------------------------
# deform


def test_deform_swallowtail_fiber():
    bundle = deform(starred(SWALLOWTAIL))
    assert bundle.singularity.name == SWALLOWTAIL
    assert [name for name, _ in bundle.fiber] == ["a1", "a2", "a3"]
    assert [format_germ(s.sections[0].germ) for _, s in bundle.fiber] == ["x", "x^2", "x^3"]
    # fiber sheaves live over the same indices as the base
    for _, msheaf in bundle.fiber:
        assert msheaf.indices() == bundle.base.indices()


def test_deform_fiber_size_equals_codim():
    for name, codim in [(FOLD, 1), (CUSP, 2), (SWALLOWTAIL, 3), (ELLIPTIC_UMBILIC, 3), (HYPERBOLIC_UMBILIC, 3)]:
        assert len(deform(starred(name)).fiber) == codim


def test_deform_requires_starred_uniform_catalogue():
    plain = space_sheaf()
    with pytest.raises(ValueError):
        deform(plain)  # not starred
    from dataclasses import replace

    fake = replace(plain, singular=True)
    with pytest.raises(ValueError):
        deform(fake)  # Morse germs are off the catalogue


# ---------------------------------------------------------------------------
# blow_up


def test_blowup_swallowtail_covering():
    result = blow_up(deform(starred(SWALLOWTAIL)))
    assert [format_germ(sec.germ) for sec in result.covering.sections] == ["x + x^2 + x^3"] * 4
    assert not result.covering.singular
    assert result.residual is not None
    assert len(result.detached_monomials) == 3
    # maximal blowup: every detached complementary part is the whole sheaf
    for record in result.detached_monomials:
        assert len(record.complementary.sections) == 4
        assert len(record.residual.sections) == 0
    assert all(frac == pytest.approx(3 / 5) for _, frac in result.coverage)


def test_blowup_coverings_per_class():
    expected = {
        FOLD: "x",
        CUSP: "x + x^2",
        SWALLOWTAIL: "x + x^2 + x^3",
        ELLIPTIC_UMBILIC: "-y + x^2 + y^2",
        HYPERBOLIC_UMBILIC: "-x - y + x*y",
    }
    for name, text in expected.items():
        result = blow_up(deform(starred(name)))
        assert format_germ(result.covering.sections[0].germ) == text


def test_partial_blowup_fraction():
    result = blow_up(deform(starred(SWALLOWTAIL)), fraction=0.5)
    # ceil(0.5 * 4) = 2 leading classes detach
    assert len(result.covering.sections) == 2
    covered = dict(result.coverage)
    assert covered[ClassIndex(1, 1)] > 0
    assert covered[ClassIndex(4, 1)] == 0.0
    with pytest.raises(ValueError):
        blow_up(deform(starred(SWALLOWTAIL)), fraction=0.0)
    with pytest.raises(ValueError):
        blow_up(deform(starred(SWALLOWTAIL)), fraction=1.5)


def test_detect_resingularization_only_for_cubic_coverings():
    swallow = blow_up(deform(starred(SWALLOWTAIL)))
    hit = detect_resingularization(swallow)
    assert hit is not None and hit.name == FOLD
    for name in (FOLD, CUSP, ELLIPTIC_UMBILIC, HYPERBOLIC_UMBILIC):
        assert detect_resingularization(blow_up(deform(starred(name)))) is None


# ---------------------------------------------------------------------------
# desingularize


def test_desingularize_truncates_and_unmarks():
    s = starred(SWALLOWTAIL)
    out = desingularize(s)
    assert not out.singular
    assert all(sec.germ.is_zero for sec in out.sections)  # x^5 truncates to nothing
    covering = blow_up(deform(s)).covering
    flat = desingularize(covering)
    assert [format_germ(sec.germ) for sec in flat.sections] == ["x + x^2"] * 4
    assert all(classify_germ(sec.germ).name in (REGULAR, MORSE) for sec in flat.sections)


def test_desingularize_idempotent():
    covering = blow_up(deform(starred(HYPERBOLIC_UMBILIC))).covering
    once = desingularize(covering)
    assert desingularize(once) == once


# ---------------------------------------------------------------------------
# time_space_lift


def test_time_space_lift_orientation():
    s = space_sheaf(depth=4)
    time, residual = time_space_lift(s)
    assert time.nature == TIME_SHIFTED
    assert residual.nature == SPACE_SHIFTED
    assert time.role == ORTHOGONAL
    assert residual.role == REDUCED
    assert sorted(time.indices() + residual.indices()) == list(s.indices())
    tower = build_tower(TowerConfig(2, 1, 2))
    t_sheaf = attach_sections(tower, RIGHT, ST, TIME_SHIFTED, lambda idx: Germ.monomial(1, (2,)))
    with pytest.raises(ValueError):
        time_space_lift(t_sheaf)


# ---------------------------------------------------------------------------
# generate_levels


def shifted_base(depth=6, modulus=2, offset=1, nature=TIME_SHIFTED, nvars=1):
    tower = build_tower(TowerConfig(modulus, offset, depth))
    if nvars == 1:
        template = lambda idx: Germ.from_coeffs(1, {(2,): 1})
    else:
        template = lambda idx: Germ.from_coeffs(2, {(2, 0): 1, (0, 2): 1})
    return tensor(
        attach_sections(tower, RIGHT, ST, nature, template),
        attach_sections(tower, LEFT, ST, nature, template),
    )


def base_for(scenario):
    nvars = 2 if scenario in (ELLIPTIC_UMBILIC, HYPERBOLIC_UMBILIC) else 1
    return shifted_base(nvars=nvars)


def test_generate_levels_no_scenario():
    stack = generate_levels(shifted_base())
    assert stack.labels() == (ST,)
    assert stack.provenance.rule == 1
    assert stack.provenance.cascade == ()
    (st,) = stack.levels
    assert st.cover is None and st.coverage is None
    assert st.orthogonal is not None


def test_generate_levels_swallowtail_cascade():
    stack = generate_levels(shifted_base(), SWALLOWTAIL)
    assert stack.labels() == (ST, MG, M)
    assert stack.provenance.rule == 3
    assert (stack.provenance.corank, stack.provenance.codim) == (1, 3)
    assert stack.provenance.cascade == (
        "inject Swallowtail germ x^5 on 3 space sections",
        "blowup Swallowtail: covering germ x + x^2 + x^3",
        "resingularization: covering keeps the cubic monomial x^3, classified Fold",
        "blowup Fold: covering germ x",
    )


def test_generate_levels_two_level_classes():
    for name in (FOLD, CUSP, ELLIPTIC_UMBILIC, HYPERBOLIC_UMBILIC):
        stack = generate_levels(base_for(name), name)
        assert stack.labels() == (ST, MG), name
        assert stack.provenance.rule == 2


def test_level_table_sweep():
    expected = {
        None: 1,
        FOLD: 2,
        CUSP: 2,
        SWALLOWTAIL: 3,
        ELLIPTIC_UMBILIC: 2,
        HYPERBOLIC_UMBILIC: 2,
    }
    for scenario, count in expected.items():
        assert len(generate_levels(base_for(scenario), scenario).levels) == count


def test_level_natures_are_paired():
    stack = generate_levels(shifted_base(), SWALLOWTAIL)
    st, mg, m = stack.levels
    # ST: reduced keeps the base time nature, the projected part is spatial
    assert st.reduced.nature == TIME_SHIFTED
    assert st.orthogonal.nature == SPACE_SHIFTED
    # covering levels: space residual reduced, lifted time part orthogonal
    for level in (mg, m):
        assert level.reduced.nature == SPACE_SHIFTED
        assert level.orthogonal.nature == TIME_SHIFTED
        assert level.cover is not None and level.coverage is not None


def test_st_orthogonal_holds_injected_germ():
    stack = generate_levels(shifted_base(), CUSP)
    st = stack.levels[0]
    assert st.orthogonal.right.singular
    assert all(
        classify_germ(sec.germ).name == CUSP for sec in st.orthogonal.right.sections
    )
    assert not st.reduced.right.singular


def test_cover_map_targets_present_classes():
    stack = generate_levels(shifted_base(depth=6), SWALLOWTAIL)
    mg = stack.levels[1]
    carrier = set(mg.carrier_indices())
    for src, dst in mg.cover:
        assert dst in carrier
    sources = [src for src, _ in mg.cover]
    assert sources == sorted(stack.levels[0].carrier_indices())


def test_covering_depths_truncate():
    # complementary (covering) classes must survive the truncation, so keep
    # the upper classes reduced and the low ones spatial
    low_space = lambda idx: idx.mu > 2
    stack = generate_levels(
        shifted_base(depth=6), SWALLOWTAIL, reduce=low_space, covering_depths=(3, 2)
    )
    mg, m = stack.levels[1], stack.levels[2]
    assert mg.reduced.tower.depth == 3
    assert m.reduced.tower.depth == 2
    assert all(idx.mu <= 3 for idx in mg.carrier_indices())
    assert all(idx.mu <= 2 for idx in m.carrier_indices())
    with pytest.raises(ValueError):
        generate_levels(shifted_base(depth=6), SWALLOWTAIL, covering_depths=(9, 2))
    # default reduce leaves the covering on classes 4..6; depth 3 empties it
    with pytest.raises(ValueError):
        generate_levels(shifted_base(depth=6), SWALLOWTAIL, covering_depths=(3, 2))


def test_generate_levels_input_validation():
    base = shifted_base()
    with pytest.raises(ValueError):
        generate_levels(base, "Morse")
    unshifted = tensor(
        attach_sections(base.tower, RIGHT, ST, SPACE, lambda idx: Germ.monomial(1, (2,))),
        attach_sections(base.tower, LEFT, ST, SPACE, lambda idx: Germ.monomial(1, (2,))),
    )
    with pytest.raises(ValueError):
        generate_levels(unshifted)
    with pytest.raises(ValueError):
        generate_levels(base, FOLD, reduce=lambda idx: True)  # empty space part
    with pytest.raises(ValueError):
        generate_levels(base, reduce=lambda idx: False)  # empty reduced part
    sp_base = shifted_base(nature=SPACE_SHIFTED)
    with pytest.raises(ValueError):
        generate_levels(sp_base, FOLD)  # projected part would be temporal


def test_unclassified_scenario_outside_table():
    from germtower.blowup import _rule_for
    from germtower.germs import SingularityClass

    base = shifted_base()
    with pytest.raises(ValueError):
        generate_levels(base, SingularityClass("Unclassified", 1, 4))
    with pytest.raises(ValueError):
        _rule_for(SingularityClass("Unclassified", 1, 4))
    with pytest.raises(ValueError):
        _rule_for(SingularityClass("Unclassified", 2, 4))
