"""Versal deformation, blowup coverings, and the level cascade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    parse_reduce_rule,
    plan_levels,
    tensor,
    time_space_lift,
)
import germtower.blowup as blowup_module
from germtower.bisemigroup import M, MG, ST
from germtower.blowup import _cover_map
from germtower.germs import (
    CUSP,
    ELLIPTIC_UMBILIC,
    FOLD,
    HYPERBOLIC_UMBILIC,
    MORSE,
    REGULAR,
    SWALLOWTAIL,
)
from germtower.germs import normal_form
from germtower.sheaves import (
    SPACE,
    SPACE_SHIFTED,
    TIME_SHIFTED,
    Semisheaf,
    shift,
)
from germtower.tower import LEFT, RIGHT, ClassIndex


def space_sheaf(depth=4, side=RIGHT, nvars=1, modulus=2, offset=1):
    tower = build_tower(TowerConfig(modulus, offset, depth))
    if nvars == 1:
        template = lambda idx: Germ.from_coeffs(1, {(2,): 1})
    else:
        template = lambda idx: Germ.from_coeffs(2, {(2, 0): 1, (0, 2): 1})
    return attach_sections(tower.class_indices(), side, ST, SPACE_SHIFTED, template)


def injected(name, depth=4, side=RIGHT):
    nvars = 2 if name in (ELLIPTIC_UMBILIC, HYPERBOLIC_UMBILIC) else 1
    return inject_singularity(space_sheaf(depth, side, nvars), name)


# ---------------------------------------------------------------------------
# deform


def test_deform_swallowtail_fiber():
    bundle = deform(injected(SWALLOWTAIL))
    assert classify_germ(bundle.base.germs[0]).name == SWALLOWTAIL
    assert [name for name, _ in bundle.fiber] == ["a1", "a2", "a3"]
    assert [format_germ(mono) for _, mono in bundle.fiber] == ["x", "x^2", "x^3"]


def test_deform_fiber_size_equals_codim():
    for name, codim in [(FOLD, 1), (CUSP, 2), (SWALLOWTAIL, 3), (ELLIPTIC_UMBILIC, 3), (HYPERBOLIC_UMBILIC, 3)]:
        assert len(deform(injected(name)).fiber) == codim


def test_deform_requires_a_catalogue_class():
    with pytest.raises(ValueError, match="no versal unfolding for 'Morse'"):
        deform(space_sheaf())


# ---------------------------------------------------------------------------
# blow_up


def test_blowup_swallowtail_covering():
    result = blow_up(deform(injected(SWALLOWTAIL)))
    assert [format_germ(sec.germ) for sec in result.covering.sections] == ["x + x^2 + x^3"] * 4
    assert classify_germ(result.covering.germs[0]).name == REGULAR
    assert result.fraction == pytest.approx(3 / 5)


def test_blowup_tags_the_next_level_and_refuses_the_outermost():
    for base, covering in ((ST, MG), (MG, M)):
        seed = injected(SWALLOWTAIL).replace(level=base)
        assert blow_up(deform(seed)).covering.level == covering
    with pytest.raises(ValueError, match="outermost"):
        blow_up(deform(injected(FOLD).replace(level=M)))


def test_blowup_coverings_per_class():
    expected = {
        FOLD: "x",
        CUSP: "x + x^2",
        SWALLOWTAIL: "x + x^2 + x^3",
        ELLIPTIC_UMBILIC: "-y + x^2 + y^2",
        HYPERBOLIC_UMBILIC: "-x - y + x*y",
    }
    for name, text in expected.items():
        result = blow_up(deform(injected(name)))
        assert format_germ(result.covering.sections[0].germ) == text


def test_detect_resingularization_only_for_cubic_coverings():
    swallow = blow_up(deform(injected(SWALLOWTAIL)))
    hit = detect_resingularization(swallow.covering)
    assert hit is not None and hit.name == FOLD
    for name in (FOLD, CUSP, ELLIPTIC_UMBILIC, HYPERBOLIC_UMBILIC):
        assert detect_resingularization(blow_up(deform(injected(name))).covering) is None


# Distinct germ objects of one catalogue class: scalings, sign flips and,
# for the umbilics, the variable swap.
SAME_CLASS_GERMS = {
    FOLD: ({(3,): 1}, {(3,): -2}, {(3,): "1/3"}),
    CUSP: ({(4,): 1}, {(4,): -2}),
    SWALLOWTAIL: ({(5,): 1}, {(5,): 7}),
    ELLIPTIC_UMBILIC: (
        {(3, 0): 1, (1, 2): -3},
        {(3, 0): -2, (1, 2): 6},
        {(0, 3): 1, (2, 1): -3},
    ),
    HYPERBOLIC_UMBILIC: (
        {(3, 0): 1, (0, 3): 1},
        {(3, 0): 2, (0, 3): 2},
        {(3, 0): 1, (0, 3): -1},
    ),
}


def one_class_over(germs, depth=6):
    tower = build_tower(TowerConfig(2, 1, depth))
    carrier = tower.class_indices()
    cycled = tuple(germs[i % len(germs)] for i in range(len(carrier)))
    return Semisheaf.over(RIGHT, ST, SPACE_SHIFTED, tower, carrier, cycled)


def test_one_catalogue_class_has_one_degree_and_one_coverage_fraction():
    # blow_up computes one coverage fraction for the whole base; that holds
    # because deform admits one catalogue class and its germs share a degree
    for name, forms in SAME_CLASS_GERMS.items():
        nvars = normal_form(name).nvars
        germs = [Germ.from_coeffs(nvars, coeffs) for coeffs in forms]
        assert {classify_germ(germ).name for germ in germs} == {name}
        assert len(set(germs)) == len(germs)
        base = one_class_over(germs)
        bundle = deform(base)
        assert classify_germ(bundle.base.germs[0]).name == name
        result = blow_up(bundle)
        glued = result.covering.germs[0].total_degree
        fraction = min(1.0, glued / normal_form(name).total_degree)
        assert result.fraction == fraction
    # a 1-variable and a 2-variable fold deform together; the 1-variable fiber
    # cannot glue onto the 2-variable germ, so the blowup is rejected
    mixed = one_class_over([Germ.monomial(1, (3,)), Germ.from_coeffs(2, {(0, 2): 1, (3, 0): 1})])
    bundle = deform(mixed)
    assert classify_germ(bundle.base.germs[0]).name == FOLD
    with pytest.raises(ValueError, match="variable count"):
        blow_up(bundle)


def test_deform_rejects_a_base_of_two_classes():
    folds = [Germ.monomial(1, (3,)), Germ.from_coeffs(1, {(3,): -2})]
    two = one_class_over(folds + [Germ.monomial(1, (4,))])
    with pytest.raises(ValueError, match="one catalogue class, found 2"):
        deform(two)


def test_deform_rejects_an_empty_base():
    empty = space_sheaf().replace(carrier=(), germs=())
    with pytest.raises(ValueError, match="one catalogue class, found 0"):
        deform(empty)


# ---------------------------------------------------------------------------
# desingularize


def test_desingularize_truncates():
    s = injected(SWALLOWTAIL)
    out = desingularize(s)
    assert all(sec.germ.is_zero for sec in out.sections)  # x^5 truncates to nothing
    covering = blow_up(deform(s)).covering
    flat = desingularize(covering)
    assert [format_germ(sec.germ) for sec in flat.sections] == ["x + x^2"] * 4
    assert all(classify_germ(sec.germ).name in (REGULAR, MORSE) for sec in flat.sections)


def test_desingularize_idempotent():
    covering = blow_up(deform(injected(HYPERBOLIC_UMBILIC))).covering
    once = desingularize(covering)
    assert desingularize(once) == once


# ---------------------------------------------------------------------------
# time_space_lift


def test_time_space_lift_orientation():
    s = space_sheaf(depth=4)
    time, residual = time_space_lift(s, list(map(parse_reduce_rule("mu<=H", 4), s.carrier)))
    assert time.nature == TIME_SHIFTED
    assert residual.nature == SPACE_SHIFTED
    assert sorted(time.carrier + residual.carrier) == list(s.carrier)
    tower = build_tower(TowerConfig(2, 1, 2))
    classes = tower.class_indices()
    t_sheaf = attach_sections(classes, RIGHT, ST, TIME_SHIFTED, lambda idx: Germ.monomial(1, (2,)))
    with pytest.raises(ValueError):
        time_space_lift(t_sheaf, [True, False])


# ---------------------------------------------------------------------------
# generate_levels


def shifted_base(depth=6, modulus=2, offset=1, nature=TIME_SHIFTED, nvars=1):
    tower = build_tower(TowerConfig(modulus, offset, depth))
    if nvars == 1:
        template = lambda idx: Germ.from_coeffs(1, {(2,): 1})
    else:
        template = lambda idx: Germ.from_coeffs(2, {(2, 0): 1, (0, 2): 1})
    return tensor(
        attach_sections(tower.class_indices(), RIGHT, ST, nature, template),
        attach_sections(tower.class_indices(), LEFT, ST, nature, template),
    )


def base_for(scenario):
    nvars = 2 if scenario in (ELLIPTIC_UMBILIC, HYPERBOLIC_UMBILIC) else 1
    return shifted_base(nvars=nvars)


def plan_for(base, scenario=None, reduce=None, covering_depths=None):
    predicate = reduce or parse_reduce_rule("mu<=H", base.right.tower.depth)
    return plan_levels(base.right.tower, scenario, predicate, covering_depths, False)


def levels_for(base, scenario=None, **plan_options):
    return generate_levels(base, scenario, plan_for(base, scenario, **plan_options))


def level_carrier(level):
    """The sorted classes of a level's two parts."""
    parts = [part for part in (level.reduced, level.orthogonal) if part is not None]
    return sorted(idx for part in parts for idx in part.right.carrier)


def labels(levels):
    return tuple(level.reduced.right.level for level in levels)


def test_generate_levels_no_scenario():
    levels, cascade = levels_for(shifted_base())
    assert labels(levels) == (ST,)
    assert len(levels) == 1
    assert cascade == ()
    (st,) = levels
    assert st.coverage is None and list(st.carrier) == level_carrier(st)
    assert st.orthogonal is not None


def test_generate_levels_swallowtail_cascade():
    levels, cascade = levels_for(shifted_base(), SWALLOWTAIL)
    assert labels(levels) == (ST, MG, M)
    assert len(levels) == 3
    assert cascade == (
        "inject Swallowtail germ x^5 on 3 space sections",
        "blowup Swallowtail: covering germ x + x^2 + x^3",
        "resingularization: covering keeps the cubic monomial x^3, classified Fold",
        "blowup Fold: covering germ x",
    )


def test_inject_singularity_places_both_swallowtail_seeds(monkeypatch):
    seeds = []

    def recording(s, name):
        seeds.append((s.level, name, inject_singularity(s, name)))
        return seeds[-1][2]

    monkeypatch.setattr(blowup_module, "inject_singularity", recording)
    levels_for(shifted_base(), SWALLOWTAIL)
    assert [(level, name) for level, name, _ in seeds] == [(ST, SWALLOWTAIL), (MG, FOLD)]
    assert all(germ is normal_form(FOLD) for germ in seeds[1][2].germs)


def test_generate_levels_two_level_classes():
    for name in (FOLD, CUSP, ELLIPTIC_UMBILIC, HYPERBOLIC_UMBILIC):
        levels, _ = levels_for(base_for(name), name)
        assert labels(levels) == (ST, MG), name
        assert len(levels) == 2


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
        assert len(plan_for(base_for(scenario), scenario)) == count
        assert len(levels_for(base_for(scenario), scenario)[0]) == count


def test_level_natures_are_paired():
    levels, _ = levels_for(shifted_base(), SWALLOWTAIL)
    st, mg, m = levels
    # ST: reduced keeps the base time nature, the projected part is spatial
    assert st.reduced.right.nature == TIME_SHIFTED
    assert st.orthogonal.right.nature == SPACE_SHIFTED
    # covering levels: space residual reduced, lifted time part orthogonal
    for level in (mg, m):
        assert level.reduced.right.nature == SPACE_SHIFTED
        assert level.orthogonal.right.nature == TIME_SHIFTED
        assert level.coverage is not None and list(level.carrier) == level_carrier(level)


def test_st_orthogonal_holds_injected_germ():
    levels, _ = levels_for(shifted_base(), CUSP)
    st = levels[0]
    assert all(
        classify_germ(sec.germ).name == CUSP for sec in st.orthogonal.right.sections
    )
    assert all(classify_germ(germ).name == MORSE for germ in st.reduced.right.germs)


def test_cover_map_targets_present_classes():
    levels, _ = levels_for(shifted_base(depth=6), SWALLOWTAIL)
    st_level, mg = levels[:2]
    cover = tuple(_cover_map(st_level.carrier, mg.carrier))
    carrier = set(level_carrier(mg))
    for src, dst in cover:
        assert dst in carrier
    sources = [src for src, _ in cover]
    assert sources == level_carrier(st_level)


CLASSES = st.builds(ClassIndex, st.integers(1, 6), st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(st.sets(CLASSES, min_size=1).map(sorted), st.lists(CLASSES))
def test_cover_map_takes_the_largest_upper_class_at_or_below(upper, lower):
    def reference(idx):
        below = [u for u in upper if u <= idx]
        return below[-1] if below else upper[0]

    assert tuple(_cover_map(lower, upper)) == tuple((idx, reference(idx)) for idx in lower)


def test_plan_matches_the_built_levels():
    base = shifted_base(depth=7)
    plan = plan_for(base, SWALLOWTAIL, covering_depths=(6, 5))
    levels, _ = generate_levels(base, SWALLOWTAIL, plan)
    for step, level in zip(plan, levels, strict=True):
        assert step.label == level.reduced.right.level
        assert step.carrier.tower.depth == level.reduced.right.tower.depth
        reduced, orthogonal = step.parts()
        assert reduced == level.reduced.right.carrier
        assert orthogonal == (() if level.orthogonal is None else level.orthogonal.right.carrier)
        assert step.carrier == level.carrier == tuple(level_carrier(level))
    # the cover the report writes from the level carriers is the one the
    # built levels' classes give
    for lower, upper in zip(levels, levels[1:]):
        expected = _cover_map(level_carrier(lower), level_carrier(upper))
        assert tuple(_cover_map(lower.carrier, upper.carrier)) == tuple(expected)
    # the M covering {5} keeps its only class reduced
    assert plan[-1].parts()[1] == () and levels[-1].orthogonal is None


def test_covering_depths_truncate():
    # complementary (covering) classes must survive the truncation, so keep
    # the upper classes reduced and the low ones spatial
    low_space = lambda idx: idx.mu > 2
    levels, _ = levels_for(
        shifted_base(depth=6), SWALLOWTAIL, reduce=low_space, covering_depths=(3, 2)
    )
    mg, m = levels[1], levels[2]
    assert mg.reduced.right.tower.depth == 3
    assert m.reduced.right.tower.depth == 2
    assert all(idx.mu <= 3 for idx in level_carrier(mg))
    assert all(idx.mu <= 2 for idx in level_carrier(m))
    with pytest.raises(ValueError, match="covering_depths"):
        plan_for(shifted_base(depth=6), SWALLOWTAIL, covering_depths=(9, 2))
    # a depth outside the tower is refused with no scenario too
    for depths in ((0, 1), (7, 1)):
        with pytest.raises(ValueError, match=rf"depth {depths[0]} outside 1\.\.6"):
            plan_for(shifted_base(depth=6), None, covering_depths=depths)
    # default reduce leaves the covering on classes 4..6; depth 3 empties it
    with pytest.raises(ValueError, match="covering_depths"):
        plan_for(shifted_base(depth=6), SWALLOWTAIL, covering_depths=(3, 2))
    # the M covering is cut from the depth-4 MG covering
    with pytest.raises(ValueError, match="covering_depths"):
        plan_for(shifted_base(depth=6), SWALLOWTAIL, reduce=low_space, covering_depths=(4, 5))


def test_generate_levels_input_validation():
    base = shifted_base()
    with pytest.raises(ValueError):
        plan_for(base, "Morse")
    unshifted = tensor(
        attach_sections(base.right.tower.class_indices(), RIGHT, ST, SPACE, lambda idx: Germ.monomial(1, (2,))),
        attach_sections(base.right.tower.class_indices(), LEFT, ST, SPACE, lambda idx: Germ.monomial(1, (2,))),
    )
    with pytest.raises(ValueError):
        generate_levels(unshifted, None, plan_for(unshifted))
    # a mask picks classes by position, so the base must be over the plan's carrier
    deeper_plan = plan_for(shifted_base(depth=6), SWALLOWTAIL)
    with pytest.raises(ValueError, match="base's 4 classes are not the plan's ST carrier"):
        generate_levels(shifted_base(depth=4), SWALLOWTAIL, deeper_plan)
    with pytest.raises(ValueError, match="reduce"):
        plan_for(base, FOLD, reduce=lambda idx: True)  # empty space part
    with pytest.raises(ValueError, match="reduce"):
        plan_for(base, reduce=lambda idx: False)  # empty reduced part
    sp_base = shifted_base(nature=SPACE_SHIFTED)
    with pytest.raises(ValueError, match="time lift expects a shifted space"):
        levels_for(sp_base, FOLD)  # projected part would be temporal


def test_plan_even_classes_needs_an_even_class_per_part():
    tower = shifted_base(depth=6).right.tower
    upto = lambda k: lambda idx: idx.mu <= k
    plan = plan_levels(tower, CUSP, upto(2), None, True)
    assert [step.label for step in plan] == [ST, MG]
    # ST reduced {1}: no even class
    with pytest.raises(ValueError, match="even_classes: the ST reduced part"):
        plan_levels(tower, None, upto(1), None, True)
    # the MG covering {4, 5} keeps 4 reduced and lifts 5 alone
    with pytest.raises(ValueError, match="even_classes: the MG orthogonal part"):
        plan_levels(tower, CUSP, upto(3), (5, 1), True)


def test_unclassified_scenario_outside_table():
    from germtower.blowup import _rule_for
    from germtower.germs import SingularityClass

    base = shifted_base()
    with pytest.raises(ValueError):
        plan_for(base, SingularityClass("Unclassified", 1, 4).name)
    with pytest.raises(ValueError):
        _rule_for(SingularityClass("Unclassified", 1, 4))
    with pytest.raises(ValueError):
        _rule_for(SingularityClass("Unclassified", 2, 4))
