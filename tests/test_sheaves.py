"""Semisheaf construction and the morphisms acting on them."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germtower import (
    Bisemisheaf,
    Germ,
    Section,
    Semisheaf,
    Tower,
    TowerConfig,
    attach_sections,
    annihilate_biquantum,
    build_tower,
    create_biquantum,
    emergent_project,
    endo_split,
    inject_singularity,
    shift,
    split_diag_offdiag,
    tensor,
)
from germtower.bisemigroup import MG, ST
from germtower.germs import ELLIPTIC_UMBILIC, SWALLOWTAIL, classify_germ
from germtower.sheaves import (
    COMPLEMENTARY,
    ORTHOGONAL,
    REDUCED,
    SPACE,
    SPACE_SHIFTED,
    TIME,
    TIME_SHIFTED,
    default_reduce,
)
from germtower.tower import ClassIndex, LEFT, RIGHT


def small_tower(depth=4, mult=()):
    return build_tower(TowerConfig(quantum_modulus=2, offset=1, depth=depth, multiplicity=mult))


def quad(idx):
    return Germ.from_coeffs(1, {(2,): idx.mu})


def make_sheaf(side=RIGHT, nature=TIME, depth=4, template=quad, level=ST):
    return attach_sections(small_tower(depth), side, level, nature, template)


def test_attach_sections_covers_all_classes():
    tower = small_tower(3, (1, 2, 1))
    s = attach_sections(tower, LEFT, ST, SPACE, quad)
    assert s.indices() == tower.class_indices()
    assert len(s) == 4
    assert s.section_at(ClassIndex(2, 2)).germ == Germ.from_coeffs(1, {(2,): 2})
    assert [s.section_at(idx).index for idx in tower.class_indices()] == list(s.indices())
    for missing in (ClassIndex(0, 1), ClassIndex(2, 3), ClassIndex(4, 1)):
        with pytest.raises(KeyError):
            s.section_at(missing)


def test_attach_sections_mapping_template():
    tower = small_tower(2)
    mapping = {ClassIndex(1, 1): Germ.monomial(1, (2,)), ClassIndex(2, 1): Germ.monomial(1, (3,))}
    s = attach_sections(tower, RIGHT, ST, TIME, mapping)
    assert s.section_at(ClassIndex(2, 1)).germ == Germ.monomial(1, (3,))
    with pytest.raises(ValueError):
        attach_sections(tower, RIGHT, ST, TIME, {ClassIndex(1, 1): Germ.zero(1)})


def test_section_validation():
    with pytest.raises(ValueError):
        Section(ClassIndex(1, 1), "middle", Germ.zero(1), 1)
    with pytest.raises(ValueError):
        Section(ClassIndex(1, 1), LEFT, Germ.zero(1), 3)
    with pytest.raises(ValueError):
        Section(ClassIndex(1, 1), LEFT, Germ.zero(2), 1)


def test_semisheaf_rejects_duplicates_and_strays():
    tower = small_tower(2)
    sec = Section(ClassIndex(1, 1), RIGHT, Germ.zero(1), 1)
    with pytest.raises(ValueError):
        Semisheaf(RIGHT, ST, TIME, tower, (sec, sec))
    stray = Section(ClassIndex(5, 1), RIGHT, Germ.zero(1), 1)
    with pytest.raises(ValueError):
        Semisheaf(RIGHT, ST, TIME, tower, (stray,))
    wrong_side = Section(ClassIndex(1, 1), LEFT, Germ.zero(1), 1)
    with pytest.raises(ValueError):
        Semisheaf(RIGHT, ST, TIME, tower, (wrong_side,))


def test_sections_sorted_on_construction():
    tower = small_tower(2, (1, 2))
    secs = [
        Section(ClassIndex(2, 2), RIGHT, Germ.zero(1), 1),
        Section(ClassIndex(1, 1), RIGHT, Germ.zero(1), 1),
        Section(ClassIndex(2, 1), RIGHT, Germ.zero(1), 1),
    ]
    s = Semisheaf(RIGHT, ST, TIME, tower, tuple(secs))
    assert s.indices() == (ClassIndex(1, 1), ClassIndex(2, 1), ClassIndex(2, 2))


def test_tensor_requires_matching_pair():
    r = make_sheaf(RIGHT)
    l = make_sheaf(LEFT)
    b = tensor(r, l)
    assert b.level == ST and b.nature == TIME
    assert b.indices() == r.indices()
    with pytest.raises(ValueError):
        tensor(l, r)
    with pytest.raises(ValueError):
        tensor(r, make_sheaf(LEFT, nature=SPACE))
    with pytest.raises(ValueError):
        tensor(r, make_sheaf(LEFT, depth=3))


def test_split_diag_offdiag_counts():
    b = tensor(make_sheaf(RIGHT, depth=3), make_sheaf(LEFT, depth=3))
    split = split_diag_offdiag(b)
    assert len(split.diagonal) == 2 * len(b)
    assert len(split.off_diagonal) == 2 * len(b)
    assert {(p.alpha, p.beta) for p in split.diagonal} == {(1, 1), (2, 2)}
    assert {(p.alpha, p.beta) for p in split.off_diagonal} == {(1, 2), (2, 1)}


def test_default_reduce_keeps_lower_half():
    pred = default_reduce(4)
    assert [pred(ClassIndex(mu, 1)) for mu in (1, 2, 3, 4)] == [True, True, False, False]
    pred = default_reduce(5)
    assert [pred(ClassIndex(mu, 1)) for mu in (1, 2, 3, 4, 5)] == [True, True, True, False, False]


def test_endo_split_partition_and_roles():
    s = make_sheaf(depth=5)
    reduced, comp = endo_split(s)
    assert reduced.role == REDUCED and comp.role == COMPLEMENTARY
    assert set(reduced.indices()) | set(comp.indices()) == set(s.indices())
    assert not set(reduced.indices()) & set(comp.indices())
    assert reduced.nature == comp.nature == s.nature


@given(depth=st.integers(min_value=1, max_value=8), cut=st.integers(min_value=0, max_value=9))
def test_endo_split_partition_any_predicate(depth, cut):
    s = make_sheaf(depth=depth)
    reduced, comp = endo_split(s, lambda idx: idx.mu <= cut)
    merged = sorted(reduced.indices() + comp.indices())
    assert tuple(merged) == s.indices()
    assert all(idx.mu <= cut for idx in reduced.indices())
    assert all(idx.mu > cut for idx in comp.indices())


def test_emergent_project_flips_nature_and_tags_axis():
    _, comp = endo_split(make_sheaf(nature=TIME, depth=4))
    proj = emergent_project(comp)
    assert proj.nature == SPACE
    assert proj.role == ORTHOGONAL
    assert all(sec.orth_axis == "r3" for sec in proj.sections)
    proj2 = emergent_project(comp, target_dims=2)
    assert all(sec.orth_axis == "r2" for sec in proj2.sections)

    _, comp_s = endo_split(make_sheaf(nature=SPACE_SHIFTED, depth=4))
    proj_t = emergent_project(comp_s)
    assert proj_t.nature == TIME_SHIFTED
    assert all(sec.orth_axis == "t" for sec in proj_t.sections)


def test_emergent_project_requires_complementary():
    s = make_sheaf()
    with pytest.raises(ValueError):
        emergent_project(s)
    reduced, comp = endo_split(s)
    with pytest.raises(ValueError):
        emergent_project(reduced)
    with pytest.raises(ValueError):
        emergent_project(comp, target_dims=4)


def test_shift_differentiates_and_primes():
    s = make_sheaf(nature=TIME, template=lambda idx: Germ.from_coeffs(1, {(3,): 1, (1,): idx.mu}))
    out = shift(s)
    assert out.nature == TIME_SHIFTED
    g = out.section_at(ClassIndex(2, 1)).germ
    assert g == Germ.from_coeffs(1, {(2,): 3, (0,): 2})
    with pytest.raises(ValueError):
        shift(out)


def test_shift_two_variable_first_var():
    tower = small_tower(1)
    s = attach_sections(tower, RIGHT, ST, SPACE, lambda idx: Germ.from_coeffs(2, {(2, 1): 1}))
    assert shift(s).section_at(ClassIndex(1, 1)).germ == Germ.from_coeffs(2, {(1, 1): 2})


def partial_bisheaf(depth=4, present=(1, 3)):
    """A bisemisheaf occupying only the listed mu slots."""
    tower = small_tower(depth)
    def build(side):
        secs = tuple(
            Section(ClassIndex(mu, 1), side, Germ.monomial(1, (2,)), 1) for mu in present
        )
        return Semisheaf(side, ST, TIME, tower, secs)
    return tensor(build(RIGHT), build(LEFT))


def test_create_biquantum_moves_up_one_class():
    b = partial_bisheaf(present=(1, 3))
    out = create_biquantum(b, ClassIndex(1, 1))
    assert out.indices() == (ClassIndex(2, 1), ClassIndex(3, 1))
    # degree bookkeeping: one step costs N per string
    n = b.tower.config.quantum_modulus
    assert b.tower.real_degree(2) - b.tower.real_degree(1) == n


def test_annihilate_biquantum_moves_down_one_class():
    b = partial_bisheaf(present=(1, 3))
    out = annihilate_biquantum(b, ClassIndex(3, 1))
    assert out.indices() == (ClassIndex(1, 1), ClassIndex(2, 1))


def test_biquantum_round_trip_is_identity():
    b = partial_bisheaf(present=(2,))
    assert annihilate_biquantum(create_biquantum(b, ClassIndex(2, 1)), ClassIndex(3, 1)) == b


def test_biquantum_rejections():
    b = partial_bisheaf(depth=3, present=(1, 2))
    with pytest.raises(ValueError):
        create_biquantum(b, ClassIndex(1, 1))  # target occupied
    with pytest.raises(ValueError):
        annihilate_biquantum(b, ClassIndex(1, 1))  # ground class
    with pytest.raises(ValueError):
        create_biquantum(b, ClassIndex(3, 1))  # nothing there
    top = partial_bisheaf(depth=3, present=(3,))
    with pytest.raises(ValueError):
        create_biquantum(top, ClassIndex(3, 1))  # beyond depth


def test_inject_singularity_swallowtail():
    s = make_sheaf(template=lambda idx: Germ.monomial(1, (2,)))
    out = inject_singularity(s, SWALLOWTAIL)
    assert out.singular
    assert all(classify_germ(sec.germ).name == SWALLOWTAIL for sec in out.sections)
    assert out.indices() == s.indices()


def test_inject_singularity_dims_must_match():
    s = make_sheaf(template=lambda idx: Germ.monomial(1, (2,)))
    with pytest.raises(ValueError):
        inject_singularity(s, ELLIPTIC_UMBILIC)
    two = attach_sections(small_tower(2), RIGHT, ST, SPACE, lambda idx: Germ.from_coeffs(2, {(2, 0): 1, (0, 2): 1}))
    out = inject_singularity(two, ELLIPTIC_UMBILIC)
    assert all(classify_germ(sec.germ).name == ELLIPTIC_UMBILIC for sec in out.sections)
    with pytest.raises(ValueError):
        inject_singularity(s, "Morse")
