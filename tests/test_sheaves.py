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
    parse_reduce_rule,
    shift,
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
)
from germtower.tower import Carrier, ClassIndex, LEFT, RIGHT


def small_tower(depth=4, mult=()):
    return build_tower(TowerConfig(quantum_modulus=2, offset=1, depth=depth, multiplicity=mult))


def quad(idx):
    return Germ.from_coeffs(1, {(2,): idx.mu})


def half(depth):
    """The default reduce rule: keep the classes with mu <= ceil(depth/2)."""
    return parse_reduce_rule("mu<=H", depth)


def make_sheaf(side=RIGHT, nature=TIME, depth=4, template=quad, level=ST):
    return attach_sections(small_tower(depth).class_indices(), side, level, nature, template)


def test_attach_sections_covers_all_classes():
    tower = small_tower(3, (1, 2, 1))
    s = attach_sections(tower.class_indices(), LEFT, ST, SPACE, quad)
    assert s.carrier == tower.class_indices()
    assert len(s) == 4
    assert s.section_at(ClassIndex(2, 2)).germ == Germ.from_coeffs(1, {(2,): 2})
    assert [s.section_at(idx).index for idx in tower.class_indices()] == list(s.carrier)
    for missing in (ClassIndex(0, 1), ClassIndex(2, 3), ClassIndex(4, 1)):
        with pytest.raises(KeyError):
            s.section_at(missing)


def test_section_validation():
    with pytest.raises(ValueError):
        Section(ClassIndex(1, 1), "middle", Germ.zero(1))
    sec = Section(ClassIndex(1, 1), LEFT, Germ.zero(1))
    with pytest.raises(AttributeError):
        sec.germ = Germ.zero(2)
    assert sec != (sec.index, sec.side, sec.germ)


def test_semisheaf_rejects_duplicates_and_strays():
    tower = small_tower(2)
    sec = Section(ClassIndex(1, 1), RIGHT, Germ.zero(1))
    with pytest.raises(ValueError):
        Semisheaf(RIGHT, ST, TIME, tower, (sec, sec))
    stray = Section(ClassIndex(5, 1), RIGHT, Germ.zero(1))
    with pytest.raises(ValueError):
        Semisheaf(RIGHT, ST, TIME, tower, (stray,))
    wrong_side = Section(ClassIndex(1, 1), LEFT, Germ.zero(1))
    with pytest.raises(ValueError):
        Semisheaf(RIGHT, ST, TIME, tower, (wrong_side,))
    # the carrier form is checked the same way, and must come sorted
    one, two, zero = ClassIndex(1, 1), ClassIndex(2, 1), Germ.zero(1)
    assert Semisheaf.over(RIGHT, ST, TIME, tower, (one, two), (zero, zero)).carrier == (one, two)
    for carrier, germs in (
        ((one, one), (zero, zero)),
        ((two, one), (zero, zero)),
        ((ClassIndex(5, 1),), (zero,)),
        ((one, two), (zero,)),
    ):
        with pytest.raises(ValueError):
            Semisheaf.over(RIGHT, ST, TIME, tower, carrier, germs)


@pytest.mark.parametrize(
    "tags, error",
    [
        (("up", ST, TIME, None), "bad side 'up'"),
        ((RIGHT, "XX", TIME, None), "bad level 'XX'"),
        ((RIGHT, ST, "X", None), "bad nature 'X'"),
        ((RIGHT, ST, TIME, "spare"), "bad role 'spare'"),
    ],
)
def test_semisheaf_rejects_a_bad_tag(tags, error):
    side, level, nature, role = tags
    tower = small_tower(2)
    carrier, germs = tower.class_indices(), (Germ.zero(1),) * 2
    with pytest.raises(ValueError, match=f"^{error}$"):
        Semisheaf.over(side, level, nature, tower, carrier, germs, role)


def test_a_checked_carrier_is_checked_once(monkeypatch):
    tower = small_tower(4, (1, 2, 1, 1))
    s = attach_sections(tower.class_indices(), RIGHT, ST, TIME, quad)
    assert isinstance(s.carrier, Carrier) and s.carrier.tower is tower
    # a raw carrier is checked class by class and stored checked
    raw = Semisheaf.over(RIGHT, ST, TIME, tower, tuple(s.carrier), s.germs)
    assert isinstance(raw.carrier, Carrier) and raw.carrier == s.carrier
    # a carrier of another tower is checked again, against the sheaf's own
    with pytest.raises(ValueError, match="outside the tower rectangle"):
        s.replace(tower=small_tower(2))
    with pytest.raises(ValueError, match="outside the tower rectangle"):
        Carrier(s.carrier, small_tower(2))
    with pytest.raises(ValueError, match="duplicate or unsorted"):
        Carrier(s.carrier[:2] + s.carrier[1:2], tower)
    # what a checked carrier derives is not checked again
    calls = []
    contains = Tower.contains
    monkeypatch.setattr(Tower, "contains", lambda self, idx: calls.append(idx) or contains(self, idx))
    upper = s.restrict([idx.mu > 2 for idx in s.carrier], role=COMPLEMENTARY)
    assert upper.carrier == (ClassIndex(3, 1), ClassIndex(4, 1))
    short = s.carrier.truncated(2)
    assert short == (ClassIndex(1, 1), ClassIndex(2, 1), ClassIndex(2, 2))
    assert short.tower == tower.truncated(2)
    cut = s.replace(tower=short.tower, carrier=short, germs=s.germs[: len(short)])
    assert shift(emergent_project(upper)).carrier == upper.carrier and len(cut) == 3
    assert calls == []


def test_sections_sorted_on_construction():
    tower = small_tower(2, (1, 2))
    secs = [
        Section(ClassIndex(2, 2), RIGHT, Germ.zero(1)),
        Section(ClassIndex(1, 1), RIGHT, Germ.zero(1)),
        Section(ClassIndex(2, 1), RIGHT, Germ.zero(1)),
    ]
    s = Semisheaf(RIGHT, ST, TIME, tower, tuple(secs))
    assert s.carrier == (ClassIndex(1, 1), ClassIndex(2, 1), ClassIndex(2, 2))


def test_carrier_form_copies_restricts_and_maps():
    s = make_sheaf(depth=4)
    assert [sec.germ for sec in s.sections] == list(s.germs) == [quad(idx) for idx in s.carrier]
    upper = s.restrict([idx.mu > 2 for idx in s.carrier], role=COMPLEMENTARY)
    assert upper.carrier == (ClassIndex(3, 1), ClassIndex(4, 1))
    assert upper.germs == (quad(ClassIndex(3, 1)), quad(ClassIndex(4, 1)))
    assert upper.role == COMPLEMENTARY and upper.nature == s.nature
    with pytest.raises(TypeError):
        s.replace(sections=())
    # a germ map may not change a germ's variable count
    with pytest.raises(ValueError):
        s.map_germs(lambda germ: Germ.zero(2))


def test_tensor_requires_matching_pair():
    r = make_sheaf(RIGHT)
    l = make_sheaf(LEFT)
    b = tensor(r, l)
    assert b.level == ST and b.nature == TIME
    assert b.indices() == r.carrier
    assert Bisemisheaf(r) == b and b.left == l
    assert b != r and b != (r,) and hash(Bisemisheaf(r)) == hash(b)
    with pytest.raises(AttributeError):
        b.right = l
    with pytest.raises(ValueError):
        Bisemisheaf(l)
    with pytest.raises(ValueError):
        tensor(l, r)
    with pytest.raises(ValueError):
        tensor(r, make_sheaf(LEFT, nature=SPACE))
    with pytest.raises(ValueError):
        tensor(r, make_sheaf(LEFT, depth=3))
    # a left that differs from the right in one germ is no mirror
    cubic_at_3 = lambda idx: Germ.monomial(1, (3,)) if idx.mu == 3 else quad(idx)
    with pytest.raises(ValueError):
        tensor(r, make_sheaf(LEFT, template=cubic_at_3))
    # nor is one that differs only in a tag the pair cannot hold
    with pytest.raises(ValueError):
        tensor(r, l.replace(role=REDUCED))


def test_default_reduce_keeps_lower_half():
    pred = half(4)
    assert [pred(ClassIndex(mu, 1)) for mu in (1, 2, 3, 4)] == [True, True, False, False]
    pred = half(5)
    assert [pred(ClassIndex(mu, 1)) for mu in (1, 2, 3, 4, 5)] == [True, True, True, False, False]


def test_endo_split_partition_and_roles():
    s = make_sheaf(depth=5)
    reduced, comp = endo_split(s, list(map(half(5), s.carrier)))
    assert reduced.role == REDUCED and comp.role == COMPLEMENTARY
    assert set(reduced.carrier) | set(comp.carrier) == set(s.carrier)
    assert not set(reduced.carrier) & set(comp.carrier)
    assert reduced.nature == comp.nature == s.nature


@given(depth=st.integers(min_value=1, max_value=8), cut=st.integers(min_value=0, max_value=9))
def test_endo_split_partition_any_predicate(depth, cut):
    s = make_sheaf(depth=depth)
    reduced, comp = endo_split(s, [idx.mu <= cut for idx in s.carrier])
    merged = sorted(reduced.carrier + comp.carrier)
    assert tuple(merged) == s.carrier
    assert all(idx.mu <= cut for idx in reduced.carrier)
    assert all(idx.mu > cut for idx in comp.carrier)


def test_emergent_project_flips_nature_and_sets_role():
    _, comp = endo_split(make_sheaf(nature=TIME, depth=4), [True, True, False, False])
    proj = emergent_project(comp)
    assert proj.nature == SPACE
    assert proj.role == ORTHOGONAL

    _, comp_s = endo_split(make_sheaf(nature=SPACE_SHIFTED, depth=4), [True, True, False, False])
    proj_t = emergent_project(comp_s)
    assert proj_t.nature == TIME_SHIFTED


def test_emergent_project_requires_complementary():
    s = make_sheaf()
    with pytest.raises(ValueError):
        emergent_project(s)
    reduced, comp = endo_split(s, list(map(half(4), s.carrier)))
    with pytest.raises(ValueError):
        emergent_project(reduced)


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
    s = attach_sections(tower.class_indices(), RIGHT, ST, SPACE, lambda idx: Germ.from_coeffs(2, {(2, 1): 1}))
    assert shift(s).section_at(ClassIndex(1, 1)).germ == Germ.from_coeffs(2, {(1, 1): 2})


def partial_bisheaf(depth=4, present=(1, 3)):
    """A bisemisheaf occupying only the listed mu slots."""
    tower = small_tower(depth)
    def build(side):
        secs = tuple(
            Section(ClassIndex(mu, 1), side, Germ.monomial(1, (2,))) for mu in present
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


def test_biquantum_move_reorders_the_carrier():
    # (1,1) moves to (2,1), past (1,2); its germ moves with it
    tower = small_tower(2, (2, 1))
    square, cube = Germ.monomial(1, (2,)), Germ.monomial(1, (3,))
    secs = (Section(ClassIndex(1, 1), RIGHT, square), Section(ClassIndex(1, 2), RIGHT, cube))
    b = Bisemisheaf(Semisheaf(RIGHT, ST, TIME, tower, secs))
    out = create_biquantum(b, ClassIndex(1, 1))
    assert out.indices() == (ClassIndex(1, 2), ClassIndex(2, 1))
    assert out.right.germs == (cube, square) and out.left.germs == (cube, square)
    assert annihilate_biquantum(out, ClassIndex(2, 1)) == b


def test_biquantum_round_trip_is_identity():
    b = partial_bisheaf(present=(2,))
    assert annihilate_biquantum(create_biquantum(b, ClassIndex(2, 1)), ClassIndex(3, 1)) == b


def test_biquantum_rejections():
    # the moved carrier is checked like any other: distinct, inside the tower
    b = partial_bisheaf(depth=3, present=(1, 2))
    with pytest.raises(ValueError, match="duplicate or unsorted section at"):
        create_biquantum(b, ClassIndex(1, 1))  # target occupied
    with pytest.raises(ValueError, match=r"mu=0, m=1\) outside the tower"):
        annihilate_biquantum(b, ClassIndex(1, 1))  # ground class
    with pytest.raises(ValueError, match=r"no bisection at class ClassIndex\(mu=2, m=1\)"):
        create_biquantum(partial_bisheaf(depth=3, present=(1,)), ClassIndex(2, 1))  # nothing there
    top = partial_bisheaf(depth=3, present=(3,))
    with pytest.raises(ValueError, match=r"mu=4, m=1\) outside the tower"):
        create_biquantum(top, ClassIndex(3, 1))  # beyond depth


def test_inject_singularity_swallowtail():
    s = make_sheaf(template=lambda idx: Germ.monomial(1, (2,)))
    out = inject_singularity(s, SWALLOWTAIL)
    assert all(classify_germ(sec.germ).name == SWALLOWTAIL for sec in out.sections)
    assert out.carrier == s.carrier


def test_inject_singularity_dims_must_match():
    s = make_sheaf(template=lambda idx: Germ.monomial(1, (2,)))
    with pytest.raises(ValueError):
        inject_singularity(s, ELLIPTIC_UMBILIC)
    two = attach_sections(small_tower(2).class_indices(), RIGHT, ST, SPACE, lambda idx: Germ.from_coeffs(2, {(2, 0): 1, (0, 2): 1}))
    out = inject_singularity(two, ELLIPTIC_UMBILIC)
    assert all(classify_germ(sec.germ).name == ELLIPTIC_UMBILIC for sec in out.sections)
    with pytest.raises(ValueError):
        inject_singularity(s, "Morse")


def test_map_germs_runs_once_per_germ_object(monkeypatch):
    # three separately built germs of one value, the first shared by two classes
    cubic, twin, triplet = (Germ.monomial(1, (3,)) for _ in range(3))
    assert cubic == twin == triplet
    template = {
        ClassIndex(1, 1): cubic,
        ClassIndex(2, 1): cubic,
        ClassIndex(3, 1): twin,
        ClassIndex(4, 1): triplet,
    }
    s = attach_sections(small_tower(4).class_indices(), RIGHT, ST, TIME, template.__getitem__)
    calls = []

    def derive(germ):
        calls.append(germ)
        return germ.derivative()

    builds = []
    post_init = Semisheaf.__post_init__
    monkeypatch.setattr(Semisheaf, "__post_init__", lambda self: builds.append(post_init(self)))
    out = s.map_germs(derive, nature=TIME_SHIFTED)
    assert len(builds) == 1 and out.nature == TIME_SHIFTED
    assert [id(germ) for germ in calls] == [id(cubic), id(twin), id(triplet)]
    images = [sec.germ for sec in out.sections]
    assert images[0] is images[1]
    assert all(germ == Germ.from_coeffs(1, {(2,): 3}) for germ in images)
