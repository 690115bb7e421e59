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
    # the carrier is checked as it is built: sorted, distinct, in the tower
    tower = small_tower(2)
    one, two, zero = ClassIndex(1, 1), ClassIndex(2, 1), Germ.zero(1)
    s = Semisheaf(RIGHT, ST, TIME, Carrier((one, two), tower), (zero, zero))
    assert s.carrier == (one, two) and s.tower is tower
    for indices in ((one, one), (two, one), (ClassIndex(5, 1),)):
        with pytest.raises(ValueError):
            Carrier(indices, tower)
    with pytest.raises(ValueError, match="one germ per carrier class"):
        Semisheaf(RIGHT, ST, TIME, Carrier((one, two), tower), (zero,))
    # a raw tuple of indices names no tower
    with pytest.raises(TypeError, match="tower.Carrier"):
        Semisheaf(RIGHT, ST, TIME, (one, two), (zero, zero))


@pytest.mark.parametrize(
    "tags, error",
    [
        (("up", ST, TIME), "bad side 'up'"),
        ((RIGHT, "XX", TIME), "bad level 'XX'"),
        ((RIGHT, ST, "X"), "bad nature 'X'"),
    ],
)
def test_semisheaf_rejects_a_bad_tag(tags, error):
    side, level, nature = tags
    tower = small_tower(2)
    carrier, germs = tower.class_indices(), (Germ.zero(1),) * 2
    with pytest.raises(ValueError, match=f"^{error}$"):
        Semisheaf(side, level, nature, carrier, germs)


def test_a_checked_carrier_is_checked_once(monkeypatch):
    tower = small_tower(4, (1, 2, 1, 1))
    s = attach_sections(tower.class_indices(), RIGHT, ST, TIME, quad)
    assert isinstance(s.carrier, Carrier) and s.tower is s.carrier.tower is tower
    with pytest.raises(ValueError, match="outside the tower rectangle"):
        Carrier(s.carrier, small_tower(2))
    with pytest.raises(ValueError, match="duplicate or unsorted"):
        Carrier(s.carrier[:2] + s.carrier[1:2], tower)
    # what a checked carrier derives is not checked again
    calls = []
    contains = Tower.contains
    monkeypatch.setattr(Tower, "contains", lambda self, idx: calls.append(idx) or contains(self, idx))
    upper = s.restrict([idx.mu > 2 for idx in s.carrier])
    assert upper.carrier == (ClassIndex(3, 1), ClassIndex(4, 1))
    short = s.carrier.truncated(2)
    assert short == (ClassIndex(1, 1), ClassIndex(2, 1), ClassIndex(2, 2))
    assert short.tower == tower.truncated(2)
    cut = s.replace(carrier=short, germs=s.germs[: len(short)])
    assert cut.tower == short.tower and len(cut) == 3
    assert shift(emergent_project(upper)).carrier == upper.carrier
    assert calls == []


def test_carrier_form_copies_restricts_and_maps():
    s = make_sheaf(depth=4)
    assert [sec.germ for sec in s.sections] == list(s.germs) == [quad(idx) for idx in s.carrier]
    upper = s.restrict([idx.mu > 2 for idx in s.carrier])
    assert upper.carrier == (ClassIndex(3, 1), ClassIndex(4, 1))
    assert upper.germs == (quad(ClassIndex(3, 1)), quad(ClassIndex(4, 1)))
    assert upper.nature == s.nature
    with pytest.raises(TypeError):
        s.replace(sections=())
    # a germ map may not change a germ's variable count
    with pytest.raises(ValueError):
        s.map_germs(lambda germ: Germ.zero(2))


def test_tensor_requires_matching_pair():
    r = make_sheaf(RIGHT)
    l = make_sheaf(LEFT)
    b = tensor(r, l)
    assert b.right.level == ST and b.right.nature == TIME
    assert b.right.carrier == r.carrier
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
    # nor is one that differs only in one tag
    with pytest.raises(ValueError):
        tensor(r, l.replace(level=MG))


def test_sheaves_over_equal_classes_of_different_towers_differ():
    # (1,1) and (2,1) lie in both towers, whose offsets differ
    classes = (ClassIndex(1, 1), ClassIndex(2, 1))
    one, other = (build_tower(TowerConfig(3, offset, 2)) for offset in (0, 1))
    germs = (quad(classes[0]), quad(classes[1]))
    r, r_other = (Semisheaf(RIGHT, ST, TIME, Carrier(classes, t), germs) for t in (one, other))
    assert r.carrier == r_other.carrier and r.germs == r_other.germs
    assert r != r_other and hash(r) != hash(r_other)
    assert r == r_other.replace(carrier=Carrier(classes, one))
    with pytest.raises(ValueError, match="the same sections, tower and tags"):
        tensor(r, r_other.replace(side=LEFT))
    assert tensor(r, r.replace(side=LEFT)).left.tower == one


def test_default_reduce_keeps_lower_half():
    pred = half(4)
    assert [pred(ClassIndex(mu, 1)) for mu in (1, 2, 3, 4)] == [True, True, False, False]
    pred = half(5)
    assert [pred(ClassIndex(mu, 1)) for mu in (1, 2, 3, 4, 5)] == [True, True, True, False, False]


def test_endo_split_partition_and_roles():
    s = make_sheaf(depth=5)
    reduced, comp = endo_split(s, list(map(half(5), s.carrier)))
    # a part's role is its place: the mask's classes first, the others second
    assert [idx.mu for idx in reduced.carrier] == [1, 2, 3]
    assert [idx.mu for idx in comp.carrier] == [4, 5]
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


def test_emergent_project_flips_nature_and_keeps_sections():
    _, comp = endo_split(make_sheaf(nature=TIME, depth=4), [True, True, False, False])
    proj = emergent_project(comp)
    assert proj.nature == SPACE
    assert proj.carrier == comp.carrier and proj.germs == comp.germs

    _, comp_s = endo_split(make_sheaf(nature=SPACE_SHIFTED, depth=4), [True, True, False, False])
    proj_t = emergent_project(comp_s)
    assert proj_t.nature == TIME_SHIFTED


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
    carrier = Carrier((ClassIndex(mu, 1) for mu in present), small_tower(depth))
    right = Semisheaf(RIGHT, ST, TIME, carrier, (Germ.monomial(1, (2,)),) * len(carrier))
    return tensor(right, right.replace(side=LEFT))


def test_create_biquantum_moves_up_one_class():
    b = partial_bisheaf(present=(1, 3))
    out = create_biquantum(b, ClassIndex(1, 1))
    assert out.right.carrier == (ClassIndex(2, 1), ClassIndex(3, 1))
    # degree bookkeeping: one step costs N per string
    n = b.right.tower.config.quantum_modulus
    assert b.right.tower.real_degree(2) - b.right.tower.real_degree(1) == n


def test_annihilate_biquantum_moves_down_one_class():
    b = partial_bisheaf(present=(1, 3))
    out = annihilate_biquantum(b, ClassIndex(3, 1))
    assert out.right.carrier == (ClassIndex(1, 1), ClassIndex(2, 1))


def test_biquantum_move_reorders_the_carrier():
    # (1,1) moves to (2,1), past (1,2); its germ moves with it
    tower = small_tower(2, (2, 1))
    square, cube = Germ.monomial(1, (2,)), Germ.monomial(1, (3,))
    carrier = Carrier((ClassIndex(1, 1), ClassIndex(1, 2)), tower)
    b = Bisemisheaf(Semisheaf(RIGHT, ST, TIME, carrier, (square, cube)))
    out = create_biquantum(b, ClassIndex(1, 1))
    assert out.right.carrier == (ClassIndex(1, 2), ClassIndex(2, 1))
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
