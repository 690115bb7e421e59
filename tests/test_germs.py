"""Jet arithmetic, catalogue classification, and versal unfoldings."""

from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germtower import (
    CATALOGUE,
    Germ,
    classify_germ,
    corank,
    format_germ,
    normal_form,
    versal_unfold,
)
import germtower.germs as germs_module
from germtower.germs import (
    CUSP,
    ELLIPTIC_UMBILIC,
    FOLD,
    HYPERBOLIC_UMBILIC,
    MORSE,
    REGULAR,
    SWALLOWTAIL,
    UNCLASSIFIED,
    germ_from_json,
    germ_to_json,
    snap_to_fraction,
)

# ---------------------------------------------------------------------------
# numeric oracle: Hessian by central finite differences, rank by SVD


def numeric_hessian(g: Germ, step: float = 1e-4) -> np.ndarray:
    n = g.nvars
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            pp = [0.0] * n
            pm = [0.0] * n
            mp = [0.0] * n
            mm = [0.0] * n
            pp[i] += step
            pp[j] += step
            pm[i] += step
            pm[j] -= step
            mp[i] -= step
            mp[j] += step
            mm[i] -= step
            mm[j] -= step
            h[i, j] = (
                g.evaluate(pp) - g.evaluate(pm) - g.evaluate(mp) + g.evaluate(mm)
            ) / (4 * step * step)
    return h


def numeric_rank(matrix: np.ndarray, tol: float = 1e-6) -> int:
    return int(np.sum(np.linalg.svd(matrix, compute_uv=False) > tol))


# ---------------------------------------------------------------------------
# jet arithmetic


def test_from_coeffs_merges_and_drops_zeros():
    g = Germ.from_coeffs(1, [((2,), 1), ((2,), -1), ((3,), "1/2")])
    assert g.terms == (((3,), Fraction(1, 2)),)
    assert g.total_degree == 3


def test_snap_to_fraction():
    assert snap_to_fraction(0.5) == Fraction(1, 2)
    assert snap_to_fraction("2/3") == Fraction(2, 3)
    assert snap_to_fraction(7) == Fraction(7)
    assert snap_to_fraction("1e4300") == 10**4300
    assert snap_to_fraction("3E-0004300 ") == Fraction(3, 10**4300)
    with pytest.raises(ValueError, match="decimal exponent"):
        snap_to_fraction("1e" + "9" * 5000)
    with pytest.raises(ValueError):
        snap_to_fraction(object())


@pytest.mark.parametrize(
    "value",
    [
        "1/0",
        float("inf"),
        float("-inf"),
        float("nan"),
        1e400,
        True,
        False,
        "1e30000000",
        "-2.5E-30000000",
        "1e4301",
        "1e4_301",
    ],
)
def test_snap_to_fraction_rejects_non_rationals(value):
    with pytest.raises(ValueError):
        snap_to_fraction(value)
    with pytest.raises(ValueError):
        germ_from_json({"nvars": 1, "coeffs": [[[3], value]]})


def test_nvars_limited_to_two():
    with pytest.raises(ValueError):
        Germ.from_coeffs(3, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Germ.from_coeffs(2, {(1,): 1})
    with pytest.raises(ValueError):
        Germ.from_coeffs(1, {(-1,): 1})


def test_derivative_is_formal():
    g = Germ.from_coeffs(1, {(3,): 1, (1,): 2, (0,): 5})
    assert g.derivative(0) == Germ.from_coeffs(1, {(2,): 3, (0,): 2})
    g2 = Germ.from_coeffs(2, {(2, 1): 4})
    assert g2.derivative(0) == Germ.from_coeffs(2, {(1, 1): 8})
    assert g2.derivative(1) == Germ.from_coeffs(2, {(2, 0): 4})
    with pytest.raises(ValueError):
        g.derivative(1)


def test_truncated_and_scale_and_add():
    g = Germ.from_coeffs(1, {(1,): 1, (3,): 1, (5,): 1})
    assert g.truncated(3) == Germ.from_coeffs(1, {(1,): 1, (3,): 1})
    assert g.scale("3/2") == Germ.from_coeffs(1, {(1,): "3/2", (3,): "3/2", (5,): "3/2"})
    assert g + g.scale(-1) == Germ.zero(1)


def test_a_germ_is_its_terms():
    # A germ built from its fields keeps its terms through every operation,
    # and a JSON truncation order cuts the jet as it is read.
    terms = (((2,), Fraction(1)), ((3,), Fraction(1)))
    raw = Germ(1, terms)
    built = Germ.from_coeffs(1, {(2,): 1, (3,): 1})
    assert raw == built and hash(raw) == hash(built)
    assert raw.derivative(0) == Germ.from_coeffs(1, {(1,): 2, (2,): 3})
    assert raw.truncated(5).terms == terms
    assert raw.truncated(2) == Germ.monomial(1, (2,))
    assert raw.scale(2) == Germ.from_coeffs(1, {(2,): 2, (3,): 2})
    assert (raw + Germ.zero(1)).terms == (Germ.zero(1) + raw).terms == terms
    read = germ_from_json({"nvars": 1, "coeffs": [[[2], 1], [[4], 1]], "max_degree": 3})
    assert read == Germ.monomial(1, (2,))
    assert not hasattr(read, "max_degree")


def test_evaluate_matches_hand_value():
    g = Germ.from_coeffs(2, {(3, 0): 1, (1, 2): -3})
    x, y = 0.7, -0.4
    assert g.evaluate((x, y)) == pytest.approx(x**3 - 3 * x * y**2)
    with pytest.raises(ValueError):
        g.evaluate((1.0,))


def test_format_germ_ordering():
    assert format_germ(normal_form(HYPERBOLIC_UMBILIC)) == "x^3 + y^3"
    assert format_germ(normal_form(ELLIPTIC_UMBILIC)) == "x^3 - 3*x*y^2"
    g = Germ.from_coeffs(1, {(1,): -1, (2,): "1/2", (0,): 3})
    assert format_germ(g) == "3 - x + 1/2*x^2"
    assert format_germ(Germ.zero(2)) == "0"


# ---------------------------------------------------------------------------
# Hessian and corank against the numeric oracle


# Every monomial of degree at most 4 in one and in two variables.
MONOMIALS = {
    nvars: [e for e in product(range(5), repeat=nvars) if sum(e) <= 4] for nvars in (1, 2)
}


@st.composite
def small_jets(draw) -> Germ:
    """A jet of degree <= 4 in one or two variables with integer coefficients
    in -3..3.  The quadratic part is drawn whole, so that Hessians of every
    rank come up."""
    nvars = draw(st.integers(1, 2))
    small = st.integers(-3, 3)
    coeffs = draw(st.dictionaries(st.sampled_from(MONOMIALS[nvars]), small, max_size=5))
    coeffs.update({e: draw(small) for e in MONOMIALS[nvars] if sum(e) == 2})
    return Germ.from_coeffs(nvars, coeffs)


HESSIAN_PROBES = [
    Germ.from_coeffs(1, {(2,): "5/2", (3,): 1}),
    Germ.from_coeffs(2, {(2, 0): 1, (1, 1): -2, (0, 2): 3}),
    Germ.from_coeffs(2, {(2, 0): 1, (0, 3): 1}),
    normal_form(ELLIPTIC_UMBILIC),
    Germ.monomial(1, (4,)),
]


def check_hessian_against_finite_differences(g: Germ) -> None:
    exact = np.array([[float(v) for v in row] for row in g.hessian_at_zero()])
    approx = numeric_hessian(g)
    assert np.allclose(exact, approx, atol=1e-5)
    assert corank(g) == g.nvars - numeric_rank(exact)


@pytest.mark.parametrize("g", HESSIAN_PROBES, ids=format_germ)
def test_hessian_matches_finite_differences(g):
    check_hessian_against_finite_differences(g)


@settings(max_examples=300, deadline=None)
@given(g=small_jets())
def test_hessian_matches_finite_differences_on_random_jets(g):
    check_hessian_against_finite_differences(g)


def test_corank_values():
    assert corank(Germ.from_coeffs(2, {(2, 0): 1, (0, 2): -1})) == 0
    assert corank(Germ.from_coeffs(2, {(2, 0): 1, (0, 3): 1})) == 1
    assert corank(normal_form(HYPERBOLIC_UMBILIC)) == 2
    assert corank(Germ.monomial(1, (3,))) == 1


# ---------------------------------------------------------------------------
# classification


def test_catalogue_normal_forms_classify_exactly():
    for name, cls in CATALOGUE.items():
        got = classify_germ(normal_form(name))
        assert got == cls


def test_normal_forms_are_shared_and_a_classification_builds_none(monkeypatch):
    for name in CATALOGUE:
        assert normal_form(name) is normal_form(name)
    for name in (MORSE, UNCLASSIFIED, "Butterfly"):
        with pytest.raises(ValueError, match="no normal form"):
            normal_form(name)
    forms = {normal_form(name) for name in CATALOGUE}
    germ = normal_form(HYPERBOLIC_UMBILIC)
    built = []
    from_coeffs = Germ.from_coeffs

    def building(*args):
        built.append(from_coeffs(*args))
        return built[-1]

    monkeypatch.setattr(Germ, "from_coeffs", staticmethod(building))
    assert classify_germ(germ).name == HYPERBOLIC_UMBILIC
    assert [g for g in built if g in forms] == []


def test_regular_and_morse():
    assert classify_germ(Germ.from_coeffs(1, {(0,): 1, (3,): 1})).name == REGULAR
    assert classify_germ(Germ.from_coeffs(2, {(1, 0): 2})).name == REGULAR
    assert classify_germ(Germ.zero(1)).name == REGULAR
    assert classify_germ(Germ.from_coeffs(1, {(2,): -4})).name == MORSE
    assert classify_germ(Germ.from_coeffs(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})).name == MORSE


def test_scaled_and_flipped_powers_classify():
    assert classify_germ(Germ.from_coeffs(1, {(3,): "-7/3"})).name == FOLD
    assert classify_germ(Germ.from_coeffs(1, {(4,): 5})).name == CUSP
    assert classify_germ(Germ.from_coeffs(1, {(5,): -1})).name == SWALLOWTAIL


def test_morse_split_in_two_variables():
    g = Germ.from_coeffs(2, {(0, 2): 1, (3, 0): 1})
    got = classify_germ(g)
    assert (got.name, got.corank, got.codim) == (FOLD, 1, 1)
    g = Germ.from_coeffs(2, {(2, 0): -2, (0, 4): "1/3"})
    assert classify_germ(g).name == CUSP


def test_umbilics_up_to_swap_flip_scale():
    eu = normal_form(ELLIPTIC_UMBILIC)
    hu = normal_form(HYPERBOLIC_UMBILIC)
    variants = [
        Germ.from_coeffs(2, {(0, 3): 1, (2, 1): -3}),  # swapped elliptic
        Germ.from_coeffs(2, {(3, 0): -2, (1, 2): 6}),  # scaled, x-flipped
    ]
    for g in variants:
        assert classify_germ(g) == CATALOGUE[ELLIPTIC_UMBILIC]
    assert classify_germ(hu.scale("-5/4")) == CATALOGUE[HYPERBOLIC_UMBILIC]
    assert classify_germ(eu) != classify_germ(hu)


def test_unclassified_cases_stay_unclassified():
    # wrong cubic mixture
    assert classify_germ(Germ.from_coeffs(2, {(3, 0): 1, (1, 2): 3, (0, 3): 1})).name == UNCLASSIFIED
    # power past the catalogue keeps its corank and codimension
    got = classify_germ(Germ.monomial(1, (6,)))
    assert (got.name, got.corank, got.codim) == (UNCLASSIFIED, 1, 4)
    # corank-1 germ with a shear quadratic is outside the search set
    assert classify_germ(Germ.from_coeffs(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 3): 1})).name == UNCLASSIFIED


def reference_matches_cubic_form(g: Germ, form: Germ) -> bool:
    """The earlier umbilic search, which built each swap and sign-flip image
    and each scaled form as a germ; kept as the oracle of the table search."""
    lead_exps, lead_coeff = form.terms[0]
    for swap, sx, sy in product((False, True), (1, -1), (1, -1)):
        out = {}
        for (i, j), coeff in g.terms:
            e = (j, i) if swap else (i, j)
            out[e] = coeff * sx ** e[0] * sy ** e[1]
        h = Germ.from_coeffs(2, out)
        scale = h.coefficient(lead_exps) / lead_coeff
        if scale != 0 and h == form.scale(scale):
            return True
    return False


def test_umbilic_search_agrees_with_the_germ_building_search(monkeypatch):
    # every binary cubic with coefficients in {-3, -1, 0, 1, 3}
    cubics = [
        Germ.from_coeffs(2, dict(zip(((3, 0), (2, 1), (1, 2), (0, 3)), coeffs)))
        for coeffs in product((-3, -1, 0, 1, 3), repeat=4)
    ]
    got = [classify_germ(g) for g in cubics]
    monkeypatch.setattr(germs_module, "_matches_cubic_form", reference_matches_cubic_form)
    assert [classify_germ(g) for g in cubics] == got
    assert Counter(cls.name for cls in got) == {
        UNCLASSIFIED: 612,
        HYPERBOLIC_UMBILIC: 8,
        ELLIPTIC_UMBILIC: 4,
        REGULAR: 1,
    }


NONZERO = st.fractions(-9, 9, max_denominator=7).filter(bool)


@st.composite
def classifier_inputs(draw) -> Germ:
    """A catalogue normal form, or a random jet of degree <= 4."""
    if draw(st.booleans()):
        return normal_form(draw(st.sampled_from(sorted(CATALOGUE))))
    nvars = draw(st.integers(1, 2))
    exps = st.sampled_from(MONOMIALS[nvars])
    return Germ.from_coeffs(nvars, draw(st.dictionaries(exps, NONZERO, max_size=5)))


def changed(g: Germ, swap=False, flip=None, scale=1) -> Germ:
    """``g`` with its variables swapped, one variable's sign flipped, or scaled."""
    out = {}
    for exps, coeff in g.terms:
        sign = -1 if flip is not None and exps[flip] % 2 else 1
        out[exps[::-1] if swap else exps] = coeff * sign * scale
    return Germ.from_coeffs(g.nvars, out)


@settings(max_examples=500, deadline=None)
@given(g=classifier_inputs(), scale=NONZERO)
def test_class_survives_swap_sign_flips_and_scaling(g, scale):
    expected = classify_germ(g)
    images = [changed(g, flip=0), changed(g, scale=scale)]
    if g.nvars == 2:
        images += [changed(g, swap=True), changed(g, flip=1)]
    for image in images:
        assert classify_germ(image) == expected, (format_germ(g), format_germ(image))


def test_codim_tracks_power_degree():
    for degree, codim in [(3, 1), (4, 2), (5, 3), (7, 5)]:
        assert classify_germ(Germ.monomial(1, (degree,))).codim == codim


# ---------------------------------------------------------------------------
# unfoldings


def test_unfolding_slot_counts_equal_codim():
    for name, cls in CATALOGUE.items():
        unf = versal_unfold(name)
        assert unf.codim == cls.codim
        assert len(unf.parameters) == cls.codim
        assert unf.base == normal_form(name)


def test_corank_one_unfoldings_term_for_term():
    assert [(n, format_germ(m)) for n, m in versal_unfold(FOLD).parameters] == [("a1", "x")]
    assert [(n, format_germ(m)) for n, m in versal_unfold(CUSP).parameters] == [
        ("a1", "x"),
        ("a2", "x^2"),
    ]
    assert [(n, format_germ(m)) for n, m in versal_unfold(SWALLOWTAIL).parameters] == [
        ("a1", "x"),
        ("a2", "x^2"),
        ("a3", "x^3"),
    ]


def test_umbilic_unfoldings_term_for_term():
    eu = versal_unfold(ELLIPTIC_UMBILIC)
    assert [(n, format_germ(m)) for n, m in eu.parameters] == [
        ("b1", "x^2"),
        ("b1", "y^2"),
        ("b2", "-y"),
    ]
    hu = versal_unfold(HYPERBOLIC_UMBILIC)
    assert [(n, format_germ(m)) for n, m in hu.parameters] == [
        ("b2", "-y"),
        ("b3", "-x"),
        ("b4", "x*y"),
    ]


def test_instantiate_reproduces_formulas():
    cusp = versal_unfold(CUSP).instantiate({"a1": 2, "a2": "1/2"})
    assert cusp == Germ.from_coeffs(1, {(4,): 1, (1,): 2, (2,): "1/2"})
    eu = versal_unfold(ELLIPTIC_UMBILIC).instantiate({"b1": 3, "b2": 5})
    # b1 multiplies both quadratic slots at once
    assert eu == Germ.from_coeffs(2, {(3, 0): 1, (1, 2): -3, (2, 0): 3, (0, 2): 3, (0, 1): -5})
    assert versal_unfold(FOLD).instantiate() == normal_form(FOLD)
    assert versal_unfold(FOLD).instantiate({"nope": 1}) == normal_form(FOLD)


def test_unfolding_rejects_off_catalogue():
    for bad in (REGULAR, MORSE, UNCLASSIFIED, "NotAClass"):
        with pytest.raises(ValueError):
            versal_unfold(bad)


# ---------------------------------------------------------------------------
# JSON interchange


def test_germ_json_roundtrip():
    g = Germ.from_coeffs(2, {(3, 0): 1, (1, 2): "-3/2"})
    assert germ_from_json(germ_to_json(g)) == g
    raw = {"nvars": 1, "coeffs": [[[3], "1"], [[1], -0.5]]}
    assert germ_from_json(raw) == Germ.from_coeffs(1, {(3,): 1, (1,): "-1/2"})


def test_germ_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        germ_from_json({"coeffs": []})
    with pytest.raises(ValueError):
        germ_from_json({"nvars": 1, "coeffs": [[1, 2, 3]]})
    # wrong JSON types are rejected, not coerced
    for bad in (
        {"nvars": 1, "coeffs": [[3, 1]]},
        {"nvars": 1, "coeffs": 5},
        {"nvars": 1, "coeffs": [[[3.5], 1]]},
        {"nvars": 1, "coeffs": [[[None], 1]]},
        {"nvars": "1", "coeffs": [[[3], 1]]},
        {"nvars": 1, "coeffs": [[[3], 1]], "max_degree": "x"},
        {"nvars": 1, "coeffs": [[[3], 1]], "max_degree": 2.0},
    ):
        with pytest.raises(ValueError):
            germ_from_json(bad)
