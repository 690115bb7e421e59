"""Polynomial jets at the origin and their catastrophe-catalogue classification.

Germs are finite polynomial jets in one or two variables with exact rational
coefficients.  Classification is deliberately conservative: a germ is matched
against the catalogue (fold, cusp, swallowtail, elliptic and hyperbolic
umbilic) only through exact coefficient comparison after overall scaling and
a small declared set of coordinate changes (variable swap and sign flips).
Anything beyond that search set is reported Unclassified, never guessed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Sequence

from .tower import Record, _set

# Floats are snapped to rationals before exact arithmetic.  The snap is lossy:
# only the nearest fraction with denominator <= 10^9 is kept.
_SNAP_LIMIT = 10**9

# Fraction expands a decimal exponent exactly, so "1e30000000" would build a
# 30-million-digit integer.  The bound is fixed at the interpreter's default
# int_max_str_digits; it is not a setting.
_MAX_DECIMAL_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")

REGULAR = "Regular"
MORSE = "Morse"
FOLD = "Fold"
CUSP = "Cusp"
SWALLOWTAIL = "Swallowtail"
ELLIPTIC_UMBILIC = "EllipticUmbilic"
HYPERBOLIC_UMBILIC = "HyperbolicUmbilic"
UNCLASSIFIED = "Unclassified"


def snap_to_fraction(value) -> Fraction:
    """Coerce a number (int, Fraction, float, or 'p/q' string) to a Fraction.

    Booleans, non-finite floats and zero-denominator strings raise
    ValueError: none of them is a rational coefficient.  So do strings whose
    decimal exponent exceeds 4300 in magnitude, which would take unbounded
    time to expand.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _DECIMAL_EXPONENT.search(value)
        if exponent:
            digits = exponent.group(1).replace("_", "").lstrip("0") or "0"
            too_long = len(digits) > len(str(_MAX_DECIMAL_EXPONENT))
            if too_long or int(digits) > _MAX_DECIMAL_EXPONENT:
                raise ValueError(
                    f"coefficient {value!r} has a decimal exponent beyond "
                    f"+-{_MAX_DECIMAL_EXPONENT}"
                )
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {value!r} has a zero denominator") from None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"coefficient {value!r} is not finite")
        return Fraction(value).limit_denominator(_SNAP_LIMIT)
    raise ValueError(f"cannot interpret {value!r} as a rational coefficient")


class Germ(Record):
    """A polynomial jet at the origin.

    Attributes
    ----------
    nvars : int
        Number of variables, 1 or 2.
    terms : tuple
        Sorted ``((exponents, coefficient), ...)`` pairs with nonzero
        Fraction coefficients and distinct exponent tuples.

    A germ is its value: two germs are equal when their variable counts and
    term lists agree.  ``from_coeffs`` may truncate the jet as it builds it;
    the order is not kept.

    Germ operations build a new germ on every call; a sheaf morphism applies
    one to each distinct germ object it holds, not to each section (see
    ``Semisheaf.map_germs``).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: tuple[tuple[tuple[int, ...], Fraction], ...]):
        _set(self, "nvars", nvars)
        _set(self, "terms", terms)

    @staticmethod
    def from_coeffs(nvars: int, coeffs, max_degree: int | None = None) -> "Germ":
        if nvars not in (1, 2):
            raise ValueError("germs carry 1 or 2 variables")
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = coeffs
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, value in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match nvars={nvars}")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be non-negative")
            acc[exps] = acc.get(exps, Fraction(0)) + snap_to_fraction(value)
        if max_degree is not None and max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        kept = {e: c for e, c in acc.items() if c != 0}
        if max_degree is not None:
            kept = {e: c for e, c in kept.items() if sum(e) <= max_degree}
        return Germ(nvars, tuple(sorted(kept.items())))

    @staticmethod
    def monomial(nvars: int, exps: Sequence[int], coeff=1) -> "Germ":
        return Germ.from_coeffs(nvars, {tuple(exps): coeff})

    @staticmethod
    def zero(nvars: int) -> "Germ":
        return Germ.from_coeffs(nvars, {})

    @property
    def coeffs(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * self.nvars, Fraction(0))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.coeffs.get(tuple(exps), Fraction(0))

    def gradient_at_zero(self) -> tuple[Fraction, ...]:
        out = []
        for i in range(self.nvars):
            e = tuple(1 if j == i else 0 for j in range(self.nvars))
            out.append(self.coefficient(e))
        return tuple(out)

    def hessian_at_zero(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact Hessian matrix of the jet at the origin."""
        if self.nvars == 1:
            return ((2 * self.coefficient((2,)),),)
        a = 2 * self.coefficient((2, 0))
        b = self.coefficient((1, 1))
        c = 2 * self.coefficient((0, 2))
        return ((a, b), (b, c))

    def derivative(self, var: int = 0) -> "Germ":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} outside 0..{self.nvars - 1}")
        out = {}
        for exps, coeff in self.terms:
            if exps[var] == 0:
                continue
            new = list(exps)
            new[var] -= 1
            out[tuple(new)] = coeff * exps[var]
        return Germ.from_coeffs(self.nvars, out)

    def truncated(self, degree: int) -> "Germ":
        """Drop every monomial of total degree above ``degree``."""
        return Germ.from_coeffs(self.nvars, self.terms, degree)

    def scale(self, factor) -> "Germ":
        f = snap_to_fraction(factor)
        scaled = {e: c * f for e, c in self.terms}
        return Germ.from_coeffs(self.nvars, scaled)

    def __add__(self, other: "Germ") -> "Germ":
        if not isinstance(other, Germ):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("cannot add germs with different variable counts")
        out = dict(self.terms)
        for exps, coeff in other.terms:
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return Germ.from_coeffs(self.nvars, out)

    def evaluate(self, point: Sequence[float]) -> float:
        """Floating-point value of the jet at ``point``."""
        if len(point) != self.nvars:
            raise ValueError("point dimension does not match the germ")
        total = 0.0
        for exps, coeff in self.terms:
            term = float(coeff)
            for x, e in zip(point, exps):
                term *= x**e
            total += term
        return total


_VAR_NAMES = ("x", "y")


def format_germ(g: Germ) -> str:
    """Readable polynomial string, lowest degree first (e.g. ``x + x^2``)."""
    if g.is_zero:
        return "0"
    parts = []
    order = lambda t: (sum(t[0]), tuple(-e for e in t[0]))
    for exps, coeff in sorted(g.terms, key=order):
        mono = "*".join(
            _VAR_NAMES[i] if e == 1 else f"{_VAR_NAMES[i]}^{e}"
            for i, e in enumerate(exps)
            if e
        )
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# ---------------------------------------------------------------------------
# classification


class SingularityClass(NamedTuple):
    """A catalogue label with its corank and codimension."""

    name: str
    corank: int
    codim: int


CATALOGUE: dict[str, SingularityClass] = {
    FOLD: SingularityClass(FOLD, 1, 1),
    CUSP: SingularityClass(CUSP, 1, 2),
    SWALLOWTAIL: SingularityClass(SWALLOWTAIL, 1, 3),
    ELLIPTIC_UMBILIC: SingularityClass(ELLIPTIC_UMBILIC, 2, 3),
    HYPERBOLIC_UMBILIC: SingularityClass(HYPERBOLIC_UMBILIC, 2, 3),
}

_POWER_NAMES = {3: FOLD, 4: CUSP, 5: SWALLOWTAIL}


# The catalogue normal forms, built once: a germ is an immutable value.
_NORMAL_FORMS = {
    FOLD: Germ.monomial(1, (3,)),
    CUSP: Germ.monomial(1, (4,)),
    SWALLOWTAIL: Germ.monomial(1, (5,)),
    ELLIPTIC_UMBILIC: Germ.from_coeffs(2, {(3, 0): 1, (1, 2): -3}),
    HYPERBOLIC_UMBILIC: Germ.from_coeffs(2, {(3, 0): 1, (0, 3): 1}),
}


def normal_form(name: str) -> Germ:
    """Catalogue normal form with unit leading coefficient, one object per name."""
    form = _NORMAL_FORMS.get(name)
    if form is None:
        raise ValueError(f"no normal form for {name!r}")
    return form


def _hessian_rank(h) -> int:
    if len(h) == 1:
        return 0 if h[0][0] == 0 else 1
    a, b = h[0]
    c = h[1][1]
    if a * c - b * b != 0:
        return 2
    if a or b or c:
        return 1
    return 0


def corank(g: Germ) -> int:
    """Variables count minus the exact rank of the Hessian at the origin."""
    return g.nvars - _hessian_rank(g.hessian_at_zero())


def _classify_pure_power(g: Germ) -> SingularityClass:
    # g is a 1-variable germ with zero constant/linear/quadratic parts.
    if len(g.terms) != 1:
        return SingularityClass(UNCLASSIFIED, 1, 0)
    (exps, _), = g.terms
    degree = exps[0]
    name = _POWER_NAMES.get(degree, UNCLASSIFIED)
    # x^(k+1) has codimension k - 1, also reported for powers past the
    # catalogue even though they stay Unclassified by name.
    return SingularityClass(name, 1, degree - 2)


def _matches_cubic_form(g: Germ, form: Germ) -> bool:
    lead_exps, lead_coeff = form.terms[0]
    for swap, sx, sy in product((False, True), (1, -1), (1, -1)):
        image = {}
        for (i, j), coeff in g.terms:
            e = (j, i) if swap else (i, j)
            image[e] = coeff * sx ** e[0] * sy ** e[1]
        scale = image.get(lead_exps, 0) / lead_coeff
        if scale and image == {e: c * scale for e, c in form.terms}:
            return True
    return False


def _classify_two_vars(g: Germ, rank: int) -> SingularityClass:
    if rank == 1:
        # Splitting off the Morse direction is attempted only when the
        # quadratic part is already diagonal; shears are outside the
        # declared search set.
        if g.coefficient((1, 1)) != 0:
            return SingularityClass(UNCLASSIFIED, 1, 0)
        morse_var = 0 if g.coefficient((2, 0)) != 0 else 1
        kernel_var = 1 - morse_var
        residual = {}
        for exps, coeff in g.terms:
            if exps[morse_var] == 2 and exps[kernel_var] == 0:
                continue
            if exps[morse_var] != 0:
                return SingularityClass(UNCLASSIFIED, 1, 0)
            residual[(exps[kernel_var],)] = coeff
        if not residual:
            return SingularityClass(UNCLASSIFIED, 1, 0)
        return _classify_pure_power(Germ.from_coeffs(1, residual))
    if _matches_cubic_form(g, normal_form(ELLIPTIC_UMBILIC)):
        return CATALOGUE[ELLIPTIC_UMBILIC]
    if _matches_cubic_form(g, normal_form(HYPERBOLIC_UMBILIC)):
        return CATALOGUE[HYPERBOLIC_UMBILIC]
    return SingularityClass(UNCLASSIFIED, 2, 0)


def classify_germ(g: Germ) -> SingularityClass:
    """Classify a jet against the degenerate-singularity catalogue.

    The decision tree is exact:

    * nonzero value or gradient at the origin -> ``Regular`` (no singular
      content; the zero jet also lands here, so desingularized sections
      always classify),
    * full-rank Hessian -> ``Morse``,
    * corank 1 -> pure powers ``x^(k+1)`` (after splitting off an explicit
      diagonal Morse direction in two variables) give fold/cusp/swallowtail,
    * corank 2 -> exact match against the two umbilic cubics up to scaling,
      variable swap and sign flips.

    Everything else is ``Unclassified`` with the computed corank.  The
    umbilic search compares coefficient tables; nothing is cached.
    """
    if g.constant_term != 0 or any(g.gradient_at_zero()):
        return SingularityClass(REGULAR, 0, 0)
    if g.is_zero:
        return SingularityClass(REGULAR, 0, 0)
    rank = _hessian_rank(g.hessian_at_zero())
    cr = g.nvars - rank
    if cr == 0:
        return SingularityClass(MORSE, 0, 0)
    if g.nvars == 1:
        return _classify_pure_power(g)
    return _classify_two_vars(g, rank)


# ---------------------------------------------------------------------------
# versal unfolding


class Unfolding(NamedTuple):
    """A base germ together with its ordered coefficient slots.

    ``parameters`` holds (slot name, attached monomial germ) pairs; the slot
    count equals the codimension.  A named coefficient may occupy several
    slots when it multiplies a sum of monomials in the catalogue formula.
    """

    base: Germ
    parameters: tuple[tuple[str, Germ], ...]
    codim: int

    def instantiate(self, values: Mapping[str, object] | None = None) -> Germ:
        """The unfolded germ with the given slot values (missing names -> 0)."""
        values = dict(values or {})
        total = self.base
        for name, mono in self.parameters:
            if name in values:
                total = total + mono.scale(values[name])
        return total


def _slots(nvars: int, entries: Iterable[tuple[str, dict]]) -> tuple:
    return tuple((name, Germ.from_coeffs(nvars, coeffs)) for name, coeffs in entries)


_UNFOLDINGS: dict[str, tuple] = {
    FOLD: _slots(1, [("a1", {(1,): 1})]),
    CUSP: _slots(1, [("a1", {(1,): 1}), ("a2", {(2,): 1})]),
    SWALLOWTAIL: _slots(
        1, [("a1", {(1,): 1}), ("a2", {(2,): 1}), ("a3", {(3,): 1})]
    ),
    ELLIPTIC_UMBILIC: _slots(
        2, [("b1", {(2, 0): 1}), ("b1", {(0, 2): 1}), ("b2", {(0, 1): -1})]
    ),
    HYPERBOLIC_UMBILIC: _slots(
        2, [("b2", {(0, 1): -1}), ("b3", {(1, 0): -1}), ("b4", {(1, 1): 1})]
    ),
}


def versal_unfold(c: SingularityClass | str) -> Unfolding:
    """The catalogue versal unfolding of a degenerate class.

    Raises for Regular, Morse, and Unclassified inputs: only the five
    catalogue classes carry a tabulated unfolding.
    """
    name = c if isinstance(c, str) else c.name
    if name not in CATALOGUE:
        raise ValueError(f"no versal unfolding for {name!r}")
    return Unfolding(normal_form(name), _UNFOLDINGS[name], CATALOGUE[name].codim)


# ---------------------------------------------------------------------------
# JSON interchange


def germ_from_json(data: dict) -> Germ:
    """Parse ``{"nvars": n, "coeffs": [[[e, ...], value], ...]}``.

    The only other key is the optional ``max_degree``, which truncates the
    jet as it is read and is not kept.  ``nvars``, the exponents and
    ``max_degree`` must be JSON integers; anything else raises ValueError
    instead of being coerced.
    """
    if not isinstance(data, dict) or "nvars" not in data or "coeffs" not in data:
        raise ValueError("germ JSON needs 'nvars' and 'coeffs' keys")
    unknown = set(data) - {"nvars", "coeffs", "max_degree"}
    if unknown:
        raise ValueError(f"unknown germ keys: {sorted(unknown)}")
    nvars, coeffs = data["nvars"], data["coeffs"]
    max_degree = data.get("max_degree")
    if type(nvars) is not int:
        raise ValueError(f"germ nvars must be an integer, got {nvars!r}")
    if "max_degree" in data and type(max_degree) is not int:
        raise ValueError(f"germ max_degree must be an integer, got {max_degree!r}")
    if not isinstance(coeffs, (list, tuple)):
        raise ValueError("germ coeffs must be a list of [[exponents...], value]")
    entries = []
    for item in coeffs:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not isinstance(item[0], (list, tuple))
            or any(type(e) is not int for e in item[0])
        ):
            raise ValueError("each coeffs entry must be [[integer exponents...], value]")
        entries.append((tuple(item[0]), item[1]))
    return Germ.from_coeffs(nvars, entries, max_degree)


def germ_to_json(g: Germ) -> dict:
    return {
        "nvars": g.nvars,
        "coeffs": [[list(exps), str(coeff)] for exps, coeff in g.terms],
    }
