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
from typing import Mapping, Sequence

from .tower import Record

# Floats are snapped to rationals before exact arithmetic.  The snap is lossy:
# only the nearest fraction with denominator <= 10^9 is kept.
_SNAP_LIMIT = 10**9

# Fraction expands a decimal exponent exactly, so "1e30000000" would build a
# 30-million-digit integer.  This bound keeps that work small; it is fixed,
# not a setting.  It admits "1e4300", whose 4301 digits the report cannot
# write: the config's germ_template check rejects that one.
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

    Booleans, non-finite floats, zero-denominator strings and non-ASCII
    strings raise ValueError: none of them is a rational coefficient.  So
    do strings whose decimal exponent exceeds 4300 in magnitude, which
    would take unbounded time to expand.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not value.isascii():  # Fraction also reads the digits of other scripts
            raise ValueError(f"coefficient {value!r} is not ASCII text")
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
    the order is not kept.  ``coefficient`` and the classification read
    ``terms``; ``derivative`` is taken in the first variable.

    Germ operations build a new germ on every call; a sheaf morphism applies
    one to each distinct germ object it holds, not to each section (see
    ``Semisheaf.map_germs``).
    """

    __slots__ = ("nvars", "terms")

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
    def monomial(nvars: int, exps: Sequence[int]) -> "Germ":
        return Germ.from_coeffs(nvars, {tuple(exps): 1})

    @staticmethod
    def zero(nvars: int) -> "Germ":
        return Germ.from_coeffs(nvars, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return dict(self.terms).get(tuple(exps), Fraction(0))

    def hessian_at_zero(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact Hessian matrix of the jet at the origin."""
        if self.nvars == 1:
            return ((2 * self.coefficient((2,)),),)
        a = 2 * self.coefficient((2, 0))
        b = self.coefficient((1, 1))
        c = 2 * self.coefficient((0, 2))
        return ((a, b), (b, c))

    def derivative(self) -> "Germ":
        """Formal partial derivative with respect to the first variable."""
        out = {}
        for exps, coeff in self.terms:
            if exps[0]:
                out[(exps[0] - 1, *exps[1:])] = coeff * exps[0]
        return Germ.from_coeffs(self.nvars, out)

    def truncated(self, degree: int) -> "Germ":
        """Drop every monomial of total degree above ``degree``."""
        return Germ.from_coeffs(self.nvars, self.terms, degree)

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
# the catalogue and classification


class SingularityClass(Record):
    """A catalogue label with its corank and codimension."""

    __slots__ = ("name", "corank", "codim")


class Unfolding(Record):
    """A base germ together with its ordered coefficient slots.

    ``parameters`` holds (slot name, attached monomial germ) pairs; the slot
    count is the codimension, ``codim``.  A named coefficient may occupy
    several slots when it multiplies a sum of monomials in the catalogue
    formula.  ``slot_sum(parameters)``, every slot set to 1, is what
    ``blow_up`` glues and what ``unfold`` adds to the base.
    """

    __slots__ = ("base", "parameters")

    @property
    def codim(self) -> int:
        return len(self.parameters)


def slot_sum(parameters: tuple[tuple[str, Germ], ...]) -> Germ:
    """The sum of the slot monomials, in slot order: every slot set to 1."""
    return sum((mono for _, mono in parameters), Germ.zero(parameters[0][1].nvars))


# The catalogue, one row per class: its corank, its normal form with unit
# leading coefficient and its unfolding's (slot name, monomial) slots, as
# coefficient tables in as many variables as the corank.
_ROWS = {
    FOLD: (1, {(3,): 1}, [("a1", {(1,): 1})]),
    CUSP: (1, {(4,): 1}, [("a1", {(1,): 1}), ("a2", {(2,): 1})]),
    SWALLOWTAIL: (1, {(5,): 1}, [("a1", {(1,): 1}), ("a2", {(2,): 1}), ("a3", {(3,): 1})]),
    ELLIPTIC_UMBILIC: (
        2,
        {(3, 0): 1, (1, 2): -3},
        [("b1", {(2, 0): 1}), ("b1", {(0, 2): 1}), ("b2", {(0, 1): -1})],
    ),
    HYPERBOLIC_UMBILIC: (
        2,
        {(3, 0): 1, (0, 3): 1},
        [("b2", {(0, 1): -1}), ("b3", {(1, 0): -1}), ("b4", {(1, 1): 1})],
    ),
}

# Each class's versal unfolding, built once: germs are immutable values.
_UNFOLDINGS = {
    name: Unfolding(
        Germ.from_coeffs(corank, form),
        tuple((slot, Germ.from_coeffs(corank, mono)) for slot, mono in slots),
    )
    for name, (corank, form, slots) in _ROWS.items()
}

CATALOGUE = {name: SingularityClass(name, rank, len(slots)) for name, (rank, _, slots) in _ROWS.items()}

# x^(k+1), a corank-1 normal form, names its class
_POWER_NAMES = {_UNFOLDINGS[n].base.total_degree: n for n, c in CATALOGUE.items() if c.corank == 1}


def normal_form(name: str) -> Germ:
    """Catalogue normal form with unit leading coefficient, one object per name."""
    if name not in _UNFOLDINGS:
        raise ValueError(f"no normal form for {name!r}")
    return _UNFOLDINGS[name].base


def versal_unfold(name: str) -> Unfolding:
    """The catalogue versal unfolding of the class ``name``.

    Raises for Regular, Morse, and Unclassified: only the five catalogue
    classes carry a tabulated unfolding.
    """
    if name not in _UNFOLDINGS:
        raise ValueError(f"no versal unfolding for {name!r}")
    return _UNFOLDINGS[name]


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


def _classify_two_vars(g: Germ, cr: int) -> SingularityClass:
    if cr == 1:
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

    * a term of total degree <= 1 (a nonzero value or gradient at the
      origin) -> ``Regular`` (no singular content; the zero jet also lands
      here, so desingularized sections always classify),
    * full-rank Hessian -> ``Morse``,
    * corank 1 -> pure powers ``x^(k+1)`` (after splitting off an explicit
      diagonal Morse direction in two variables) give fold/cusp/swallowtail,
    * corank 2 -> exact match against the two umbilic cubics up to scaling,
      variable swap and sign flips.

    Everything else is ``Unclassified`` with the computed corank.  The
    umbilic search compares coefficient tables; nothing is cached.
    """
    if g.is_zero or any(sum(e) <= 1 for e, _ in g.terms):
        return SingularityClass(REGULAR, 0, 0)
    cr = corank(g)
    if cr == 0:
        return SingularityClass(MORSE, 0, 0)
    if g.nvars == 1:
        return _classify_pure_power(g)
    return _classify_two_vars(g, cr)


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
