"""Toroidal compactification into exponential-sum semimodules and correspondences.

Compactifying a semisheaf turns every class into one Fourier-like mode
``r * exp(sign * pi * i * mu * x)`` with sign +1 on the left and -1 on the
right.  The summed modes form an elliptic semimodule; paired left/right modes
at the same class behave like the two strings of a harmonic bistring whose
pointwise modulus is constant.  One builder, ``level_record``, pairs a
level's Weil-side class listing with its compactified reduced and orthogonal
cuspidal parts; the pipeline calls it per level, and ``lgc`` (no split) and
``lggc_st`` (split and project first) are routes into it.  It compactifies
each part's right semisheaf once and gives the left mirror the same modes
with sign +1, so a run builds no mirror sheaf.
"""

from __future__ import annotations

import cmath
from typing import Callable, NamedTuple, Sequence

from .sheaves import Bisemisheaf, Semisheaf, emergent_project, endo_split
from .tower import LEFT, ClassIndex, Record, _set

AmplitudeRule = Callable[[ClassIndex], float]


def unit_amplitude(_: ClassIndex) -> float:
    return 1.0


class Mode(Record):
    """One exponential mode ``amplitude * exp(sign * pi * i * mu * x)``."""

    __slots__ = ("mu", "m", "amplitude", "sign")

    def __init__(self, mu: int, m: int, amplitude: float, sign: int):
        if sign not in (-1, 1):
            raise ValueError("mode sign must be +1 (left) or -1 (right)")
        if amplitude < 0:
            raise ValueError("mode amplitude must be non-negative")
        _set(self, "mu", mu)
        _set(self, "m", m)
        _set(self, "amplitude", amplitude)
        _set(self, "sign", sign)


class EllipticSemimodule(NamedTuple):
    """A one-sided sum of semicircle phasor modes."""

    side: str
    modes: tuple[Mode, ...]

    def evaluate(self, x: float) -> complex:
        return sum(
            (
                mode.amplitude * cmath.exp(1j * mode.sign * cmath.pi * mode.mu * x)
                for mode in self.modes
            ),
            complex(0),
        )

    def mode_indices(self) -> tuple[ClassIndex, ...]:
        return tuple(ClassIndex(mode.mu, mode.m) for mode in self.modes)


def compactify(
    s: Semisheaf,
    amplitude_rule: AmplitudeRule | None = None,
    even_only: bool = False,
) -> EllipticSemimodule:
    """Compactify a semisheaf into its elliptic semimodule.

    One mode per class; the amplitude rule defaults to 1 everywhere.  With
    ``even_only`` set (the even-class convention) odd classes are skipped and
    a retained class ``mu = 2k`` keeps its doubled degree ``2kN``.
    """
    if not s.carrier:
        raise ValueError("cannot compactify an empty semisheaf")
    rule = amplitude_rule or unit_amplitude
    sign = 1 if s.side == LEFT else -1
    modes = []
    for idx in s.carrier:
        if even_only and idx.mu % 2 != 0:
            continue
        amplitude = float(rule(idx))
        if amplitude < 0:
            raise ValueError(f"amplitude rule is negative at class {idx}")
        modes.append(Mode(idx.mu, idx.m, amplitude, sign))
    if not modes:
        raise ValueError("the even-class convention removed every section")
    return EllipticSemimodule(s.side, tuple(modes))


def bistring_modulus(
    right_mode: Mode, left_mode: Mode, samples: Sequence[float]
) -> list[float]:
    """Pointwise modulus of a matched bistring product.

    The right string rotates with sign -1 and the left with +1 at the same
    class, so the product's modulus is the constant ``r_R * r_L``.
    """
    if right_mode.sign != -1 or left_mode.sign != 1:
        raise ValueError("a bistring pairs a right (-1) mode with a left (+1) mode")
    if right_mode.mu != left_mode.mu:
        raise ValueError("matched bistring modes must share their class mu")
    out = []
    for x in samples:
        zr = right_mode.amplitude * cmath.exp(-1j * cmath.pi * right_mode.mu * x)
        zl = left_mode.amplitude * cmath.exp(1j * cmath.pi * left_mode.mu * x)
        out.append(abs(zr * zl))
    return out


class WeilDescriptor(NamedTuple):
    """One Weil-side class: an index with its completion degree."""

    mu: int
    m: int
    degree: int


class LevelRecord(NamedTuple):
    label: str
    weil_side: tuple[WeilDescriptor, ...]
    reduced: tuple[EllipticSemimodule, EllipticSemimodule]
    orthogonal: tuple[EllipticSemimodule, EllipticSemimodule] | None = None

    def pairs(self) -> tuple[tuple[EllipticSemimodule, EllipticSemimodule], ...]:
        """The (right, left) pair of each part, the orthogonal one if present."""
        return (self.reduced,) if self.orthogonal is None else (self.reduced, self.orthogonal)

    def mode_pair_count(self) -> int:
        return sum(len(right.modes) for right, _ in self.pairs())

    def bijection_holds(self) -> bool:
        """As many Weil classes as cuspidal mode pairs."""
        return len(self.weil_side) == self.mode_pair_count()


class Correspondence(NamedTuple):
    levels: tuple[LevelRecord, ...]

    def bijection_holds(self) -> bool:
        return all(level.bijection_holds() for level in self.levels)


def level_record(
    label: str,
    reduced: Bisemisheaf,
    orthogonal: Bisemisheaf | None,
    amplitude_rule: AmplitudeRule | None = None,
    even_only: bool = False,
) -> LevelRecord:
    """Compactify a level's reduced and orthogonal parts into one record.

    The Weil side lists every class of both parts in index order, with its
    degree in the reduced part's tower; ``even_only`` drops the odd classes
    there as it does from the modes.  ``Bisemisheaf.left`` is never read.
    """
    indices = reduced.indices() + (orthogonal.indices() if orthogonal else ())
    weil = tuple(
        WeilDescriptor(idx.mu, idx.m, reduced.tower.real_degree(idx))
        for idx in sorted(indices)
        if not (even_only and idx.mu % 2 != 0)
    )

    def pair(part: Bisemisheaf) -> tuple[EllipticSemimodule, EllipticSemimodule]:
        right = compactify(part.right, amplitude_rule, even_only)
        left = tuple(Mode(mode.mu, mode.m, mode.amplitude, 1) for mode in right.modes)
        return right, EllipticSemimodule(LEFT, left)

    return LevelRecord(
        label, weil, pair(reduced), None if orthogonal is None else pair(orthogonal)
    )


def lgc(
    b: Bisemisheaf,
    amplitude_rule: AmplitudeRule | None = None,
    even_only: bool = False,
) -> Correspondence:
    """One-level correspondence: the whole bisemisheaf compactified.

    The Weil side lists every class descriptor; the cuspidal side is the
    (right, left) semimodule pair, in bijection with it.
    """
    return Correspondence((level_record(b.level, b, None, amplitude_rule, even_only),))


def lggc_st(
    b: Bisemisheaf,
    reduce: Callable[[ClassIndex], bool],
    amplitude_rule: AmplitudeRule | None = None,
    even_only: bool = False,
) -> Correspondence:
    """Two-part correspondence: split first, then compactify each route.

    The endomorphism split of the right semisheaf keeps the reduced part in
    place and projects the complementary part to the orthogonal complement;
    each part is paired with its left mirror and compactified.  Splitting and
    compactifying commute on mode indices, so the union of the two parts'
    modes equals the plain compactification's.
    """
    reduced, complementary = endo_split(b.right, reduce)
    if not reduced.carrier:
        raise ValueError("the reduce predicate left the reduced part empty")
    orthogonal = None
    if complementary.carrier:
        orthogonal = Bisemisheaf(emergent_project(complementary))
    record = level_record(b.level, Bisemisheaf(reduced), orthogonal, amplitude_rule, even_only)
    return Correspondence((record,))
