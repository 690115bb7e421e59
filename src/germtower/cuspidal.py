"""Toroidal compactification into exponential-sum semimodules and correspondences.

Compactifying a semisheaf turns every class into one Fourier-like mode
``r * exp(sign * pi * i * mu * x)`` with sign +1 on the left and -1 on the
right.  The summed modes form an elliptic semimodule; paired left/right modes
at the same class behave like the two strings of a harmonic bistring whose
pointwise modulus is constant.  One builder, ``level_record``, pairs a
level's carrier, its Weil side, with its compactified reduced and
orthogonal cuspidal parts, and labels it with the reduced part's level; the
pipeline calls it per level, and ``lgc`` (no split) and ``lggc_st`` (split
and project first) each return its one record for a bisemisheaf.

Records hold index rows, not objects: a semimodule is a side, a carrier of
classes and one amplitude per class, and a record keeps its Weil carrier
and each part's right semimodule.  A left semimodule holds its right one's
rows with sign +1, and ``Mode``s and ``WeilDescriptor``s are views built
when read, so a run builds no mirror sheaf, mode or descriptor.
"""

from __future__ import annotations

import cmath
from typing import Callable, Sequence

from .sheaves import Bisemisheaf, Semisheaf, emergent_project, endo_split
from .tower import LEFT, Carrier, ClassIndex, Record

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
        super().__init__(mu, m, amplitude, sign)


class EllipticSemimodule(Record):
    """A one-sided sum of semicircle phasor modes: one amplitude per class
    of ``carrier``, with the side's sign; ``modes`` builds ``Mode`` views
    when read."""

    __slots__ = ("side", "carrier", "amplitudes")

    @property
    def modes(self) -> tuple[Mode, ...]:
        sign = 1 if self.side == LEFT else -1
        return tuple(Mode(mu, m, a, sign) for (mu, m), a in zip(self.carrier, self.amplitudes))

    def evaluate(self, x: float) -> complex:
        sign = 1 if self.side == LEFT else -1
        return sum(
            (
                amplitude * cmath.exp(1j * sign * cmath.pi * mu * x)
                for (mu, _), amplitude in zip(self.carrier, self.amplitudes)
            ),
            complex(0),
        )


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
    carrier = s.carrier
    if even_only:
        carrier = carrier.restrict([idx.mu % 2 == 0 for idx in carrier])
    amplitudes = tuple(map(float, map(amplitude_rule or unit_amplitude, carrier)))
    for idx, amplitude in zip(carrier, amplitudes):
        if amplitude < 0:
            raise ValueError(f"amplitude rule is negative at class {idx}")
    if not carrier:
        raise ValueError("the even-class convention removed every section")
    return EllipticSemimodule(s.side, carrier, amplitudes)


def bistring_modulus(right_mode, left_mode, samples: Sequence[float]) -> list[float]:
    """Pointwise modulus of a matched bistring product.

    The right string rotates with sign -1 and the left with +1 at the same
    class, so the product's modulus is the constant ``r_R * r_L``.  A string
    is a ``Mode``, or any record with its ``mu``, ``amplitude`` and ``sign``.
    """
    if right_mode.sign != -1 or left_mode.sign != 1:
        raise ValueError("a bistring pairs a right (-1) mode with a left (+1) mode")
    if right_mode.mu != left_mode.mu:
        raise ValueError("matched bistring modes must share their class mu")
    exp, r_r, r_l = cmath.exp, right_mode.amplitude, left_mode.amplitude
    # a phase ``sign * 1j * pi * mu * x`` multiplies left to right, so its
    # first factors hoist out of the loop with every bit kept
    w_r, w_l = -1j * cmath.pi * right_mode.mu, 1j * cmath.pi * left_mode.mu
    return [abs(r_r * exp(w_r * x) * (r_l * exp(w_l * x))) for x in samples]


class WeilDescriptor(Record):
    """One Weil-side class: an index with its completion degree."""

    __slots__ = ("mu", "m", "degree")


class LevelRecord(Record):
    """A level's Weil side and cuspidal side as index rows.

    ``weil`` is the carrier of the Weil side's classes; ``parts`` holds
    the compactified right semimodule of the reduced part and, if there is
    one, of the orthogonal part.  The Weil descriptors, with their degrees
    ``offset + mu * N`` in the carrier's tower, and the (right, left) pairs
    of each part are views built when read: a left semimodule holds its
    right one's classes and amplitudes with sign +1.
    """

    __slots__ = ("label", "weil", "parts")

    @property
    def weil_side(self) -> tuple[WeilDescriptor, ...]:
        return tuple(WeilDescriptor(mu, m, self.weil.tower.real_degree(mu)) for mu, m in self.weil)

    @property
    def reduced(self) -> tuple[EllipticSemimodule, EllipticSemimodule]:
        return _mirrored(self.parts[0])

    @property
    def orthogonal(self) -> tuple[EllipticSemimodule, EllipticSemimodule] | None:
        return _mirrored(self.parts[1]) if len(self.parts) > 1 else None

    def mode_pair_count(self) -> int:
        return sum(len(part.carrier) for part in self.parts)

    def bijection_holds(self) -> bool:
        """The Weil classes are the classes of the cuspidal mode pairs, each
        once; the parts' sorted carriers merge in one linear sort."""
        return tuple(sorted(idx for part in self.parts for idx in part.carrier)) == self.weil


def _mirrored(right: EllipticSemimodule) -> tuple[EllipticSemimodule, EllipticSemimodule]:
    return right, EllipticSemimodule(LEFT, right.carrier, right.amplitudes)


def level_record(
    weil: Carrier,
    reduced: Bisemisheaf,
    orthogonal: Bisemisheaf | None,
    amplitude_rule: AmplitudeRule | None = None,
    even_only: bool = False,
) -> LevelRecord:
    """Compactify a level's reduced and orthogonal parts into one record.

    The record takes the reduced part's level as its label and the level's
    carrier ``weil`` as its Weil side; ``even_only`` drops the odd classes
    there as it does from the modes.  Each part's right semisheaf is
    compactified once; ``Bisemisheaf.left`` is never read.
    """
    parts = (reduced,) if orthogonal is None else (reduced, orthogonal)
    if even_only:
        weil = weil.restrict([idx.mu % 2 == 0 for idx in weil])
    semimodules = tuple(compactify(part.right, amplitude_rule, even_only) for part in parts)
    return LevelRecord(reduced.right.level, weil, semimodules)


def lgc(b: Bisemisheaf) -> LevelRecord:
    """One-level correspondence: the whole bisemisheaf compactified.

    The Weil side lists every class descriptor; the cuspidal side is the
    (right, left) semimodule pair, in bijection with it.
    """
    return level_record(b.right.carrier, b, None)


def lggc_st(b: Bisemisheaf, reduce: Callable[[ClassIndex], bool]) -> LevelRecord:
    """Two-part correspondence: split first, then compactify each route.

    The endomorphism split of the right semisheaf keeps the reduced part in
    place and projects the complementary part to the orthogonal complement;
    each part is paired with its left mirror and compactified.  Splitting and
    compactifying commute on mode indices, so the union of the two parts'
    modes equals the plain compactification's.
    """
    reduced, complementary = endo_split(b.right, bytes(map(reduce, b.right.carrier)))
    space = emergent_project(complementary)
    orthogonal = Bisemisheaf(space) if space.carrier else None
    return level_record(b.right.carrier, Bisemisheaf(reduced), orthogonal)
