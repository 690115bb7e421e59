"""Germ-valued semisheaves over a tower and the morphisms acting on them.

A semisheaf holds a carrier of class indices and one polynomial germ per
class; only this module knows that layout, and a ``Section`` (index,
side, germ) is the view of one class, built when read.  The carrier is a
``tower.Carrier``, which names the sheaf's tower and was checked against
it once, when ``Carrier(indices, tower)`` built it; one derived by
restriction or truncation holds by construction.  The morphisms
here, tuple work on the carrier and the germs, are the workhorses of the
whole engine: endomorphism splits, emergent orthogonal projection, the
differential shift, biquantum moves and singularity injection.

A bisemisheaf stores a right semisheaf and derives its left mirror, which
holds the same carrier and germs; only compactification (the mode sign)
tells the sides apart, so the cascade and its compactification run on the
right semisheaf alone, and a run builds no mirror sheaf.
"""

from __future__ import annotations

import bisect
from itertools import compress
from typing import Callable, Sequence

from .bisemigroup import LEVELS
from .germs import Germ, normal_form
from .tower import LEFT, RIGHT, SIDES, Carrier, ClassIndex, Record, Tower

# Nature tags: plain time/space fields and their shifted (primed) versions.
TIME = "T"
SPACE = "S"
TIME_SHIFTED = "Tp"
SPACE_SHIFTED = "Sp"
NATURES = (TIME, SPACE, TIME_SHIFTED, SPACE_SHIFTED)

_SHIFTED = {TIME: TIME_SHIFTED, SPACE: SPACE_SHIFTED}
_FLIPPED = {
    TIME: SPACE,
    SPACE: TIME,
    TIME_SHIFTED: SPACE_SHIFTED,
    SPACE_SHIFTED: TIME_SHIFTED,
}


class Section(Record):
    """One germ attached at a class index: the view of one class of a
    semisheaf, built at the API edge."""

    __slots__ = ("index", "side", "germ")

    def __init__(self, index: ClassIndex, side: str, germ: Germ):
        if side not in SIDES:
            raise ValueError(f"section side must be left or right, got {side!r}")
        super().__init__(index, side, germ)


class Semisheaf(Record):
    """One germ per class of a ``Carrier``, with side, level and nature
    tags; ``sections`` builds ``Section`` views when read.  Which part of a
    split a sheaf is (reduced or orthogonal) is its place, not a tag.

    ``Semisheaf(side, level, nature, carrier, germs)`` is the one
    constructor; ``replace`` builds through it.  The tower is the
    carrier's, and sheaves over equal classes of different towers differ.
    Each build ends in ``__post_init__``, which checks the tags, the
    carrier's type and one germ per class; the benchmark's tracer counts
    sheaf builds by wrapping it.
    """

    __slots__ = ("side", "level", "nature", "carrier", "germs")

    def __init__(self, side: str, level: str, nature: str, carrier: Carrier, germs: tuple):
        super().__init__(side, level, nature, carrier, germs)
        self.__post_init__()

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"bad side {self.side!r}")
        if self.level not in LEVELS:
            raise ValueError(f"bad level {self.level!r}")
        if self.nature not in NATURES:
            raise ValueError(f"bad nature {self.nature!r}")
        if not isinstance(self.carrier, Carrier):
            raise TypeError("a semisheaf's carrier is a tower.Carrier")
        if len(self.germs) != len(self.carrier):
            raise ValueError("a semisheaf holds one germ per carrier class")

    @property
    def tower(self) -> Tower:
        return self.carrier.tower

    def _values(self) -> tuple:
        # a Carrier compares as a plain tuple, so its tower joins the fields
        return (*super()._values(), self.tower)

    def replace(self, **changes) -> "Semisheaf":
        """A copy with some fields changed, checked like a new semisheaf."""
        return type(self)(**dict(zip(self.__slots__, super()._values()), **changes))

    def __len__(self) -> int:
        return len(self.carrier)

    @property
    def sections(self) -> tuple[Section, ...]:
        return tuple(map(self.section_at, self.carrier))

    def section_at(self, index: ClassIndex) -> Section:
        pos = bisect.bisect_left(self.carrier, index)
        if pos == len(self.carrier) or self.carrier[pos] != index:
            raise KeyError(index)
        return Section(self.carrier[pos], self.side, self.germs[pos])

    def map_germs(self, fn: Callable[[Germ], Germ], **tags) -> "Semisheaf":
        """A copy with each germ replaced by ``fn(germ)`` and ``tags`` changed.

        ``fn`` runs once per distinct germ object, so a sheaf that holds one
        germ at every index does the germ's work once.  Results are keyed by
        object, not by value: keying by value would hash each class's germ.
        """
        images: dict[int, Germ] = {}
        for germ in self.germs:
            if id(germ) not in images:
                image = images[id(germ)] = fn(germ)
                if image.nvars != germ.nvars:
                    raise ValueError("a germ map must keep each germ's variable count")
        return self.replace(germs=tuple(images[id(germ)] for germ in self.germs), **tags)

    def restrict(self, mask: Sequence, **tags) -> "Semisheaf":
        """A copy over the classes whose ``mask`` entry is true, with ``tags`` changed."""
        carrier = self.carrier.restrict(mask)
        return self.replace(carrier=carrier, germs=tuple(compress(self.germs, mask)), **tags)


def attach_sections(
    classes: Carrier,
    side: str,
    level: str,
    nature: str,
    germ_template: Callable[[ClassIndex], Germ],
) -> Semisheaf:
    """One germ per class of the carrier ``classes``: ``germ_template`` of its index."""
    germs = tuple(map(germ_template, classes))
    return Semisheaf(side, level, nature, classes, germs)


class Bisemisheaf(Record):
    """A right semisheaf paired with its left mirror.

    Only the right side is stored; ``left`` is built and checked when it is
    read and holds the same carrier, germs, level and nature with side LEFT,
    so anything that reads only ``right`` sees the whole pair, and callers
    read its tags and classes there.  ``tensor`` reads ``left``; the
    pipeline does not.
    """

    __slots__ = ("right",)

    def __init__(self, right: Semisheaf):
        if right.side != RIGHT:
            raise ValueError("a bisemisheaf is built from a right semisheaf")
        super().__init__(right)

    @property
    def left(self) -> Semisheaf:
        return self.right.replace(side=LEFT)


def tensor(right: Semisheaf, left: Semisheaf) -> Bisemisheaf:
    """Pair a right semisheaf with a left one that must be its mirror."""
    pair = Bisemisheaf(right)
    if left != pair.left:
        raise ValueError(
            "tensor takes a right semisheaf and the left semisheaf with the same "
            "sections, tower and tags"
        )
    return pair


def endo_split(s: Semisheaf, mask: Sequence) -> tuple[Semisheaf, Semisheaf]:
    """Endomorphism split into the reduced part, the classes whose ``mask``
    entry is true, and its complementary part, in that order.

    Every class lands in exactly one output; every tag is preserved.
    """
    return s.restrict(mask), s.restrict([not keep for keep in mask])


def emergent_project(s: Semisheaf) -> Semisheaf:
    """Project a semisheaf, the complementary part of a split, onto the
    orthogonal complement.

    The projection keeps the sections and flips the nature (time <-> space,
    shifted or not).
    """
    return s.replace(nature=_FLIPPED[s.nature])


def shift(s: Semisheaf) -> Semisheaf:
    """Apply the elliptic differential bioperator: one formal derivative.

    Germs are differentiated in their first variable and the nature picks up
    its shifted tag.  Shifting twice is rejected.
    """
    if s.nature not in _SHIFTED:
        raise ValueError(f"semisheaf of nature {s.nature!r} is already shifted")
    return s.map_germs(lambda germ: germ.derivative(), nature=_SHIFTED[s.nature])


def _move_bisection(b: Bisemisheaf, at: ClassIndex, delta: int) -> Bisemisheaf:
    at, right = ClassIndex(*at), b.right
    if at not in right.carrier:
        raise ValueError(f"no bisection at class {at}")
    target = ClassIndex(at.mu + delta, at.m)
    # the moved carrier is checked: distinct and inside the tower
    moved = (target if idx == at else idx for idx in right.carrier)
    carrier, germs = zip(*sorted(zip(moved, right.germs), key=lambda pair: pair[0]))
    return Bisemisheaf(right.replace(carrier=Carrier(carrier, right.tower), germs=germs))


def create_biquantum(b: Bisemisheaf, at: ClassIndex) -> Bisemisheaf:
    """Re-index the bisection at ``at`` one class up; degree rises by N per string."""
    return _move_bisection(b, at, +1)


def annihilate_biquantum(b: Bisemisheaf, at: ClassIndex) -> Bisemisheaf:
    """Re-index the bisection at ``at`` one class down; degree drops by N per string."""
    return _move_bisection(b, at, -1)


def inject_singularity(s: Semisheaf, name: str) -> Semisheaf:
    """Replace every germ by the normal form of the catalogue class ``name``.

    It places both cascade seeds: the scenario's form on the ST space part
    and ``Fold`` on the MG covering at M.  Corank-1 forms need
    1-dimensional sections, umbilics 2-dimensional ones; ``map_germs``
    rejects a mismatch rather than embedding it.
    """
    germ = normal_form(name)
    return s.map_germs(lambda _: germ)
