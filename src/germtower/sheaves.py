"""Germ-valued semisheaves over a tower and the morphisms acting on them.

A semisheaf holds a carrier of class indices and one polynomial germ per
class; only this module knows that layout.  The carrier is a
``tower.Carrier``, checked once against its tower: one derived by
restriction or truncation holds by construction, and only a carrier made
from raw sections or indices is checked class by class.  The morphisms
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
from typing import Callable

from .bisemigroup import LEVELS
from .germs import CATALOGUE, Germ, SingularityClass, normal_form
from .tower import LEFT, RIGHT, SIDES, Carrier, ClassIndex, Record, Tower, _set

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

REDUCED = "reduced"
COMPLEMENTARY = "complementary"
ORTHOGONAL = "orthogonal"
ROLES = (None, REDUCED, COMPLEMENTARY, ORTHOGONAL)


class Section(Record):
    """One germ attached at a class index: the view of one class of a
    semisheaf, built at the API edge."""

    __slots__ = ("index", "side", "germ", "dims")

    def __init__(self, index: ClassIndex, side: str, germ: Germ, dims: int):
        if side not in SIDES:
            raise ValueError(f"section side must be left or right, got {side!r}")
        if dims not in (1, 2):
            raise ValueError("sections are 1- or 2-dimensional")
        if dims != germ.nvars:
            raise ValueError(
                f"section dims {dims} does not match germ in {germ.nvars} variable(s)"
            )
        _set(self, "index", index)
        _set(self, "side", side)
        _set(self, "germ", germ)
        _set(self, "dims", dims)


class Semisheaf(Record):
    """One germ per class of a ``Carrier``, with side, level, nature and
    role tags; ``sections`` builds ``Section`` views when read.

    ``__init__`` takes sections, ``over`` and ``replace`` a carrier and
    germs.  Each build ends in ``__post_init__``, which checks the tags and
    that the carrier is a ``Carrier`` of the sheaf's tower.  Any other
    carrier, such as one made from sections, is checked class by class and
    stored as a ``Carrier``; one derived from a checked carrier is not
    checked again.  The benchmark's tracer counts sheaf builds by wrapping
    ``__post_init__``.
    """

    __slots__ = ("side", "level", "nature", "tower", "carrier", "germs", "role", "singular")

    def __init__(
        self,
        side: str,
        level: str,
        nature: str,
        tower: Tower,
        sections: tuple[Section, ...],
        role: str | None = None,
        singular: bool = False,
    ):
        ordered = sorted(sections, key=lambda sec: sec.index)
        if any(sec.side != side for sec in ordered):
            raise ValueError("section side disagrees with the semisheaf side")
        carrier = tuple(sec.index for sec in ordered)
        germs = tuple(sec.germ for sec in ordered)
        self._fill(side, level, nature, tower, carrier, germs, role, singular)

    @classmethod
    def over(cls, side, level, nature, tower, carrier, germs, role=None, singular=False):
        """``Semisheaf(...)`` with a sorted ``carrier`` of class indices and
        one germ per class of it in ``germs`` in place of the sections."""
        s = object.__new__(cls)
        s._fill(side, level, nature, tower, carrier, germs, role, singular)
        return s

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"bad side {self.side!r}")
        if self.level not in LEVELS:
            raise ValueError(f"bad level {self.level!r}")
        if self.nature not in NATURES:
            raise ValueError(f"bad nature {self.nature!r}")
        if self.role not in ROLES:
            raise ValueError(f"bad role {self.role!r}")
        carrier = self.carrier
        if len(self.germs) != len(carrier):
            raise ValueError("a semisheaf holds one germ per carrier class")
        if not (isinstance(carrier, Carrier) and carrier.tower == self.tower):
            _set(self, "carrier", Carrier(carrier, self.tower))

    def __reduce__(self):
        # __init__ takes sections, so copy and pickle rebuild through ``over``
        return type(self).over, self._values()

    def replace(self, **changes) -> "Semisheaf":
        """A copy with some fields changed, checked like a new semisheaf."""
        return self.over(**dict(zip(self.__slots__, self._values()), **changes))

    def __len__(self) -> int:
        return len(self.carrier)

    @property
    def sections(self) -> tuple[Section, ...]:
        return tuple(map(self.section_at, self.carrier))

    def section_at(self, index: ClassIndex) -> Section:
        pos = bisect.bisect_left(self.carrier, index)
        if pos == len(self.carrier) or self.carrier[pos] != index:
            raise KeyError(index)
        germ = self.germs[pos]
        return Section(self.carrier[pos], self.side, germ, germ.nvars)

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

    def restrict(self, keep: Callable[[ClassIndex], bool], **tags) -> "Semisheaf":
        """A copy over the classes where ``keep`` holds, with ``tags`` changed."""
        mask = [bool(keep(idx)) for idx in self.carrier]
        carrier = self.carrier.restrict(mask)
        return self.replace(carrier=carrier, germs=tuple(compress(self.germs, mask)), **tags)


def attach_sections(
    tower: Tower,
    side: str,
    level: str,
    nature: str,
    germ_template: Callable[[ClassIndex], Germ],
) -> Semisheaf:
    """One germ per class representative: ``germ_template`` of its index."""
    carrier = tower.class_indices()
    germs = []
    for idx in carrier:
        germ = germ_template(idx)
        if not isinstance(germ, Germ):
            raise ValueError(f"template produced {type(germ).__name__}, expected a Germ")
        germs.append(germ)
    return Semisheaf.over(side, level, nature, tower, carrier, tuple(germs))


class Bisemisheaf(Record):
    """A right semisheaf paired with its left mirror.

    Only the right side is stored; ``left`` is built and checked when it is
    read and holds the same carrier, germs, level and nature with side LEFT,
    so anything that reads only ``right`` sees the whole pair.  ``tensor``
    reads it; the pipeline does not.
    """

    __slots__ = ("right",)

    def __init__(self, right: Semisheaf):
        if right.side != RIGHT:
            raise ValueError("a bisemisheaf is built from a right semisheaf")
        _set(self, "right", right)

    def __len__(self) -> int:
        return len(self.right)

    @property
    def left(self) -> Semisheaf:
        return self.right.replace(side=LEFT)

    @property
    def level(self) -> str:
        return self.right.level

    @property
    def nature(self) -> str:
        return self.right.nature

    @property
    def tower(self) -> Tower:
        return self.right.tower

    def indices(self) -> tuple[ClassIndex, ...]:
        return self.right.carrier


def tensor(right: Semisheaf, left: Semisheaf) -> Bisemisheaf:
    """Pair a right semisheaf with a left one that must be its mirror."""
    pair = Bisemisheaf(right)
    if left != pair.left:
        raise ValueError(
            "tensor takes a right semisheaf and the left semisheaf with the same "
            "sections, tower and tags"
        )
    return pair


def endo_split(
    s: Semisheaf, reduce: Callable[[ClassIndex], bool]
) -> tuple[Semisheaf, Semisheaf]:
    """Endomorphism split into the reduced part and its complementary part.

    Every class lands in exactly one output; all other tags are preserved.
    """
    reduced = s.restrict(reduce, role=REDUCED)
    complementary = s.restrict(lambda idx: not reduce(idx), role=COMPLEMENTARY)
    return reduced, complementary


def emergent_project(complementary: Semisheaf) -> Semisheaf:
    """Project a complementary part onto the orthogonal complement.

    The projection keeps the sections and flips the nature (time <-> space,
    shifted or not).
    """
    if complementary.role != COMPLEMENTARY:
        raise ValueError("only a complementary split part can be projected")
    return complementary.replace(nature=_FLIPPED[complementary.nature], role=ORTHOGONAL)


def shift(s: Semisheaf) -> Semisheaf:
    """Apply the elliptic differential bioperator: one formal derivative.

    Germs are differentiated in their first variable and the nature picks up
    its shifted tag.  Shifting twice is rejected.
    """
    if s.nature not in _SHIFTED:
        raise ValueError(f"semisheaf of nature {s.nature!r} is already shifted")
    return s.map_germs(lambda germ: germ.derivative(0), nature=_SHIFTED[s.nature])


def _move_bisection(b: Bisemisheaf, at: ClassIndex, delta: int) -> Bisemisheaf:
    at = ClassIndex(*at)
    if at not in b.indices():
        raise ValueError(f"no bisection at class {at}")
    target = ClassIndex(at.mu + delta, at.m)
    tower = b.tower
    if target.mu > tower.depth:
        raise ValueError(f"cannot create a biquantum beyond tower depth {tower.depth}")
    if target.mu < 1:
        raise ValueError("cannot annihilate a biquantum at the ground class mu=1")
    if not tower.contains(target):
        raise ValueError(f"target class {target} outside the tower rectangle")
    if target in b.indices():
        raise ValueError(f"target class {target} already carries a bisection")

    right = b.right
    moved = (target if idx == at else idx for idx in right.carrier)
    carrier, germs = zip(*sorted(zip(moved, right.germs), key=lambda pair: pair[0]))
    return Bisemisheaf(right.replace(carrier=carrier, germs=germs))


def create_biquantum(b: Bisemisheaf, at: ClassIndex) -> Bisemisheaf:
    """Re-index the bisection at ``at`` one class up; degree rises by N per string."""
    return _move_bisection(b, at, +1)


def annihilate_biquantum(b: Bisemisheaf, at: ClassIndex) -> Bisemisheaf:
    """Re-index the bisection at ``at`` one class down; degree drops by N per string."""
    return _move_bisection(b, at, -1)


def inject_singularity(s: Semisheaf, c: SingularityClass | str) -> Semisheaf:
    """Replace every germ by the catalogue normal form and mark the sheaf starred.

    Corank-1 forms need 1-dimensional sections, umbilics need 2-dimensional
    ones; ``map_germs`` rejects a mismatch rather than embedding it.
    """
    cls = CATALOGUE.get(c if isinstance(c, str) else c.name)
    if cls is None:
        raise ValueError("only catalogue classes can be injected")
    germ = normal_form(cls.name)
    return s.map_germs(lambda _: germ, singular=True)
