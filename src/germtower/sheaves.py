"""Germ-valued semisheaves over a tower and the morphisms acting on them.

A semisheaf holds one section per selected class index of a tower; a section
is a polynomial germ plus dimensional bookkeeping.  The morphisms here are
the workhorses of the whole engine: endomorphism splits, emergent orthogonal
projection, the differential shift, biquantum moves and singularity
injection.

A bisemisheaf stores a right semisheaf and derives its left mirror, which
holds the same sections; only compactification (the mode sign) tells the
sides apart, so the cascade runs on the right semisheaf alone.
"""

from __future__ import annotations

import bisect
from typing import Callable, Mapping

from .bisemigroup import LEVELS
from .germs import CATALOGUE, Germ, SingularityClass, normal_form
from .tower import LEFT, RIGHT, SIDES, ClassIndex, Record, Tower, _set

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
    """One germ attached at a class index."""

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
    """Sections over a tower with their side, level, nature and role tags.

    ``__init__`` sets the fields and calls ``__post_init__``, which checks
    the tags and sorts the sections by index.  The benchmark's tracer counts
    sheaf builds by wrapping ``__post_init__``.
    """

    __slots__ = ("side", "level", "nature", "tower", "sections", "role", "singular")

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
        _set(self, "side", side)
        _set(self, "level", level)
        _set(self, "nature", nature)
        _set(self, "tower", tower)
        _set(self, "sections", sections)
        _set(self, "role", role)
        _set(self, "singular", singular)
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
        ordered = tuple(sorted(self.sections, key=lambda s: s.index))
        _set(self, "sections", ordered)
        seen = set()
        for sec in ordered:
            if sec.side != self.side:
                raise ValueError("section side disagrees with the semisheaf side")
            if sec.index in seen:
                raise ValueError(f"duplicate section at {sec.index}")
            seen.add(sec.index)
            if not self.tower.contains(sec.index):
                raise ValueError(f"section index {sec.index} outside the tower rectangle")

    def __len__(self) -> int:
        return len(self.sections)

    def indices(self) -> tuple[ClassIndex, ...]:
        return tuple(sec.index for sec in self.sections)

    def section_at(self, index: ClassIndex) -> Section:
        # __post_init__ keeps the sections sorted by index.
        pos = bisect.bisect_left(self.sections, index, key=lambda sec: sec.index)
        if pos < len(self.sections) and self.sections[pos].index == index:
            return self.sections[pos]
        raise KeyError(index)

    def map_germs(self, fn: Callable[[Germ], Germ], **tags) -> "Semisheaf":
        """A copy with each germ replaced by ``fn(germ)`` and ``tags`` changed.

        ``fn`` runs once per distinct germ object, so a sheaf that holds one
        germ at every index does the germ's work once.  Results are keyed by
        object, never by value: equal germs may differ in ``max_degree``,
        which their images carry.
        """
        images: dict[int, Germ] = {}
        sections = []
        for sec in self.sections:
            image = images.get(id(sec.germ))
            if image is None:
                image = images[id(sec.germ)] = fn(sec.germ)
            sections.append(Section(sec.index, sec.side, image, sec.dims))
        return self.replace(sections=tuple(sections), **tags)


def attach_sections(
    tower: Tower,
    side: str,
    level: str,
    nature: str,
    germ_template: Callable[[ClassIndex], Germ] | Mapping[ClassIndex, Germ],
) -> Semisheaf:
    """One section per class representative, germs drawn from the template.

    The template is either a callable on class indices or a mapping; a
    mapping missing any representative is rejected.
    """
    sections = []
    for idx in tower.class_indices():
        if isinstance(germ_template, Mapping):
            if idx not in germ_template:
                raise ValueError(f"germ template has no entry for class {idx}")
            germ = germ_template[idx]
        else:
            germ = germ_template(idx)
        if not isinstance(germ, Germ):
            raise ValueError(f"template produced {type(germ).__name__}, expected a Germ")
        sections.append(Section(idx, side, germ, germ.nvars))
    return Semisheaf(side, level, nature, tower, tuple(sections))


class Bisemisheaf(Record):
    """A right semisheaf paired with its left mirror.

    Only the right side is stored; ``left`` is built when it is read and
    holds the same sections, level and nature with side LEFT, so anything
    that reads only ``right`` sees the whole pair.
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
        sections = tuple(
            Section(sec.index, LEFT, sec.germ, sec.dims) for sec in self.right.sections
        )
        return self.right.replace(side=LEFT, sections=sections)

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
        return self.right.indices()


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

    Every section lands in exactly one output; all other tags are preserved.
    """
    kept, rest = [], []
    for sec in s.sections:
        (kept if reduce(sec.index) else rest).append(sec)
    reduced = s.replace(sections=tuple(kept), role=REDUCED)
    complementary = s.replace(sections=tuple(rest), role=COMPLEMENTARY)
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

    sections = tuple(
        sec.replace(index=target) if sec.index == at else sec for sec in b.right.sections
    )
    return Bisemisheaf(b.right.replace(sections=sections))


def create_biquantum(b: Bisemisheaf, at: ClassIndex) -> Bisemisheaf:
    """Re-index the bisection at ``at`` one class up; degree rises by N per string."""
    return _move_bisection(b, at, +1)


def annihilate_biquantum(b: Bisemisheaf, at: ClassIndex) -> Bisemisheaf:
    """Re-index the bisection at ``at`` one class down; degree drops by N per string."""
    return _move_bisection(b, at, -1)


def inject_singularity(s: Semisheaf, c: SingularityClass | str) -> Semisheaf:
    """Replace every germ by the catalogue normal form and mark the sheaf starred.

    Corank-1 forms need 1-dimensional sections, umbilics need 2-dimensional
    ones; a mismatch is rejected rather than embedded.
    """
    cls = CATALOGUE.get(c if isinstance(c, str) else c.name)
    if cls is None:
        raise ValueError("only catalogue classes can be injected")
    germ = normal_form(cls.name)
    for sec in s.sections:
        if sec.dims != germ.nvars:
            raise ValueError(
                f"{cls.name} lives in {germ.nvars} variable(s) but section {sec.index} is {sec.dims}-dimensional"
            )
    return s.map_germs(lambda _: germ, singular=True)
