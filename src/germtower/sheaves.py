"""Germ-valued semisheaves over a tower and the morphisms acting on them.

A semisheaf holds one section per selected class index of a tower; a section
is a polynomial germ plus dimensional bookkeeping.  The morphisms here are
the workhorses of the whole engine: tensor pairing, endomorphism splits,
emergent orthogonal projection, the differential shift, biquantum moves and
singularity injection.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

from .bisemigroup import LEVELS, ST
from .germs import CATALOGUE, Germ, SingularityClass, normal_form
from .tower import LEFT, RIGHT, SIDES, ClassIndex, Tower

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


@dataclass(frozen=True)
class Section:
    """One germ attached at a class index."""

    index: ClassIndex
    side: str
    germ: Germ
    dims: int
    orth_axis: str | None = None

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"section side must be left or right, got {self.side!r}")
        if self.dims not in (1, 2):
            raise ValueError("sections are 1- or 2-dimensional")
        if self.dims != self.germ.nvars:
            raise ValueError(
                f"section dims {self.dims} does not match germ in {self.germ.nvars} variable(s)"
            )


@dataclass(frozen=True)
class Semisheaf:
    side: str
    level: str
    nature: str
    tower: Tower
    sections: tuple[Section, ...]
    role: str | None = None
    singular: bool = False

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
        object.__setattr__(self, "sections", ordered)
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

    def map_germs(self, fn: Callable[[Section], Germ]) -> "Semisheaf":
        sections = tuple(
            Section(sec.index, sec.side, fn(sec), sec.dims, sec.orth_axis)
            for sec in self.sections
        )
        return replace(self, sections=sections)


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


@dataclass(frozen=True)
class Bisemisheaf:
    """A (right, left) semisheaf pair over the same index set."""

    right: Semisheaf
    left: Semisheaf

    def __post_init__(self):
        if self.right.side != RIGHT or self.left.side != LEFT:
            raise ValueError("tensor takes a right semisheaf and a left semisheaf")
        if self.right.indices() != self.left.indices():
            raise ValueError("paired semisheaves must share their class indices")
        if (self.right.level, self.right.nature) != (self.left.level, self.left.nature):
            raise ValueError("paired semisheaves must share level and nature")

    def __len__(self) -> int:
        return len(self.right)

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
    return Bisemisheaf(right, left)


class BasisPair(NamedTuple):
    """A chosen (right basis vector, left basis vector) pair at one bisection."""

    index: ClassIndex
    alpha: int
    beta: int


@dataclass(frozen=True)
class SplitResult:
    diagonal: tuple[BasisPair, ...]
    off_diagonal: tuple[BasisPair, ...]


def split_diag_offdiag(b: Bisemisheaf) -> SplitResult:
    """Split every bisection's 2x2 basis grid into diagonal and mixed pairs."""
    diagonal = tuple(
        BasisPair(idx, a, a) for idx in b.indices() for a in (1, 2)
    )
    off_diagonal = tuple(
        BasisPair(idx, a, c) for idx in b.indices() for a, c in ((1, 2), (2, 1))
    )
    return SplitResult(diagonal, off_diagonal)


def default_reduce(depth: int) -> Callable[[ClassIndex], bool]:
    """Module-default reduction predicate: keep classes with mu <= ceil(depth/2)."""
    cut = math.ceil(depth / 2)
    return lambda idx: idx.mu <= cut


def endo_split(
    s: Semisheaf, reduce: Callable[[ClassIndex], bool] | None = None
) -> tuple[Semisheaf, Semisheaf]:
    """Endomorphism split into the reduced part and its complementary part.

    Every section lands in exactly one output; all other tags are preserved.
    """
    pred = reduce if reduce is not None else default_reduce(s.tower.depth)
    kept, rest = [], []
    for sec in s.sections:
        (kept if pred(sec.index) else rest).append(sec)
    reduced = replace(s, sections=tuple(kept), role=REDUCED)
    complementary = replace(s, sections=tuple(rest), role=COMPLEMENTARY)
    return reduced, complementary


def emergent_project(complementary: Semisheaf, target_dims: int = 3) -> Semisheaf:
    """Project a complementary part onto the orthogonal complement.

    The projection flips the nature (time <-> space, shifted or not) and tags
    every section with the target axis label.  The dimensionality of the
    complement (2 or 3) is the caller's choice.
    """
    if complementary.role != COMPLEMENTARY:
        raise ValueError("only a complementary split part can be projected")
    if target_dims not in (2, 3):
        raise ValueError("the orthogonal complement is 2- or 3-dimensional")
    nature = _FLIPPED[complementary.nature]
    axis = "t" if nature in (TIME, TIME_SHIFTED) else f"r{target_dims}"
    sections = tuple(
        replace(sec, orth_axis=axis) for sec in complementary.sections
    )
    return replace(
        complementary, nature=nature, role=ORTHOGONAL, sections=sections
    )


def shift(s: Semisheaf) -> Semisheaf:
    """Apply the elliptic differential bioperator: one formal derivative.

    Germs are differentiated in their first variable and the nature picks up
    its shifted tag.  Shifting twice is rejected.
    """
    if s.nature not in _SHIFTED:
        raise ValueError(f"semisheaf of nature {s.nature!r} is already shifted")
    shifted = s.map_germs(lambda sec: sec.germ.derivative(0))
    return replace(shifted, nature=_SHIFTED[s.nature])


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

    def move(side: Semisheaf) -> Semisheaf:
        sections = tuple(
            replace(sec, index=target) if sec.index == at else sec
            for sec in side.sections
        )
        return replace(side, sections=sections)

    return Bisemisheaf(move(b.right), move(b.left))


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
    out = s.map_germs(lambda sec: germ)
    return replace(out, singular=True)
