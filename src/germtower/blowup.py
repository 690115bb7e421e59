"""Versal deformation, blowup coverings, and the embedded level cascade.

A semisheaf of one catalogue class is deformed into a contracting bundle whose
fiber holds one monomial germ per unfolding slot, constant over the base.
Blowing the bundle up detaches those monomials whole (the maximal blowup)
and glues their sum into a covering sheaf.  A swallowtail covering still
carries the cubic monomial, so it is detected as a fold and deformed again,
producing a second covering: the three-level cascade.  Levels embed inner to
outer as ST then MG then M.

Which classes each level holds follows from the config alone:
``plan_levels`` works them out before the run, and ``generate_levels``
builds the sheaves along that plan.  The cascade runs on the right
semisheaf of the base only; every level's bisemisheaves are built from its
right parts, which carry the left mirrors.
"""

from __future__ import annotations

import bisect
from typing import Callable, NamedTuple

from .bisemigroup import LEVELS, M, MG, ST
from .germs import (
    CATALOGUE,
    FOLD,
    Germ,
    SingularityClass,
    classify_germ,
    format_germ,
    versal_unfold,
)
from .sheaves import (
    SPACE_SHIFTED,
    TIME_SHIFTED,
    Bisemisheaf,
    Semisheaf,
    emergent_project,
    endo_split,
    inject_singularity,
)
from .tower import ClassIndex, Tower


class DeformedBundle(NamedTuple):
    """A base of one catalogue class with its versal fiber of monomial germs.

    ``fiber`` holds the (slot name, monomial germ) pairs of the base class's
    unfolding, one per slot, so its length equals the codimension; each
    monomial is constant over the base.
    """

    base: Semisheaf
    fiber: tuple[tuple[str, Germ], ...]


def deform(base: Semisheaf) -> DeformedBundle:
    """Versally deform a semisheaf along its classified germ.

    Every class must carry a germ of one catalogue class; each distinct
    germ object is classified once, and no germ is hashed.
    """
    distinct = {id(germ): germ for germ in base.germs}.values()
    classes = {classify_germ(germ) for germ in distinct}
    if len(classes) != 1:
        raise ValueError("deform needs germs of one catalogue class, found " + str(len(classes)))
    return DeformedBundle(base, versal_unfold(classes.pop()).parameters)


class BlowupResult(NamedTuple):
    covering: Semisheaf
    fraction: float


def blow_up(bundle: DeformedBundle) -> BlowupResult:
    """Detach the fiber monomials and glue them into a covering sheaf.

    The blowup is maximal: every monomial is detached whole, so the covering
    carries their sum at every base index.  It is tagged with the next level
    out (ST -> MG -> M), so an M-level base is refused.  ``fraction`` is the
    glued degree as a fraction of the base degree, capped at 1, and holds
    for every class: ``deform`` admits one catalogue class over the base,
    and all germs of a catalogue class share one total degree (Fold and the
    umbilics 3, Cusp 4, Swallowtail 5).
    """
    if bundle.base.level == M:
        raise ValueError("the M level is outermost: nothing covers it")
    glued = Germ.zero(bundle.fiber[0][1].nvars)
    for _, mono in bundle.fiber:
        glued = glued + mono
    fraction = min(1.0, glued.total_degree / max(bundle.base.germs[0].total_degree, 1))
    level = LEVELS[LEVELS.index(bundle.base.level) + 1]
    covering = bundle.base.map_germs(lambda _: glued, level=level, role=None)
    return BlowupResult(covering, fraction)


def detect_resingularization(result: BlowupResult) -> SingularityClass | None:
    """Report the fold carried by a covering whose germs keep a cubic monomial."""
    for germ in result.covering.germs:
        for exps, coeff in germ.terms:
            if coeff and (exps == (3,) or exps == (3, 0)):
                return CATALOGUE[FOLD]
    return None


def desingularize(s: Semisheaf) -> Semisheaf:
    """Drop the degree >= 3 monomials, keeping the Morse/linear jet.

    Monomials of total degree three and above contribute nothing to the
    Hessian at the origin, so the rule is a plain truncation at degree two.
    It is idempotent.  In one variable its output classifies Regular or
    Morse; in two it need not: a jet with no constant or linear term and a
    Hessian of rank 1, such as ``3x^2`` (the shift of ``x^3``), classifies
    Unclassified with corank 1, and the report's ``desingularized_sections``
    diagnostic fails on it.
    """
    return s.map_germs(lambda germ: germ.truncated(2))


def time_space_lift(
    space: Semisheaf, reduce: Callable[[ClassIndex], bool]
) -> tuple[Semisheaf, Semisheaf]:
    """Lift a shifted space semisheaf to (time part, space residual).

    The endomorphism split keeps the reduced part as the space residual and
    the complementary part is projected onto the time direction, coming back
    with the shifted time nature.
    """
    if space.nature != SPACE_SHIFTED:
        raise ValueError("the time lift expects a shifted space semisheaf (Sp)")
    residual, complementary = endo_split(space, reduce)
    time = emergent_project(complementary)
    return time, residual


# ---------------------------------------------------------------------------
# level generation


class Level(NamedTuple):
    """One shell of the cascade: a reduced/orthogonal bisemisheaf pair.

    The two parts carry complementary shifted natures (one time, one space),
    forming the level's paired space-time record.  ``cover`` maps every class
    of the previous level to the class covering it here; ``coverage`` holds
    the blowup base's classes and the degree fraction that covers each of
    them.  Both are None on the inner level.
    """

    label: str
    reduced: Bisemisheaf
    orthogonal: Bisemisheaf | None
    cover: tuple[tuple[ClassIndex, ClassIndex], ...] | None = None
    coverage: tuple[tuple[ClassIndex, ...], float] | None = None


class LevelStack(NamedTuple):
    """The levels inner to outer, as the plan lays them out, and the
    cascade log.  The selection rule is the number of levels."""

    levels: tuple[Level, ...]
    cascade: tuple[str, ...]


def _cover_map(lower, upper) -> tuple[tuple[ClassIndex, ClassIndex], ...]:
    """Each class of ``lower`` with the largest class of ``upper`` at or
    below it, or with the first class of ``upper`` when none is."""
    upper = sorted(upper)
    out = []
    for idx in lower:
        pos = bisect.bisect_right(upper, idx)
        out.append((idx, upper[pos - 1] if pos else upper[0]))
    return tuple(out)


def _pair_or_none(right: Semisheaf) -> Bisemisheaf | None:
    return Bisemisheaf(right) if right.carrier else None


def _rule_for(cls: SingularityClass) -> int:
    if cls.corank == 1 and cls.codim == 3:
        return 3
    if (cls.corank == 1 and cls.codim < 3) or (cls.corank == 2 and cls.codim <= 3):
        return 2
    raise ValueError(
        f"(corank, codim) = ({cls.corank}, {cls.codim}) is outside the level table"
    )


class LevelPlan(NamedTuple):
    """A level's tower depth, the sorted classes of its two parts (the
    orthogonal one may be empty) and its cover map (None on ST)."""

    label: str
    depth: int
    reduced: tuple[ClassIndex, ...]
    orthogonal: tuple[ClassIndex, ...]
    cover: tuple[tuple[ClassIndex, ClassIndex], ...] | None


def plan_levels(
    tower: Tower,
    singularity: str | None,
    reduce: Callable[[ClassIndex], bool],
    covering_depths: tuple[int, int] | None,
    even_only: bool,
) -> tuple[LevelPlan, ...]:
    """Every level's classes for a scenario, by index arithmetic alone.

    The selection table, whose rule is the number of levels:

    1. no degenerate singularity -> the single ST level;
    2. corank 1 with codimension < 3, or corank 2 with codimension <= 3 ->
       ST plus one covering level MG;
    3. corank 1 with codimension 3 (the swallowtail) -> the covering still
       carries the cubic monomial, so a second deformation adds the M level.

    The reduce predicate splits the tower into ST's reduced and space
    parts.  The MG covering carries the space part, the M covering the MG
    covering; each is truncated to its covering depth, if given, and keeps
    the lower half of its mu values reduced.  With ``even_only`` every
    nonempty part needs an even class.  Failures name the config key.
    """
    for cut in covering_depths or ():
        if not 1 <= cut <= tower.depth:
            raise ValueError(f"covering_depths: depth {cut} outside 1..{tower.depth}")
    classes = tower.class_indices()
    reduced = tuple(idx for idx in classes if reduce(idx))
    space = tuple(idx for idx in classes if not reduce(idx))
    if not reduced:
        raise ValueError("reduce: the rule leaves the reduced part empty")
    levels = [LevelPlan(ST, tower.depth, reduced, space, None)]
    if singularity is not None:
        cls = CATALOGUE.get(singularity)
        if cls is None:
            raise ValueError(f"scenario {singularity!r} is not a catalogue singularity class")
        if not space:
            raise ValueError(f"reduce: the rule leaves no space part for the {cls.name} scenario")
        covering, depth = space, tower.depth
        labels = (MG, M)[: _rule_for(cls) - 1]
        for label, cut in zip(labels, covering_depths or (None, None)):
            if cut is not None:
                if cut > depth:
                    raise ValueError(f"covering_depths: d2 = {cut} may not exceed d1 = {depth}")
                covering = tuple(idx for idx in covering if idx.mu <= cut)
                depth = cut
                if not covering:
                    raise ValueError(f"covering_depths: depth {cut} empties the {label} covering")
            mus = sorted({idx.mu for idx in covering})
            half = mus[(len(mus) - 1) // 2]
            kept = tuple(idx for idx in covering if idx.mu <= half)
            lifted = tuple(idx for idx in covering if idx.mu > half)
            cover = _cover_map(sorted(levels[-1].reduced + levels[-1].orthogonal), covering)
            levels.append(LevelPlan(label, depth, kept, lifted, cover))
    for level in levels if even_only else ():
        for name, part in (("reduced", level.reduced), ("orthogonal", level.orthogonal)):
            if part and all(idx.mu % 2 for idx in part):
                raise ValueError(f"even_classes: the {level.label} {name} part has no even class")
    return tuple(levels)


def generate_levels(
    base: Bisemisheaf, singularity: str | None, plan: tuple[LevelPlan, ...]
) -> LevelStack:
    """Build the embedded level stack that ``plan_levels`` laid out.

    The base must be a shifted ST bisemisheaf.  The endomorphism split of
    its right semisheaf makes the ST space part, which hosts the injected
    singularity; each covering is truncated to its planned depth and lifts
    its planned orthogonal part to time.  The left side of every level is
    the mirror of the right.
    """
    if base.nature not in (TIME_SHIFTED, SPACE_SHIFTED):
        raise ValueError("the base bisemisheaf must be shifted (Tp or Sp)")

    reduced, complementary = endo_split(base.right, set(plan[0].reduced).__contains__)
    orthogonal = emergent_project(complementary)
    if singularity is None:
        st = Level(ST, Bisemisheaf(reduced), _pair_or_none(orthogonal))
        return LevelStack((st,), ())

    cls = CATALOGUE[singularity]
    seed = inject_singularity(orthogonal, cls)
    cascade = [
        f"inject {cls.name} germ {format_germ(seed.germs[0])} "
        f"on {len(seed)} space sections"
    ]
    levels = [Level(ST, Bisemisheaf(reduced), Bisemisheaf(seed))]
    for step in plan[1:]:
        if step.label == M:
            cls = detect_resingularization(result)
            cascade.append(
                f"resingularization: covering keeps the cubic monomial x^3, classified {cls.name}"
            )
            cubic = Germ.monomial(1, (3,))
            seed = covering.map_germs(lambda _: cubic)
        result = blow_up(deform(seed))
        cascade.append(
            f"blowup {cls.name}: covering germ {format_germ(result.covering.germs[0])}"
        )
        covering = result.covering
        if step.depth < covering.tower.depth:
            carrier = covering.carrier.truncated(step.depth)
            germs = covering.germs[: len(carrier)]
            covering = covering.replace(tower=carrier.tower, carrier=carrier, germs=germs)
        time, residual = time_space_lift(covering, set(step.reduced).__contains__)
        parts = Bisemisheaf(residual), _pair_or_none(time)
        levels.append(Level(step.label, *parts, step.cover, (seed.carrier, result.fraction)))

    return LevelStack(tuple(levels), tuple(cascade))
