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
builds the levels and the cascade log along that plan.  The cascade runs
on the right semisheaf of the base only; every level's bisemisheaves are
built from its right parts, which carry the left mirrors.
"""

from __future__ import annotations

import bisect
from operator import not_
from typing import Callable, Iterator, Sequence

from .bisemigroup import LEVELS, M, MG, ST
from .germs import (
    CATALOGUE,
    FOLD,
    SingularityClass,
    classify_germ,
    format_germ,
    slot_sum,
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
from .tower import Carrier, ClassIndex, Record, Tower


class DeformedBundle(Record):
    """A base of one catalogue class with its versal fiber of monomial germs.

    ``fiber`` holds the (slot name, monomial germ) pairs of the base class's
    unfolding, one per slot, so its length equals the codimension; each
    monomial is constant over the base.
    """

    __slots__ = ("base", "fiber")


def deform(base: Semisheaf) -> DeformedBundle:
    """Versally deform a semisheaf along its classified germ.

    Every class must carry a germ of one catalogue class; each distinct
    germ object is classified once, and no germ is hashed.
    """
    distinct = {id(germ): germ for germ in base.germs}.values()
    classes = {classify_germ(germ) for germ in distinct}
    if len(classes) != 1:
        raise ValueError("deform needs germs of one catalogue class, found " + str(len(classes)))
    return DeformedBundle(base, versal_unfold(classes.pop().name).parameters)


class BlowupResult(Record):
    __slots__ = ("covering", "fraction")


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
    glued = slot_sum(bundle.fiber)
    fraction = min(1.0, glued.total_degree / max(bundle.base.germs[0].total_degree, 1))
    level = LEVELS[LEVELS.index(bundle.base.level) + 1]
    covering = bundle.base.map_germs(lambda _: glued, level=level)
    return BlowupResult(covering, fraction)


def detect_resingularization(covering: Semisheaf) -> SingularityClass | None:
    """Report the fold carried by a covering whose germs keep a cubic monomial."""
    for germ in covering.germs:
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


def time_space_lift(space: Semisheaf, mask: Sequence) -> tuple[Semisheaf, Semisheaf]:
    """Lift a shifted space semisheaf to (time part, space residual).

    The endomorphism split by ``mask`` keeps the reduced part as the space
    residual and the complementary part is projected onto the time
    direction, coming back with the shifted time nature.
    """
    if space.nature != SPACE_SHIFTED:
        raise ValueError("the time lift expects a shifted space semisheaf (Sp)")
    residual, complementary = endo_split(space, mask)
    time = emergent_project(complementary)
    return time, residual


# ---------------------------------------------------------------------------
# level generation


class Level(Record):
    """One shell of the cascade: a reduced/orthogonal bisemisheaf pair.

    The two parts carry complementary shifted natures (one time, one space),
    forming the level's paired space-time record, labelled
    ``reduced.right.level``.  ``carrier`` holds the sorted classes of both
    parts, the record's Weil side; ``_cover_map`` maps the previous level's
    onto it.  ``coverage`` holds the blowup base's classes and the degree
    fraction covering each, None on the inner level.
    """

    __slots__ = ("carrier", "reduced", "orthogonal", "coverage")


def _cover_map(lower, upper) -> Iterator[tuple[ClassIndex, ClassIndex]]:
    """Each class of ``lower`` with the largest class of the sorted
    ``upper`` at or below it, or with the first class of ``upper`` when none
    is, yielded as the report writes them."""
    for idx in lower:
        pos = bisect.bisect_right(upper, idx)
        yield idx, upper[pos - 1] if pos else upper[0]


def _rule_for(cls: SingularityClass) -> int:
    if cls.corank == 1 and cls.codim == 3:
        return 3
    if (cls.corank == 1 and cls.codim < 3) or (cls.corank == 2 and cls.codim <= 3):
        return 2
    raise ValueError(
        f"(corank, codim) = ({cls.corank}, {cls.codim}) is outside the level table"
    )


class LevelPlan(Record):
    """A level's sorted classes, in its tower truncated to its depth, and a
    mask byte per class, true where the reduced part keeps it; the others
    make the orthogonal part, which may be empty."""

    __slots__ = ("label", "carrier", "mask")

    def parts(self) -> tuple[Carrier, Carrier]:
        """The classes of the reduced part and of the orthogonal part."""
        return self.carrier.restrict(self.mask), self.carrier.restrict(map(not_, self.mask))


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

    ST's carrier is the tower's class carrier, built here once for the
    config and the run; the reduce predicate's mask splits it into ST's
    reduced and space parts.  The MG covering carries the space part, the M
    covering the MG covering; each is truncated to its covering depth, if given, and keeps
    the lower half of its mu values reduced.  With ``even_only`` every
    nonempty part needs an even class.  Failures name the config key.
    """
    for cut in covering_depths or ():
        if not 1 <= cut <= tower.depth:
            raise ValueError(f"covering_depths: depth {cut} outside 1..{tower.depth}")
    classes = tower.class_indices()
    mask = bytes(map(reduce, classes))
    if not any(mask):
        raise ValueError("reduce: the rule leaves the reduced part empty")
    levels = [LevelPlan(ST, classes, mask)]
    if singularity is not None:
        cls = CATALOGUE.get(singularity)
        if cls is None:
            raise ValueError(f"scenario {singularity!r} is not a catalogue singularity class")
        if all(mask):
            raise ValueError(f"reduce: the rule leaves no space part for the {cls.name} scenario")
        covering = classes.restrict(map(not_, mask))
        labels = (MG, M)[: _rule_for(cls) - 1]
        for label, cut in zip(labels, covering_depths or (None, None)):
            if cut is not None:
                depth = covering.tower.depth
                if cut > depth:
                    raise ValueError(f"covering_depths: d2 = {cut} may not exceed d1 = {depth}")
                covering = covering.truncated(cut)
                if not covering:
                    raise ValueError(f"covering_depths: depth {cut} empties the {label} covering")
            mus = sorted({idx.mu for idx in covering})
            half = mus[(len(mus) - 1) // 2]
            levels.append(LevelPlan(label, covering, bytes(idx.mu <= half for idx in covering)))
    for level in levels if even_only else ():
        for name, part in zip(("reduced", "orthogonal"), level.parts()):
            if part and all(idx.mu % 2 for idx in part):
                raise ValueError(f"even_classes: the {level.label} {name} part has no even class")
    return tuple(levels)


def generate_levels(
    base: Bisemisheaf, singularity: str | None, plan: tuple[LevelPlan, ...]
) -> tuple[tuple[Level, ...], tuple[str, ...]]:
    """The embedded levels that ``plan_levels`` laid out, and the cascade log.

    The base must be a shifted ST bisemisheaf over the plan's ST carrier,
    as each planned mask picks classes by position.  The endomorphism split
    of its right semisheaf makes the ST space part, projected to the ST
    seed.  A covering deeper than its plan is cut to the planned carrier,
    a prefix of its classes, and lifts its planned orthogonal part to time.
    ``inject_singularity`` places both seeds: the scenario's form on ST,
    and at M the ``Fold`` found on the uncut MG covering, on the cut one.
    The left side of every level is the mirror of the right.
    """
    if base.right.nature not in (TIME_SHIFTED, SPACE_SHIFTED):
        raise ValueError("the base bisemisheaf must be shifted (Tp or Sp)")
    if base.right.carrier != plan[0].carrier:
        raise ValueError("the base's %d classes are not the plan's ST carrier" % len(base.right))

    reduced, complementary = endo_split(base.right, plan[0].mask)
    seed = emergent_project(complementary)
    cascade = []
    if singularity is not None:
        seed = inject_singularity(seed, singularity)
        cascade.append(
            f"inject {singularity} germ {format_germ(seed.germs[0])} "
            f"on {len(seed)} space sections"
        )
    orthogonal = Bisemisheaf(seed) if seed.carrier else None
    levels = [Level(base.right.carrier, Bisemisheaf(reduced), orthogonal, None)]
    for step in plan[1:]:
        if step.label == M:
            singularity = detect_resingularization(result.covering).name
            cascade.append(
                "resingularization: covering keeps the cubic monomial x^3, "
                f"classified {singularity}"
            )
            seed = inject_singularity(covering, singularity)
        result = blow_up(deform(seed))
        cascade.append(
            f"blowup {singularity}: covering germ {format_germ(result.covering.germs[0])}"
        )
        covering = result.covering
        if step.carrier.tower.depth < covering.tower.depth:
            carrier = step.carrier
            germs = covering.germs[: len(carrier)]
            covering = covering.replace(carrier=carrier, germs=germs)
        time, residual = time_space_lift(covering, step.mask)
        parts = Bisemisheaf(residual), Bisemisheaf(time) if time.carrier else None
        levels.append(Level(covering.carrier, *parts, (seed.carrier, result.fraction)))

    return tuple(levels), tuple(cascade)
