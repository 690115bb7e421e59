"""Versal deformation, blowup coverings, and the embedded level cascade.

A marked singular semisheaf is deformed into a contracting fiber bundle with
one monomial semisheaf per unfolding slot.  Blowing the bundle up detaches
those monomial sheaves (maximally, by default) and glues them into a covering
sheaf.  A swallowtail covering still carries the cubic monomial, so it is
detected as a fold and deformed again, producing a second covering: the
three-level cascade.  Levels embed inner to outer as ST then MG then M.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
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
    Section,
    Semisheaf,
    emergent_project,
    endo_split,
    inject_singularity,
    tensor,
)
from .tower import ClassIndex


@dataclass(frozen=True)
class DeformedBundle:
    """A singular base with its versal fiber of monomial semisheaves.

    ``fiber`` holds one (slot name, monomial semisheaf) entry per unfolding
    slot, so its length equals the codimension.
    """

    base: Semisheaf
    fiber: tuple[tuple[str, Semisheaf], ...]
    singularity: SingularityClass


def _constant_sheaf(base: Semisheaf, germ: Germ) -> Semisheaf:
    out = base.map_germs(lambda sec: germ)
    return replace(out, singular=False, role=None)


def deform(base: Semisheaf) -> DeformedBundle:
    """Versally deform a starred semisheaf along its classified germ.

    Every section must carry the same catalogue-classified germ; the fiber
    then holds one monomial sheaf per unfolding slot over the same indices.
    """
    if not base.singular:
        raise ValueError("versal deformation starts from a starred (singular) semisheaf")
    if not base.sections:
        raise ValueError("cannot deform an empty semisheaf")
    classes = {classify_germ(sec.germ) for sec in base.sections}
    if len(classes) != 1:
        raise ValueError("sections carry singularities of different kinds")
    cls = classes.pop()
    if cls.name not in CATALOGUE:
        raise ValueError(f"{cls.name} germs have no tabulated versal deformation")
    unfolding = versal_unfold(cls)
    fiber = tuple(
        (name, _constant_sheaf(base, mono)) for name, mono in unfolding.parameters
    )
    return DeformedBundle(base, fiber, cls)


class DetachedMonomial(NamedTuple):
    """One fiber slot after blowup: its residual and complementary parts."""

    slot: int
    name: str
    residual: Semisheaf
    complementary: Semisheaf


@dataclass(frozen=True)
class BlowupResult:
    residual: Semisheaf
    covering: Semisheaf
    detached_monomials: tuple[DetachedMonomial, ...]
    coverage: tuple[tuple[ClassIndex, float], ...]


def blow_up(bundle: DeformedBundle, fraction: float = 1.0) -> BlowupResult:
    """Detach the fiber monomials and glue them into a covering sheaf.

    The default is the maximal blowup: every monomial sheaf is detached
    whole (its complementary part is the full sheaf) and the covering gains
    one glued section per base section.  A ``fraction`` below 1 detaches only
    the leading share of class indices and is a reporting convenience; the
    invariants hold on the maximal path.
    """
    if not bundle.fiber:
        raise ValueError("cannot blow up a bundle with an empty fiber")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must lie in (0, 1]")
    indices = bundle.base.indices()
    detached_count = math.ceil(fraction * len(indices))
    detached_ids = set(indices[:detached_count])

    records = []
    for slot, (name, msheaf) in enumerate(bundle.fiber, start=1):
        kept = tuple(sec for sec in msheaf.sections if sec.index in detached_ids)
        rest = tuple(sec for sec in msheaf.sections if sec.index not in detached_ids)
        records.append(
            DetachedMonomial(
                slot,
                name,
                replace(msheaf, sections=rest, role="reduced"),
                replace(msheaf, sections=kept, role="complementary"),
            )
        )

    # Gluing: at every covered index the detached monomials add up to one germ.
    detached_germs = [
        {sec.index: sec.germ for sec in record.complementary.sections}
        for record in records
    ]
    zeros = {dims: Germ.zero(dims) for dims in {sec.dims for sec in bundle.base.sections}}
    covering_sections = []
    coverage = []
    for sec in bundle.base.sections:
        base_degree = max(sec.germ.total_degree, 1)
        if sec.index not in detached_ids:
            coverage.append((sec.index, 0.0))
            continue
        glued = zeros[sec.dims]
        for germs in detached_germs:
            glued = glued + germs[sec.index]
        covering_sections.append(Section(sec.index, sec.side, glued, sec.dims, sec.orth_axis))
        coverage.append((sec.index, min(1.0, glued.total_degree / base_degree)))

    covering = replace(
        bundle.base,
        sections=tuple(covering_sections),
        singular=False,
        role=None,
    )
    return BlowupResult(bundle.base, covering, tuple(records), tuple(coverage))


def detect_resingularization(result: BlowupResult) -> SingularityClass | None:
    """Report the fold carried by a covering whose germs keep a cubic monomial."""
    for sec in result.covering.sections:
        for exps, coeff in sec.germ.terms:
            if coeff and (exps == (3,) or exps == (3, 0)):
                return CATALOGUE[FOLD]
    return None


def desingularize(s: Semisheaf) -> Semisheaf:
    """Drop the degree >= 3 monomials, keeping the Morse/linear jet; unmark.

    Monomials of total degree three and above contribute nothing to the
    Hessian at the origin, so the rule is a plain truncation at degree two.
    It is idempotent and its output classifies Regular or Morse.
    """
    out = s.map_germs(lambda sec: sec.germ.truncated(2))
    return replace(out, singular=False)


def time_space_lift(
    space: Semisheaf,
    reduce: Callable[[ClassIndex], bool] | None = None,
    orth_dims: int = 3,
) -> tuple[Semisheaf, Semisheaf]:
    """Lift a shifted space semisheaf to (time part, space residual).

    The endomorphism split keeps the reduced part as the space residual and
    the complementary part is projected onto the time direction, coming back
    with the shifted time nature.
    """
    if space.nature != SPACE_SHIFTED:
        raise ValueError("the time lift expects a shifted space semisheaf (Sp)")
    residual, complementary = endo_split(space, reduce)
    time = emergent_project(complementary, orth_dims)
    return time, residual


# ---------------------------------------------------------------------------
# level generation


@dataclass(frozen=True)
class Level:
    """One shell of the cascade: a reduced/orthogonal bisemisheaf pair.

    The two parts carry complementary shifted natures (one time, one space),
    forming the level's paired space-time record.  ``cover`` maps every class
    of the previous level to the class covering it here; ``coverage`` keeps
    the blowup's per-section degree fractions.  Both are None on the inner
    level.
    """

    label: str
    reduced: Bisemisheaf
    orthogonal: Bisemisheaf | None
    cover: tuple[tuple[ClassIndex, ClassIndex], ...] | None = None
    coverage: tuple[tuple[ClassIndex, float], ...] | None = None

    def carrier_indices(self) -> tuple[ClassIndex, ...]:
        indices = list(self.reduced.indices())
        if self.orthogonal is not None:
            indices.extend(self.orthogonal.indices())
        return tuple(sorted(indices))


@dataclass(frozen=True)
class Provenance:
    corank: int | None
    codim: int | None
    rule: int
    cascade: tuple[str, ...]


@dataclass(frozen=True)
class LevelStack:
    levels: tuple[Level, ...]
    provenance: Provenance

    def __post_init__(self):
        labels = tuple(level.label for level in self.levels)
        if labels != LEVELS[: len(labels)] or not labels:
            raise ValueError(f"levels must run {LEVELS} inner to outer, got {labels}")

    def labels(self) -> tuple[str, ...]:
        return tuple(level.label for level in self.levels)


def _half_split_predicate(indices) -> Callable[[ClassIndex], bool]:
    # Carrier-relative split: the lower half of the mu values present stays
    # reduced, so a covering carrier always keeps a nonempty reduced part.
    mus = sorted({idx.mu for idx in indices})
    cut = mus[(len(mus) - 1) // 2]
    return lambda idx: idx.mu <= cut


def _cover_map(lower, upper) -> tuple[tuple[ClassIndex, ClassIndex], ...]:
    upper = sorted(upper)
    upper_set = set(upper)
    out = []
    for idx in lower:
        if idx in upper_set:
            out.append((idx, idx))
            continue
        pos = bisect.bisect_right(upper, idx)
        out.append((idx, upper[pos - 1] if pos else upper[0]))
    return tuple(out)


def _pair_or_none(right: Semisheaf, left: Semisheaf) -> Bisemisheaf | None:
    if not right.sections:
        return None
    return tensor(right, left)


def _truncate(side: Semisheaf, depth: int) -> Semisheaf:
    kept = tuple(sec for sec in side.sections if sec.index.mu <= depth)
    if not kept:
        raise ValueError(f"covering truncated to depth {depth} keeps no section")
    return replace(side, tower=side.tower.truncated(depth), sections=kept)


def _rule_for(cls: SingularityClass) -> int:
    if cls.corank == 1 and cls.codim == 3:
        return 3
    if (cls.corank == 1 and cls.codim < 3) or (cls.corank == 2 and cls.codim <= 3):
        return 2
    raise ValueError(
        f"(corank, codim) = ({cls.corank}, {cls.codim}) is outside the level table"
    )


def generate_levels(
    base: Bisemisheaf,
    singularity: SingularityClass | str | None = None,
    reduce: Callable[[ClassIndex], bool] | None = None,
    orth_dims: int = 3,
    covering_depths: tuple[int | None, int | None] | None = None,
) -> LevelStack:
    """Generate the embedded level stack for a singularity scenario.

    The selection table:

    1. no degenerate singularity -> the single ST level;
    2. corank 1 with codimension < 3, or corank 2 with codimension <= 3 ->
       ST plus one covering level MG;
    3. corank 1 with codimension 3 (the swallowtail) -> the covering still
       carries the cubic monomial, so a second deformation adds the M level.

    The base must be a shifted ST bisemisheaf; its endomorphism split makes
    the ST space part, which hosts the injected singularity.
    """
    if base.level != ST:
        raise ValueError("level generation starts from an ST bisemisheaf")
    if base.nature not in (TIME_SHIFTED, SPACE_SHIFTED):
        raise ValueError("the base bisemisheaf must be shifted (Tp or Sp)")
    d1, d2 = covering_depths if covering_depths is not None else (None, None)
    for d in (d1, d2):
        if d is not None and not 1 <= d <= base.tower.depth:
            raise ValueError(f"covering depth {d} outside 1..{base.tower.depth}")

    red_r, comp_r = endo_split(base.right, reduce)
    red_l, comp_l = endo_split(base.left, reduce)
    if not red_r.sections:
        raise ValueError("the reduce rule left the reduced part empty")
    orth_r = emergent_project(comp_r, orth_dims)
    orth_l = emergent_project(comp_l, orth_dims)

    if singularity is None:
        st = Level(ST, tensor(red_r, red_l), _pair_or_none(orth_r, orth_l))
        return LevelStack((st,), Provenance(None, None, 1, ()))

    cls = CATALOGUE.get(
        singularity if isinstance(singularity, str) else singularity.name
    )
    if cls is None:
        raise ValueError("level generation needs a catalogue singularity class")
    rule = _rule_for(cls)
    if not orth_r.sections:
        raise ValueError(
            "the scenario needs a nonempty space part; loosen the reduce rule"
        )
    if orth_r.nature != SPACE_SHIFTED:
        raise ValueError(
            "singularity scenarios start from a time-natured base: the projected part hosts the spatial germ"
        )

    cascade: list[str] = []
    starred_r = inject_singularity(orth_r, cls)
    starred_l = inject_singularity(orth_l, cls)
    cascade.append(
        f"inject {cls.name} germ {format_germ(starred_r.sections[0].germ)} "
        f"on {len(starred_r)} space sections"
    )
    levels = [Level(ST, tensor(red_r, red_l), tensor(starred_r, starred_l))]

    bundle_r = deform(starred_r)
    bundle_l = deform(starred_l)
    result_r = blow_up(bundle_r)
    result_l = blow_up(bundle_l)
    cascade.append(
        f"blowup {cls.name}: covering germ {format_germ(result_r.covering.sections[0].germ)}"
    )
    cov_r, cov_l = result_r.covering, result_l.covering
    if d1 is not None:
        cov_r = _truncate(cov_r, d1)
        cov_l = _truncate(cov_l, d1)
    pred_mg = _half_split_predicate(cov_r.indices())
    time_r, resid_r = time_space_lift(cov_r, pred_mg, orth_dims)
    time_l, resid_l = time_space_lift(cov_l, pred_mg, orth_dims)
    levels.append(
        Level(
            MG,
            tensor(resid_r, resid_l),
            _pair_or_none(time_r, time_l),
            cover=_cover_map(levels[0].carrier_indices(), cov_r.indices()),
            coverage=result_r.coverage,
        )
    )

    if rule == 3:
        detected = detect_resingularization(result_r)
        if detected is None or detect_resingularization(result_l) is None:
            raise ValueError("expected the swallowtail covering to keep its cubic")
        cascade.append(
            f"resingularization: covering keeps the cubic monomial x^3, classified {detected.name}"
        )
        cubic = Germ.monomial(1, (3,))
        seed_r = replace(cov_r.map_germs(lambda sec: cubic), singular=True)
        seed_l = replace(cov_l.map_germs(lambda sec: cubic), singular=True)
        result2_r = blow_up(deform(seed_r))
        result2_l = blow_up(deform(seed_l))
        cascade.append(
            f"blowup {detected.name}: covering germ "
            f"{format_germ(result2_r.covering.sections[0].germ)}"
        )
        cov2_r, cov2_l = result2_r.covering, result2_l.covering
        if d2 is not None:
            cov2_r = _truncate(cov2_r, d2)
            cov2_l = _truncate(cov2_l, d2)
        pred_m = _half_split_predicate(cov2_r.indices())
        time2_r, resid2_r = time_space_lift(cov2_r, pred_m, orth_dims)
        time2_l, resid2_l = time_space_lift(cov2_l, pred_m, orth_dims)
        levels.append(
            Level(
                M,
                tensor(resid2_r, resid2_l),
                _pair_or_none(time2_r, time2_l),
                cover=_cover_map(levels[1].carrier_indices(), cov2_r.indices()),
                coverage=result2_r.coverage,
            )
        )

    return LevelStack(tuple(levels), Provenance(cls.corank, cls.codim, rule, tuple(cascade)))
