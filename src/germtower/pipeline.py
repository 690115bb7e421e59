"""End-to-end pipeline: tower -> sheaves -> cascade -> correspondence report.

``run_pipeline`` runs a ``PipelineConfig`` (``config``) stage by stage and
returns a ``Report`` (``report``) of its levels, records and cascade log.
A stage that breaks its contract raises ``PipelineError`` naming it.

The oscillator constancy diagnostic evaluates the bistring moduli of the
distinct ``(mu, amplitude)`` keys a sample column at a time, and computes a
variance exactly (``statistics.pvariance`` from integer sums, not ``Fraction``)
only for the distinct modulus tuples that can hold the maximum.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

from .bisemigroup import FREE, ST, expand_sum_product
from .blowup import Level, desingularize, generate_levels
from .config import (
    PipelineConfig,
    _amplitude_callable,
    config_from_json,  # noqa: F401  (perfbench/tracer.py wraps it here as pipeline.config)
    config_to_json,
)
from .cuspidal import LevelRecord, level_record
from .germs import CATALOGUE, MORSE, REGULAR, Germ, classify_germ, format_germ
from .report import Report
from .sheaves import TIME, Bisemisheaf, attach_sections, shift
from .tower import RIGHT, ClassIndex


class PipelineError(RuntimeError):
    """A contract violation inside a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# report assembly

# Fixed abscissas for the oscillator constancy diagnostic.
_DIAG_SAMPLES = (0.0, 0.37, 0.75, 1.5, 2.25, -0.6)


def _template(config: PipelineConfig) -> Callable[[ClassIndex], Germ]:
    """Each tower class's germ: the config's template, or the scenario's default."""
    if config.germ_template is not None:
        return config.germ_template.__getitem__
    if config.scenario is not None and CATALOGUE[config.scenario].corank == 2:
        quadric = Germ.from_coeffs(2, {(2, 0): 1, (0, 2): 1})
        return lambda idx: quadric
    square = Germ.monomial(1, (2,))
    return lambda idx: square


def emit_expansion(level_labels: Sequence[str]) -> dict:
    """Expansion of the level sum product into free and interaction terms."""
    terms = expand_sum_product(level_labels, level_labels)
    rows = [
        {"kind": t.kind, "right": t.right_label, "left": t.left_label} for t in terms
    ]
    free = sum(1 for t in terms if t.kind == FREE)
    return {
        "terms": rows,
        "free_count": free,
        "interaction_count": len(terms) - free,
    }


def _pvariance(values: Sequence[float]) -> float:
    """``statistics.pvariance`` of floats, bit for bit, without ``Fraction``.

    A finite float is ``n / 2**k``.  Over the common denominator ``D`` of the
    values the variance is ``(c*S2 - S1**2) / (c*c*D*D)`` with integer sums
    ``S1`` and ``S2`` of the numerators and their squares.  ``pvariance``
    rounds the same rational once, through ``float(Fraction)``, so both give
    the same float, and both raise ``OverflowError`` where it exceeds the
    float range.  Non-finite values go to ``pvariance`` itself.
    """
    if not all(map(math.isfinite, values)):
        import statistics  # this fallback alone needs it; kept off the import path

        return statistics.pvariance(values)
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    numerators = [n * (scale // d) for n, d in ratios]
    count = len(numerators)
    s1 = sum(numerators)
    s2 = sum(n * n for n in numerators)
    return (count * s2 - s1 * s1) / (count * count * scale * scale)


def _bistring_moduli(keys: Iterable[tuple[int, float]]) -> Iterator[tuple[float, ...]]:
    """Each key's bistring moduli at ``_DIAG_SAMPLES``, a sample column per
    block of keys: the conjugate strings ``p -+ i*q``, ``p, q = a*cos(t),
    a*sin(t)``, ``t = (pi*mu)*x``, give ``p*p + q*q``, bit for bit as
    ``bistring_modulus`` does."""
    keys = iter(keys)
    while block := list(islice(keys, 128)):  # bounds the lists at the class budget
        phases = [math.pi * mu for mu, _ in block]
        amplitudes = [a for _, a in block]
        columns = []
        for x in _DIAG_SAMPLES:
            t = list(map(mul, phases, repeat(x)))
            p = list(map(mul, amplitudes, map(math.cos, t)))
            q = list(map(mul, amplitudes, map(math.sin, t)))
            columns.append(list(map(add, map(mul, p, p), map(mul, q, q))))
        yield from zip(*columns)


def _worst_bistring_variance(records: Sequence[LevelRecord]) -> tuple[float, bool]:
    """The largest bistring modulus variance of the records' mode pairs, and
    whether all are below ``1e-12``.  With every modulus finite, a tuple whose
    range is under half the widest range ``R`` is skipped: its variance is
    below ``R*R/16`` (Popoviciu), the widest one's at least ``R*R/12``.
    Otherwise every distinct tuple counts, in pair order, so the result is
    ``max`` of the pairs' own variances even if one is ``nan``."""
    keys = dict.fromkeys(
        key
        for record in records
        for part in record.parts
        for key in zip(map(itemgetter(0), part.carrier), part.amplitudes)
    )
    tuples = list(dict.fromkeys(_bistring_moduli(keys)))
    ranges = [max(moduli) - min(moduli) for moduli in tuples]
    if all(map(math.isfinite, ranges)):
        half = max(ranges, default=0.0) / 2
        tuples = [moduli for moduli, r in zip(tuples, ranges) if r >= half]
    variances = []
    for moduli in tuples:
        try:
            variances.append(_pvariance(moduli))
        except OverflowError:  # finite, but beyond the float range
            variances.append(math.inf)
    return max(variances, default=0.0), all(v < 1e-12 for v in variances)


def _diagnostics(
    levels: Sequence[Level],
    records: Sequence[LevelRecord],
    desingularized: dict[Germ, tuple[str, ClassIndex]],
) -> list[dict]:
    """The four report diagnostics.  ``desingularized`` maps each distinct
    desingularized germ to the first level and class that holds it."""
    bijection = all(rec.bijection_holds() for rec in records)
    partition_ok = all(
        level.orthogonal is None
        or set(level.reduced.right.carrier).isdisjoint(level.orthogonal.right.carrier)
        for level in levels
    )
    worst, constant = _worst_bistring_variance(records)
    for germ, (label, idx) in desingularized.items():
        cls = classify_germ(germ)
        if cls.name not in (REGULAR, MORSE):
            classify_ok = False
            detail = (
                f"{label} class {idx.mu},{idx.m}: germ {format_germ(germ)} "
                f"classifies {cls.name}, not Regular or Morse"
            )
            break
    else:
        classify_ok = True
        detail = "post-desingularization germs classify Regular or Morse"
    counted = f"{len(records)} level(s): weil classes equal cuspidal mode pairs"
    diags = (
        ("level_bijection", bijection, counted),
        ("split_partition", partition_ok, "reduced and orthogonal parts partition every carrier"),
        ("oscillator_constancy", constant, f"max bistring modulus variance {worst:.3e}"),
        ("desingularized_sections", classify_ok, detail),
    )
    return [{"name": name, "passed": ok, "detail": text} for name, ok, text in diags]


def run_pipeline(config: PipelineConfig) -> Report:
    """Run the full pipeline and assemble the deterministic report."""

    def stage(name: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise PipelineError(name, str(exc)) from exc

    template = stage("tower", _template, config)
    # the config's plan holds the tower's class carrier, built once
    right = stage("sections", attach_sections, config.plan[0].carrier, RIGHT, ST, TIME, template)
    right = stage("shift", shift, right)
    base = stage("tensor", Bisemisheaf, right)

    levels, cascade = stage("levels", generate_levels, base, config.scenario, config.plan)

    # the left of every bisemisheaf holds the right's germs, so the right
    # parts carry every germ.  Each distinct germ object is visited once,
    # at its first class; each distinct value is classified once, and keeps
    # its first place in level order for the diagnostic
    desingularized: dict[Germ, tuple[str, ClassIndex]] = {}
    for level in levels:
        for part in (level.reduced, level.orthogonal):
            if part is not None:
                flat = stage("desingularize", desingularize, part.right)
                firsts: dict[int, tuple[Germ, ClassIndex]] = {}
                for idx, germ in zip(flat.carrier, flat.germs):
                    firsts.setdefault(id(germ), (germ, idx))
                for germ, idx in firsts.values():
                    desingularized.setdefault(germ, (level.reduced.right.level, idx))
    amplitude_rule = _amplitude_callable(config.amplitude)
    records = [
        stage(
            "compactify",
            level_record,
            level.carrier,
            level.reduced,
            level.orthogonal,
            amplitude_rule,
            config.even_classes,
        )
        for level in levels
    ]

    diagnostics = stage("report", _diagnostics, levels, records, desingularized)
    expansions = stage("report", emit_expansion, [record.label for record in records])

    return Report(
        config=stage("report", config_to_json, config),
        records=tuple(records),
        cascade=cascade,
        expansions=expansions,
        diagnostics=diagnostics,
        levels=levels,
    )

