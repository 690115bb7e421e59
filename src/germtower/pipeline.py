"""End-to-end pipeline: tower -> sheaves -> cascade -> correspondence report.

Reports are byte-deterministic: the same config always serializes to the
same JSON bytes.  That is guaranteed by a small canonical emitter (fixed key
insertion order, floats printed with 17 significant digits) rather than by
the standard library encoder, whose float formatting cannot be pinned.  The
emitter walks the report once, appending chunks in output order, and escapes
strings through one translation table (quote, backslash, control characters).

The oscillator constancy diagnostic computes each bistring variance exactly,
as ``statistics.pvariance`` does, but from integer sums over the common
power-of-two denominator of the samples instead of ``Fraction`` arithmetic.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .bisemigroup import FREE, ST, expand_sum_product
from .blowup import Level, LevelStack, desingularize, generate_levels
from .cuspidal import (
    Correspondence,
    EllipticSemimodule,
    LevelRecord,
    WeilDescriptor,
    bistring_modulus,
    compactify,
)
from .germs import (
    CATALOGUE,
    MORSE,
    REGULAR,
    Germ,
    classify_germ,
    germ_from_json,
)
from .sheaves import TIME, attach_sections, shift, tensor
from .tower import (
    LEFT,
    RIGHT,
    ClassIndex,
    TowerConfig,
    build_tower,
    tower_config_from_json,
    tower_config_to_json,
)


class PipelineError(RuntimeError):
    """A contract violation inside a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# configuration

_SCENARIO_ALIASES = {
    "fold": "Fold",
    "cusp": "Cusp",
    "swallowtail": "Swallowtail",
    "elliptic-umbilic": "EllipticUmbilic",
    "elliptic_umbilic": "EllipticUmbilic",
    "ellipticumbilic": "EllipticUmbilic",
    "hyperbolic-umbilic": "HyperbolicUmbilic",
    "hyperbolic_umbilic": "HyperbolicUmbilic",
    "hyperbolicumbilic": "HyperbolicUmbilic",
}


def normalize_scenario(value) -> str | None:
    if value is None or value == "" or str(value).lower() == "none":
        return None
    name = _SCENARIO_ALIASES.get(str(value).lower())
    if name is None:
        raise ValueError(f"unknown scenario {value!r}")
    return name


_RULE_RE = re.compile(r"^mu\s*(<=|>=|==|<|>)\s*(h|\d+)$")
_PARITY_RE = re.compile(r"^mu\s*%\s*2\s*==\s*([01])$")

_COMPARATORS = {
    "<=": lambda mu, k: mu <= k,
    ">=": lambda mu, k: mu >= k,
    "==": lambda mu, k: mu == k,
    "<": lambda mu, k: mu < k,
    ">": lambda mu, k: mu > k,
}


def parse_reduce_rule(text: str, depth: int) -> Callable[[ClassIndex], bool]:
    """Parse a declarative reduce rule into a class predicate.

    Supported forms: ``all``, ``none``, ``mu<=K`` (and <, >, >=, ==) where K
    is an integer or ``H`` = ceil(depth/2), and the parities ``mu%2==0`` /
    ``mu%2==1``.
    """
    t = text.strip().lower()
    if t == "all":
        return lambda idx: True
    if t == "none":
        return lambda idx: False
    parity = _PARITY_RE.match(t)
    if parity:
        want = int(parity.group(1))
        return lambda idx: idx.mu % 2 == want
    match = _RULE_RE.match(t)
    if match:
        op, bound = match.groups()
        k = math.ceil(depth / 2) if bound == "h" else int(bound)
        cmp = _COMPARATORS[op]
        return lambda idx: cmp(idx.mu, k)
    raise ValueError(f"cannot parse reduce rule {text!r}")


def _parse_index_key(key: str) -> ClassIndex:
    parts = key.split(",")
    if len(parts) != 2:
        raise ValueError(f"class keys look like 'mu,m'; got {key!r}")
    return ClassIndex(int(parts[0]), int(parts[1]))


@dataclass
class PipelineConfig:
    """Everything a run needs; validated on construction."""

    tower: TowerConfig
    scenario: str | None = None
    reduce_rule: str = "mu<=H"
    orth_dims: int = 3
    amplitude: object = "unit"
    covering_depths: tuple[int, int] | None = None
    even_classes: bool = False
    germ_template: dict | None = None

    def __post_init__(self):
        self.scenario = normalize_scenario(self.scenario)
        if self.orth_dims not in (2, 3):
            raise ValueError("orth_dims must be 2 or 3")
        parse_reduce_rule(self.reduce_rule, self.tower.depth)
        if self.covering_depths is not None:
            d1, d2 = self.covering_depths
            for d in (d1, d2):
                if not 1 <= int(d) <= self.tower.depth:
                    raise ValueError(
                        f"covering depth {d} outside 1..{self.tower.depth}"
                    )
            self.covering_depths = (int(d1), int(d2))
        self.amplitude = _normalize_amplitude(self.amplitude)
        if self.germ_template is not None:
            self.germ_template = {
                _parse_index_key(k): (germ_from_json(v) if isinstance(v, dict) else v)
                for k, v in self.germ_template.items()
            }


def _normalize_amplitude(value) -> object:
    if value is None:
        return "unit"
    if isinstance(value, str):
        if value in ("unit", "mu"):
            return value
        raise ValueError(f"unknown amplitude rule {value!r}")
    if isinstance(value, Mapping):
        table = value.get("table", value)
        return {_parse_index_key(k): float(v) for k, v in table.items()}
    raise ValueError("amplitude must be 'unit', 'mu', or a class table")


def _amplitude_callable(value) -> Callable[[ClassIndex], float]:
    if value == "unit":
        return lambda idx: 1.0
    if value == "mu":
        return lambda idx: float(idx.mu)
    table = dict(value)

    def rule(idx: ClassIndex) -> float:
        if idx not in table:
            raise ValueError(f"amplitude table has no entry for class {tuple(idx)}")
        return table[idx]

    return rule


_CONFIG_KEYS = {
    "tower",
    "scenario",
    "reduce",
    "orth_dims",
    "amplitude",
    "covering_depths",
    "even_classes",
    "germ_template",
}


def config_from_json(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ValueError("pipeline config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "tower" not in data:
        raise ValueError("pipeline config is missing 'tower'")
    reduce_rule = data.get("reduce", "mu<=H")
    if not isinstance(reduce_rule, str):
        raise ValueError(f"reduce must be a rule string, got {reduce_rule!r}")
    orth_dims = data.get("orth_dims", 3)
    if type(orth_dims) is not int:
        raise ValueError(f"orth_dims must be an integer, got {orth_dims!r}")
    depths = data.get("covering_depths")
    if depths is not None and (
        not isinstance(depths, list) or any(type(d) is not int for d in depths)
    ):
        raise ValueError(f"covering_depths must be a list of integers, got {depths!r}")
    template = data.get("germ_template")
    if template is not None and (
        not isinstance(template, dict)
        or not all(isinstance(g, dict) for g in template.values())
    ):
        raise ValueError("germ_template must map class keys to germ JSON objects")
    return PipelineConfig(
        tower=tower_config_from_json(data["tower"]),
        scenario=data.get("scenario"),
        reduce_rule=reduce_rule,
        orth_dims=orth_dims,
        amplitude=data.get("amplitude", "unit"),
        covering_depths=tuple(depths) if depths else None,
        even_classes=bool(data.get("even_classes", False)),
        germ_template=template,
    )


def config_to_json(config: PipelineConfig) -> dict:
    amplitude = config.amplitude
    if not isinstance(amplitude, str):
        amplitude = {"table": {f"{k.mu},{k.m}": v for k, v in sorted(amplitude.items())}}
    out = {
        "tower": tower_config_to_json(config.tower),
        "scenario": config.scenario,
        "reduce": config.reduce_rule,
        "orth_dims": config.orth_dims,
        "amplitude": amplitude,
        "covering_depths": list(config.covering_depths)
        if config.covering_depths
        else None,
        "even_classes": config.even_classes,
    }
    if config.germ_template is not None:
        out["germ_template"] = {
            f"{k.mu},{k.m}": {
                "nvars": g.nvars,
                "coeffs": [[list(e), str(c)] for e, c in g.terms],
            }
            for k, g in sorted(config.germ_template.items())
        }
    return out


# ---------------------------------------------------------------------------
# canonical JSON


# Escape table for JSON strings: the quote and the backslash get a backslash,
# every control character below 0x20 becomes \u00XX; all else passes through.
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_ESCAPES[ord('"')] = '\\"'
_ESCAPES[ord("\\")] = "\\\\"

# The emitter joins its pending chunks into one block this often.  A deep
# report is about 100k small chunks; kept in one list until the end, they
# peak at about 4 MB for a 0.6 MB report, against about 1.2 MB in blocks.
_BLOCK_CHUNKS = 2048


def dumps_canonical(obj) -> str:
    """Serialize to JSON with pinned float formatting (17 significant digits).

    One recursive walk appends the text in output order, each container
    indented two spaces deeper than its parent, so every character is
    copied a bounded number of times whatever the nesting depth.  Strings
    are escaped through the one ``str.translate`` table ``_ESCAPES``.  Keys
    are ``str(key)``, ints ``str(value)``, floats ``format(value, ".17g")``;
    NaN and infinity raise ``ValueError`` and any other type ``TypeError``.
    """
    blocks: list[str] = []
    chunks: list[str] = []
    append = chunks.append

    def emit(obj, pad: str) -> None:
        if obj is None:
            append("null")
        elif obj is True:
            append("true")
        elif obj is False:
            append("false")
        elif isinstance(obj, str):
            append('"' + obj.translate(_ESCAPES) + '"')
        elif isinstance(obj, int):
            append(str(obj))
        elif isinstance(obj, float):
            if math.isnan(obj) or math.isinf(obj):
                raise ValueError("reports may not contain NaN or infinity")
            append(format(obj, ".17g"))
        elif isinstance(obj, (list, tuple)):
            if not obj:
                append("[]")
                return
            inner = pad + "  "
            sep = "[\n" + inner
            for value in obj:
                append(sep)
                emit(value, inner)
                sep = ",\n" + inner
            append("\n" + pad + "]")
        elif isinstance(obj, dict):
            if not obj:
                append("{}")
                return
            inner = pad + "  "
            sep = "{\n" + inner
            for key, value in obj.items():
                append(sep + '"' + str(key).translate(_ESCAPES) + '": ')
                emit(value, inner)
                sep = ",\n" + inner
            append("\n" + pad + "}")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        if len(chunks) >= _BLOCK_CHUNKS:
            blocks.append("".join(chunks))
            chunks.clear()

    emit(obj, "")
    blocks.append("".join(chunks))
    return "".join(blocks)


# ---------------------------------------------------------------------------
# report assembly

# Fixed abscissas for the oscillator constancy diagnostic.
_DIAG_SAMPLES = (0.0, 0.37, 0.75, 1.5, 2.25, -0.6)


@dataclass
class Report:
    config: dict
    rule: int
    level_rows: list[dict]
    cascade: tuple[str, ...]
    expansions: dict
    diagnostics: list[dict]
    correspondence: Correspondence = field(repr=False)
    stack: LevelStack = field(repr=False)

    def all_diagnostics_passed(self) -> bool:
        return all(d["passed"] for d in self.diagnostics)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "rule": self.rule,
            "levels": self.level_rows,
            "cascade": list(self.cascade),
            "expansions": self.expansions,
            "diagnostics": self.diagnostics,
        }

    def json_text(self) -> str:
        return dumps_canonical(self.to_json()) + "\n"


def _default_template(scenario: str | None) -> Callable[[ClassIndex], Germ]:
    if scenario is not None and CATALOGUE[scenario].corank == 2:
        quadric = Germ.from_coeffs(2, {(2, 0): 1, (0, 2): 1})
        return lambda idx: quadric
    square = Germ.monomial(1, (2,))
    return lambda idx: square


def emit_expansion(level_labels: Sequence[str]) -> dict:
    """Expansion of the level sum product into free and interaction terms."""
    parts = [(label, label) for label in level_labels]
    terms = expand_sum_product(parts, parts)
    rows = [
        {"kind": t.kind, "right": t.right_label, "left": t.left_label} for t in terms
    ]
    free = sum(1 for t in terms if t.kind == FREE)
    return {
        "terms": rows,
        "free_count": free,
        "interaction_count": len(terms) - free,
    }


def _level_row(level: Level, record: LevelRecord) -> dict:
    row = {
        "label": level.label,
        "tower": {
            "quantum_modulus": level.reduced.tower.quantum_modulus,
            "offset": level.reduced.tower.offset,
            "depth": level.reduced.tower.depth,
        },
        "weil_side": [
            {"mu": w.mu, "m": w.m, "degree": w.degree} for w in record.weil_side
        ],
        "reduced": {
            "right": record.reduced[0].to_json(),
            "left": record.reduced[1].to_json(),
        },
        "orthogonal": None
        if record.orthogonal is None
        else {
            "right": record.orthogonal[0].to_json(),
            "left": record.orthogonal[1].to_json(),
        },
        "mode_pairs": record.mode_pair_count(),
        "cover": None
        if level.cover is None
        else [[list(a), list(b)] for a, b in level.cover],
        "coverage": None
        if level.coverage is None
        else [[list(idx), frac] for idx, frac in level.coverage],
    }
    return row


def _desingularized(level: Level) -> Level:
    reduced = tensor(
        desingularize(level.reduced.right), desingularize(level.reduced.left)
    )
    orthogonal = None
    if level.orthogonal is not None:
        orthogonal = tensor(
            desingularize(level.orthogonal.right), desingularize(level.orthogonal.left)
        )
    return Level(level.label, reduced, orthogonal, level.cover, level.coverage)


def _level_record(
    level: Level, amplitude, even_only: bool
) -> LevelRecord:
    rule = _amplitude_callable(amplitude)
    weil = []
    for idx in level.carrier_indices():
        if even_only and idx.mu % 2 != 0:
            continue
        weil.append(
            WeilDescriptor(idx.mu, idx.m, level.reduced.tower.real_degree(idx))
        )
    reduced = (
        compactify(level.reduced.right, rule, even_only),
        compactify(level.reduced.left, rule, even_only),
    )
    orthogonal = None
    if level.orthogonal is not None:
        orthogonal = (
            compactify(level.orthogonal.right, rule, even_only),
            compactify(level.orthogonal.left, rule, even_only),
        )
    return LevelRecord(level.label, tuple(weil), reduced, orthogonal)


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
        return statistics.pvariance(values)
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    numerators = [n * (scale // d) for n, d in ratios]
    count = len(numerators)
    s1 = sum(numerators)
    s2 = sum(n * n for n in numerators)
    return (count * s2 - s1 * s1) / (count * count * scale * scale)


def _bistring_variances(record: LevelRecord) -> list[float]:
    out = []
    for pair in (record.reduced, record.orthogonal):
        if pair is None:
            continue
        right, left = pair
        for mr, ml in zip(right.modes, left.modes):
            values = bistring_modulus(mr, ml, _DIAG_SAMPLES)
            try:
                out.append(_pvariance(values))
            except OverflowError:
                # the variance is finite but beyond the float range
                out.append(math.inf)
    return out


def _diagnostics(
    stack: LevelStack, records: Sequence[LevelRecord], desing: Sequence[Level]
) -> list[dict]:
    diags = []

    bijection = all(rec.bijection_holds() for rec in records)
    diags.append(
        {
            "name": "level_bijection",
            "passed": bijection,
            "detail": f"{len(records)} level(s): weil classes equal cuspidal mode pairs",
        }
    )

    partition_ok = True
    for level in stack.levels:
        reduced = set(level.reduced.indices())
        orth = set(level.orthogonal.indices()) if level.orthogonal else set()
        if reduced & orth:
            partition_ok = False
        if tuple(sorted(reduced | orth)) != level.carrier_indices():
            partition_ok = False
    diags.append(
        {
            "name": "split_partition",
            "passed": partition_ok,
            "detail": "reduced and orthogonal parts partition every carrier",
        }
    )

    variances = [v for rec in records for v in _bistring_variances(rec)]
    osc_ok = all(v < 1e-12 for v in variances)
    worst = max(variances) if variances else 0.0
    diags.append(
        {
            "name": "oscillator_constancy",
            "passed": osc_ok,
            "detail": f"max bistring modulus variance {worst:.3e}",
        }
    )

    classify_ok = True
    for level in desing:
        parts = [level.reduced.right, level.reduced.left]
        if level.orthogonal is not None:
            parts.extend([level.orthogonal.right, level.orthogonal.left])
        for part in parts:
            for sec in part.sections:
                if classify_germ(sec.germ).name not in (REGULAR, MORSE):
                    classify_ok = False
    diags.append(
        {
            "name": "desingularized_sections",
            "passed": classify_ok,
            "detail": "post-desingularization germs classify Regular or Morse",
        }
    )
    return diags


def run_pipeline(config: PipelineConfig) -> Report:
    """Run the full pipeline and assemble the deterministic report."""

    def stage(name: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise PipelineError(name, str(exc)) from exc

    tower = stage("tower", build_tower, config.tower)
    template = config.germ_template or _default_template(config.scenario)

    right = stage(
        "sections", attach_sections, tower, RIGHT, ST, TIME, template
    )
    left = stage("sections", attach_sections, tower, LEFT, ST, TIME, template)
    right = stage("shift", shift, right)
    left = stage("shift", shift, left)
    base = stage("tensor", tensor, right, left)

    predicate = parse_reduce_rule(config.reduce_rule, tower.depth)
    stack = stage(
        "levels",
        generate_levels,
        base,
        config.scenario,
        predicate,
        config.orth_dims,
        config.covering_depths,
    )

    desing = [stage("desingularize", _desingularized, level) for level in stack.levels]
    records = [
        stage("compactify", _level_record, level, config.amplitude, config.even_classes)
        for level in desing
    ]
    correspondence = Correspondence(tuple(records))

    diagnostics = _diagnostics(stack, records, desing)
    rows = [_level_row(level, rec) for level, rec in zip(desing, records)]
    expansions = emit_expansion([level.label for level in stack.levels])

    return Report(
        config=config_to_json(config),
        rule=stack.provenance.rule,
        level_rows=rows,
        cascade=stack.provenance.cascade,
        expansions=expansions,
        diagnostics=diagnostics,
        correspondence=correspondence,
        stack=stack,
    )


# ---------------------------------------------------------------------------
# sample emission


def sample_rows(
    esm: EllipticSemimodule, n: int, x0: float, x1: float
) -> list[tuple[float, float, float, float]]:
    """Evaluate the semimodule on n evenly spaced points of [x0, x1]."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if n > 1 and not x1 > x0:
        raise ValueError("degenerate sample range: need x1 > x0")
    rows = []
    for i in range(n):
        x = x0 if n == 1 else x0 + i * (x1 - x0) / (n - 1)
        z = esm.evaluate(x)
        rows.append((x, z.real, z.imag, abs(z)))
    return rows


def samples_csv(esm: EllipticSemimodule, n: int, x0: float, x1: float) -> str:
    lines = ["x,re,im,modulus"]
    for row in sample_rows(esm, n, x0, x1):
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"
