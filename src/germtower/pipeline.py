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
from typing import Callable, NamedTuple, Sequence

from .bisemigroup import FREE, ST, expand_sum_product
from .blowup import Level, LevelStack, desingularize, generate_levels, plan_levels
from .cuspidal import EllipticSemimodule, LevelRecord, bistring_modulus, level_record
from .germs import (
    CATALOGUE,
    MORSE,
    REGULAR,
    Germ,
    classify_germ,
    format_germ,
    germ_from_json,
    germ_to_json,
    normal_form,
)
from .sheaves import TIME, Bisemisheaf, attach_sections, shift
from .tower import (
    RIGHT,
    ClassIndex,
    TowerConfig,
    build_tower,
    int_list,
    require,
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
    require(value is None or isinstance(value, str), "scenario", "a name or null", value)
    if value is None or value.lower() in ("", "none"):
        return None
    name = _SCENARIO_ALIASES.get(value.lower())
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


def _class_key(key, field: str) -> ClassIndex:
    """The class a table key names; it must read ``mu,m`` as the echo writes it."""
    parts = key.split(",") if isinstance(key, str) else ()
    try:
        index = ClassIndex(*map(int, parts))
    except (TypeError, ValueError):
        index = None
    if index is None or f"{index.mu},{index.m}" != key:
        raise ValueError(f"{field}: class keys look like 'mu,m', got {key!r}")
    return index


class PipelineConfig:
    """Everything a run needs; validated on construction.

    The parameters take the JSON forms of the config keys (README's
    config-keys table; ``reduce_rule`` is the key ``reduce``), and this is
    the one place that holds each one's default and check, so Python and
    JSON callers meet the same rules and nothing is coerced.  ``tower`` is a
    ``TowerConfig``; lists may also be tuples.  ``germ_template`` left out
    gives every class the scenario's default germ.

    ``orth_dims`` (2 or 3) is validated and echoed but changes no level.
    ``plan`` is derived: every level's classes from ``plan_levels``, so a
    config that cannot run raises ValueError here, before the run.  Two
    configs are equal when all their normalized fields are.
    """

    def __init__(
        self,
        tower: TowerConfig,
        scenario: str | None = None,
        reduce_rule: str = "mu<=H",
        orth_dims: int = 3,
        amplitude: str | dict = "unit",
        covering_depths: Sequence[int] | None = None,
        even_classes: bool = False,
        germ_template: dict | tuple = (),
    ):
        require(isinstance(tower, TowerConfig), "tower", "a TowerConfig", tower)
        require(isinstance(reduce_rule, str), "reduce", "a rule string", reduce_rule)
        require(type(orth_dims) is int and orth_dims in (2, 3), "orth_dims", "2 or 3", orth_dims)
        depths = covering_depths
        pair = depths is None or (int_list(depths) and len(depths) == 2)
        require(pair, "covering_depths", "null or a pair [d1, d2] of integers", depths)
        require(type(even_classes) is bool, "even_classes", "true or false", even_classes)
        self.tower = tower
        self.scenario = normalize_scenario(scenario)
        self.reduce_rule = reduce_rule
        self.orth_dims = orth_dims
        self.amplitude = _amplitude(amplitude)
        self.covering_depths = None if depths is None else tuple(depths)
        self.even_classes = even_classes
        self.germ_template = _germ_template(germ_template)
        predicate = parse_reduce_rule(reduce_rule, tower.depth)
        tower = build_tower(tower)
        tables = (("amplitude", self.amplitude), ("germ_template", self.germ_template))
        for field, table in tables:
            for idx in table if isinstance(table, dict) else ():
                if not tower.contains(idx):
                    raise ValueError(f"{field}: class {idx.mu},{idx.m} is not in the tower")
        self.plan = plan_levels(
            tower, self.scenario, predicate, self.covering_depths, self.even_classes
        )
        if self.germ_template is not None:
            for idx in tower.class_indices():
                if idx not in self.germ_template:
                    raise ValueError(f"germ_template has no entry for class {idx.mu},{idx.m}")
            if self.scenario is not None:
                nvars = normal_form(self.scenario).nvars
                for idx in self.plan[0].orthogonal:
                    if self.germ_template[idx].nvars != nvars:
                        raise ValueError(
                            f"germ_template: class {idx.mu},{idx.m} hosts the "
                            f"{self.scenario} germ in {nvars} variable(s)"
                        )
        if isinstance(self.amplitude, dict):
            for level in self.plan:
                for idx in level.reduced + level.orthogonal:
                    if idx not in self.amplitude and not (self.even_classes and idx.mu % 2):
                        raise ValueError(f"amplitude table has no entry for class {idx.mu},{idx.m}")

    def __eq__(self, other):
        if type(other) is not PipelineConfig:
            return NotImplemented
        return vars(self) == vars(other)


def finite_float(value) -> float | None:
    """A JSON number (int or float, not bool) as a finite float; else None."""
    if type(value) not in (int, float):
        return None
    try:
        out = float(value)
    except OverflowError:
        return None
    return out if math.isfinite(out) else None


def _amplitude(value) -> str | dict[ClassIndex, float]:
    """``unit``, ``mu``, or ``{"table": {"mu,m": number >= 0}}`` read as a class table."""
    if value in ("unit", "mu"):
        return value
    if not (isinstance(value, dict) and set(value) == {"table"}):
        got = f"keys {sorted(value)}" if isinstance(value, dict) else repr(value)
        raise ValueError(
            f"amplitude must be 'unit', 'mu' or an object whose only key is 'table', got {got}"
        )
    table = value["table"]
    require(isinstance(table, dict), "amplitude table", "an object", table)
    out = {}
    for key, amp in table.items():
        index = _class_key(key, "amplitude")
        number = finite_float(amp)
        if number is None or number < 0:
            raise ValueError(
                f"amplitude of class {key!r} must be a finite number >= 0, got {amp!r}"
            )
        out[index] = number
    return out


def _germ_template(value) -> dict[ClassIndex, Germ] | None:
    """A germ per class key, from germ JSON objects; None when left out."""
    if value == ():
        return None
    if not isinstance(value, dict) or not all(isinstance(g, dict) for g in value.values()):
        raise ValueError("germ_template must map class keys to germ JSON objects")
    return {_class_key(key, "germ_template"): germ_from_json(g) for key, g in value.items()}


def _amplitude_callable(value) -> Callable[[ClassIndex], float]:
    if value == "unit":
        return lambda idx: 1.0
    if value == "mu":
        return lambda idx: float(idx.mu)
    # the config checked that the table covers every compactified class
    return dict(value).__getitem__


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
    """A PipelineConfig from config JSON.

    The keys are checked here (no unknown key, ``tower`` present); their
    values by ``tower_config_from_json`` and ``PipelineConfig``.
    """
    if not isinstance(data, dict):
        raise ValueError("pipeline config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "tower" not in data:
        raise ValueError("pipeline config is missing 'tower'")
    fields = {"reduce_rule" if key == "reduce" else key: value for key, value in data.items()}
    fields["tower"] = tower_config_from_json(data["tower"])
    return PipelineConfig(**fields)


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
            f"{k.mu},{k.m}": germ_to_json(g)
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


class Report(NamedTuple):
    """The report's sections, plus the level stack they were read from."""

    config: dict
    rule: int
    level_rows: list[dict]
    cascade: tuple[str, ...]
    expansions: dict
    diagnostics: list[dict]
    stack: LevelStack

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


def _pair_json(pair: tuple[EllipticSemimodule, EllipticSemimodule] | None) -> dict | None:
    return None if pair is None else {"right": pair[0].to_json(), "left": pair[1].to_json()}


def _level_row(level: Level, record: LevelRecord) -> dict:
    return {
        "label": level.label,
        "tower": {
            "quantum_modulus": level.reduced.tower.quantum_modulus,
            "offset": level.reduced.tower.offset,
            "depth": level.reduced.tower.depth,
        },
        "weil_side": [
            {"mu": w.mu, "m": w.m, "degree": w.degree} for w in record.weil_side
        ],
        "reduced": _pair_json(record.reduced),
        "orthogonal": _pair_json(record.orthogonal),
        "mode_pairs": record.mode_pair_count(),
        "cover": None
        if level.cover is None
        else [[list(a), list(b)] for a, b in level.cover],
        "coverage": None
        if level.coverage is None
        else [[list(idx), frac] for idx, frac in level.coverage],
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
    for right, left in record.pairs():
        for mr, ml in zip(right.modes, left.modes):
            values = bistring_modulus(mr, ml, _DIAG_SAMPLES)
            try:
                out.append(_pvariance(values))
            except OverflowError:
                # the variance is finite but beyond the float range
                out.append(math.inf)
    return out


def _diagnostics(
    stack: LevelStack,
    records: Sequence[LevelRecord],
    desingularized: dict[Germ, tuple[str, ClassIndex]],
) -> list[dict]:
    """The four report diagnostics.  ``desingularized`` maps each distinct
    desingularized germ to the first level and class that holds it."""
    diags = []

    bijection = all(rec.bijection_holds() for rec in records)
    diags.append(
        {
            "name": "level_bijection",
            "passed": bijection,
            "detail": f"{len(records)} level(s): weil classes equal cuspidal mode pairs",
        }
    )

    partition_ok = all(
        level.orthogonal is None
        or set(level.reduced.indices()).isdisjoint(level.orthogonal.indices())
        for level in stack.levels
    )
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
    diags.append({"name": "desingularized_sections", "passed": classify_ok, "detail": detail})
    return diags


def run_pipeline(config: PipelineConfig) -> Report:
    """Run the full pipeline and assemble the deterministic report."""

    def stage(name: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise PipelineError(name, str(exc)) from exc

    tower = stage("tower", build_tower, config.tower)
    if config.germ_template is None:
        template = _default_template(config.scenario)
    else:
        template = config.germ_template.__getitem__

    right = stage("sections", attach_sections, tower, RIGHT, ST, TIME, template)
    right = stage("shift", shift, right)
    base = stage("tensor", Bisemisheaf, right)

    stack = stage("levels", generate_levels, base, config.scenario, config.plan)

    # the left of every bisemisheaf holds the right's germs, so the right
    # parts carry every germ.  Each distinct germ object is visited once,
    # at its first class; each distinct value is classified once, and keeps
    # its first place in level order for the diagnostic
    desingularized: dict[Germ, tuple[str, ClassIndex]] = {}
    for level in stack.levels:
        for part in (level.reduced, level.orthogonal):
            if part is not None:
                flat = stage("desingularize", desingularize, part.right)
                firsts: dict[int, tuple[Germ, ClassIndex]] = {}
                for idx, germ in zip(flat.carrier, flat.germs):
                    firsts.setdefault(id(germ), (germ, idx))
                for germ, idx in firsts.values():
                    desingularized.setdefault(germ, (level.label, idx))
    amplitude_rule = _amplitude_callable(config.amplitude)
    records = [
        stage(
            "compactify",
            level_record,
            level.label,
            level.reduced,
            level.orthogonal,
            amplitude_rule,
            config.even_classes,
        )
        for level in stack.levels
    ]

    diagnostics = _diagnostics(stack, records, desingularized)
    rows = [_level_row(level, rec) for level, rec in zip(stack.levels, records)]
    expansions = emit_expansion([level.label for level in stack.levels])

    return Report(
        config=config_to_json(config),
        rule=stack.rule,
        level_rows=rows,
        cascade=stack.cascade,
        expansions=expansions,
        diagnostics=diagnostics,
        stack=stack,
    )


# ---------------------------------------------------------------------------
# sample emission

# The most points ``sample_rows`` evaluates.  Every point is one row in
# memory and one CSV line, so a larger count would exhaust memory before it
# ended; the bound is fixed, not a setting.
MAX_SAMPLES = 100_000


def sample_rows(
    esm: EllipticSemimodule, n: int, x0: float, x1: float
) -> list[tuple[float, float, float, float]]:
    """Evaluate the semimodule on n evenly spaced points of [x0, x1].

    ``n`` may not exceed ``MAX_SAMPLES``.  A value that leaves the float
    range, in a part or in its modulus, raises ValueError naming the point.
    """
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if n > MAX_SAMPLES:
        raise ValueError(f"sample count {n} exceeds the budget of {MAX_SAMPLES} samples")
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"sample range must be finite, got [{x0}, {x1}]")
    if n > 1 and not x1 > x0:
        raise ValueError("degenerate sample range: need x1 > x0")
    rows = []
    for i in range(n):
        x = x0 if n == 1 else x0 + i * (x1 - x0) / (n - 1)
        z = esm.evaluate(x)
        try:
            modulus = abs(z)  # inf or nan when a part is
        except OverflowError:  # finite parts, modulus beyond the float range
            modulus = math.inf
        if not math.isfinite(modulus):
            raise ValueError(f"the semimodule value at x={x} is not finite")
        rows.append((x, z.real, z.imag, modulus))
    return rows


def samples_csv(esm: EllipticSemimodule, n: int, x0: float, x1: float) -> str:
    lines = ["x,re,im,modulus"]
    for row in sample_rows(esm, n, x0, x1):
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"
