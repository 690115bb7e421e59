"""End-to-end pipeline: tower -> sheaves -> cascade -> correspondence report.

Reports are byte-deterministic: the same config always serializes to the
same JSON bytes.  That is guaranteed by a small canonical emitter (fixed key
insertion order, floats printed with 17 significant digits) rather than by
the standard library encoder, whose float formatting cannot be pinned.  The
emitter walks the report once, appending chunks in output order, and escapes
strings through one translation table (quote, backslash, control characters).
The level rows, most of a deep report, skip the walk: ``_write_levels``
writes them as text from the level records, each item formatted as its list
is written.  ``Report.chunks`` is the one writer of a report: it yields the
text in blocks, so a caller that streams them to a file never holds the
whole text; ``Report.json_text`` joins them.

The oscillator constancy diagnostic computes each bistring variance exactly,
as ``statistics.pvariance`` does, but from integer sums over the common
power-of-two denominator of the samples instead of ``Fraction`` arithmetic.
Each distinct ``(mu, right amplitude, left amplitude)`` is computed once per run.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain, islice, repeat
from typing import Callable, Iterator, NamedTuple, Sequence

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

# The writers join their pending chunks into one block this often.  A deep
# report is about 100k small chunks; kept in one list until the end, they
# peak at about 4 MB for a 0.6 MB report, against about 1.2 MB in blocks.
_BLOCK_CHUNKS = 2048


_NOT_FINITE = "reports may not contain NaN or infinity"


def _float_text(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(_NOT_FINITE)
    return format(value, ".17g")


def dumps_canonical(obj, pad: str = "") -> str:
    """Serialize to JSON with pinned float formatting (17 significant digits).

    One recursive walk appends the text in output order, each container
    indented two spaces deeper than its parent, so every character is
    copied a bounded number of times whatever the nesting depth.  Strings
    are escaped through the one ``str.translate`` table ``_ESCAPES``.  Keys
    are ``str(key)``, ints ``str(value)``, floats ``format(value, ".17g")``;
    NaN and infinity raise ``ValueError`` and any other type ``TypeError``.
    ``pad`` is the indent of the line that ``obj`` starts on.
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
            append(_float_text(obj))
        elif isinstance(obj, (list, tuple)):
            if not obj:
                append("[]")
                return
            inner = pad + "  "
            if all(type(value) is int for value in obj):  # not bools: one join
                append("[\n" + inner + (",\n" + inner).join(map(str, obj)) + "\n" + pad + "]")
            else:
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

    emit(obj, pad)
    blocks.append("".join(chunks))
    return "".join(blocks)


# ---------------------------------------------------------------------------
# report assembly

# Fixed abscissas for the oscillator constancy diagnostic.
_DIAG_SAMPLES = (0.0, 0.37, 0.75, 1.5, 2.25, -0.6)


class Report(NamedTuple):
    """The report's sections; the level rows are written from ``records`` and ``stack``."""

    config: dict
    rule: int
    records: tuple[LevelRecord, ...]
    cascade: tuple[str, ...]
    expansions: dict
    diagnostics: list[dict]
    stack: LevelStack

    def all_diagnostics_passed(self) -> bool:
        return all(d["passed"] for d in self.diagnostics)

    @property
    def level_rows(self) -> list[dict]:
        """The report's ``levels`` section, read back from ``json_text``."""
        return json.loads(self.json_text())["levels"]

    def json_text(self) -> str:
        return "".join(self.chunks())

    def chunks(self) -> Iterator[str]:
        """The report's text in blocks, in order.  This is the one writer of
        a report: ``json_text`` joins the blocks, and ``correspond --out``
        streams them to its file, so the whole text is never held."""
        config = dumps_canonical(self.config, "  ")
        yield f'{{\n  "config": {config},\n  "rule": {self.rule},\n  "levels": '
        yield from _write_levels(self.stack.levels, self.records)
        for key in ("cascade", "expansions", "diagnostics"):
            yield f',\n  "{key}": ' + dumps_canonical(getattr(self, key), "  ")
        yield "\n}\n"


def _write_levels(levels: Sequence[Level], records: Sequence[LevelRecord]) -> Iterator[str]:
    """Yield the report's ``levels`` list in blocks, written straight from
    each level and the index rows of its record.

    The pending chunks are joined into one block whenever they reach
    ``_BLOCK_CHUNKS``.  A list item is formatted as its list is written, so
    no text outlives its part; a part's mode texts up to ``"sign": `` are
    formatted once and shared by both sides.  Every level row sits at one
    depth of the report, its keys at 6 spaces.
    """
    out: list[str] = []
    append, extend = out.append, out.extend

    def listed(pad: str, items, *ends) -> Iterator[str]:
        """Append the list of the texts ``items``, each followed by its
        ``ends``, or null for None; yield each block as it fills."""
        if items is None:
            append("null")
            return
        chunks = chain.from_iterable(zip(chain(("[",), repeat(",")), items, *ends))
        if next(chunks, None) is None:  # no item
            append("[]")
            return
        append("[")
        while True:
            extend(islice(chunks, max(_BLOCK_CHUNKS - len(out), 0)))
            if len(out) < _BLOCK_CHUNKS:  # every chunk is taken
                break
            block = "".join(out)
            out.clear()
            yield block
        append(f"\n{pad}]")

    sep = "["
    for level, record in zip(levels, records):
        tower = record.tower
        shape = {key: getattr(tower, key) for key in ("quantum_modulus", "offset", "depth")}
        append(f'{sep}\n    {{\n      "label": {dumps_canonical(level.label)},\n      "tower": ')
        append(f'{dumps_canonical(shape, "      ")},\n      "weil_side": ')
        n, offset = tower.quantum_modulus, tower.offset
        weil = (
            f'\n        {{\n          "mu": {mu},\n          "m": {m},\n'
            f'          "degree": {offset + mu * n}\n        }}'
            for mu, m in record.weil
        )
        yield from listed("      ", weil)
        for key, part in zip(("reduced", "orthogonal"), record.parts + (None,)):
            append(f',\n      "{key}": ')
            if part is None:
                append("null")
                continue
            if not all(map(math.isfinite, part.amplitudes)):
                raise ValueError(_NOT_FINITE)
            prefixes = [
                f'\n          {{\n            "mu": {mu},\n            "m": {m},\n'
                f'            "amplitude": {amplitude:.17g},\n            "sign": '
                for (mu, m), amplitude in zip(part.carrier, part.amplitudes)
            ]
            for mark, side, sign in (("{", "right", -1), (",", "left", 1)):
                append(f'{mark}\n        "{side}": ')
                yield from listed("        ", prefixes, repeat(f"{sign}\n          }}"))
            append("\n      }")
        append(f',\n      "mode_pairs": {record.mode_pair_count()},\n      "cover": ')
        cover = level.cover and (
            f"\n        [\n          [\n            {a_mu},\n            {a_m}\n          ],"
            f"\n          [\n            {b_mu},\n            {b_m}\n          ]\n        ]"
            for (a_mu, a_m), (b_mu, b_m) in level.cover
        )
        yield from listed("      ", cover)
        append(',\n      "coverage": ')
        fraction = level.coverage and _float_text(level.coverage[1])
        coverage = level.coverage and (
            f"\n        [\n          [\n            {mu},\n            {m}\n          ],"
            f"\n          {fraction}\n        ]"
            for mu, m in level.coverage[0]
        )
        yield from listed("      ", coverage)
        append("\n    }")
        sep = ","
    append("\n  ]")
    yield "".join(out)


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


# what ``bistring_modulus`` reads of a mode: a run builds no ``Mode``
_String = NamedTuple("_String", [("mu", int), ("amplitude", float), ("sign", int)])


def _bistring_variances(records: Sequence[LevelRecord]) -> list[float]:
    """Every mode pair's bistring modulus variance, in record order.

    A pair's two strings share the class and the amplitude of one record
    row, so its modulus depends on ``(mu, amplitude)`` alone and is computed
    once per distinct key.  A variance is a pure function of the modulus
    values, so it is computed once per distinct modulus tuple.
    """
    by_key: dict[tuple[int, float], float] = {}
    by_modulus: dict[tuple[float, ...], float] = {}
    out = []
    for part in (part for record in records for part in record.parts):
        for (mu, _), amplitude in zip(part.carrier, part.amplitudes):
            variance = by_key.get((mu, amplitude))
            if variance is None:
                right, left = _String(mu, amplitude, -1), _String(mu, amplitude, 1)
                modulus = tuple(bistring_modulus(right, left, _DIAG_SAMPLES))
                variance = by_modulus.get(modulus)
                if variance is None:
                    try:
                        variance = _pvariance(modulus)
                    except OverflowError:  # finite, but beyond the float range
                        variance = math.inf
                    by_modulus[modulus] = variance
                by_key[mu, amplitude] = variance
            out.append(variance)
    return out


def _diagnostics(
    stack: LevelStack,
    records: Sequence[LevelRecord],
    desingularized: dict[Germ, tuple[str, ClassIndex]],
) -> list[dict]:
    """The four report diagnostics.  ``desingularized`` maps each distinct
    desingularized germ to the first level and class that holds it."""
    bijection = all(rec.bijection_holds() for rec in records)
    partition_ok = all(
        level.orthogonal is None
        or set(level.reduced.indices()).isdisjoint(level.orthogonal.indices())
        for level in stack.levels
    )
    variances = _bistring_variances(records)
    worst = max(variances) if variances else 0.0
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
    constant = all(v < 1e-12 for v in variances)
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
    expansions = emit_expansion([level.label for level in stack.levels])

    return Report(
        config=config_to_json(config),
        rule=stack.rule,
        records=tuple(records),
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
