"""Run configuration: config JSON, its checks and the CLI flags written as it.

``PipelineConfig`` is the one place that holds each config key's default
and check; ``config_from_json`` and ``config_to_json`` read and echo the
JSON form.  The input helpers that both CLI modules need live here too:
strict JSON loading (no repeated key) and the config flags written as the
same JSON.  Number text must be ASCII: ``int`` and ``float`` also read the
decimal digits of other scripts, which would be a silent coercion.  Integer
text is digits alone, with an optional leading minus; float text is a JSON
number.
"""

from __future__ import annotations

import json
import math
import re
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

from .blowup import plan_levels
from .cuspidal import unit_amplitude
from .germs import CATALOGUE, Germ, germ_from_json, germ_to_json, normal_form
from .tower import (
    INT_TEXT_BOUND,
    ClassIndex,
    TowerConfig,
    build_tower,
    int_list,
    require,
    tower_config_from_json,
    tower_config_to_json,
)

# The CLI's exit codes, here so that both `cli` and `tools` can import them.
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_DIAGNOSTIC = 4

# Each catalogue name's CamelCase words, lower-cased and joined by "-", "_"
# or nothing: "elliptic-umbilic", "elliptic_umbilic", "ellipticumbilic".
_SCENARIO_ALIASES = {
    sep.join(re.findall("[A-Z][a-z]*", name)).lower(): name
    for name in CATALOGUE
    for sep in ("-", "_", "")
}


def normalize_scenario(value) -> str | None:
    require(value is None or isinstance(value, str), "scenario", "a name or null", value)
    if value is None or value.lower() in ("", "none"):
        return None
    name = _SCENARIO_ALIASES.get(value.lower())
    if name is None:
        raise ValueError(f"unknown scenario {value!r}")
    return name


_RULE_RE = re.compile(r"^mu\s*(<=|>=|==|<|>)\s*(h|\d+)$", re.ASCII)
_PARITY_RE = re.compile(r"^mu\s*%\s*2\s*==\s*([01])$", re.ASCII)

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
    config that cannot run raises ValueError here, before the run.
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
        st = self.plan[0]
        if self.germ_template is not None:
            for idx in st.carrier:
                if idx not in self.germ_template:
                    raise ValueError(f"germ_template has no entry for class {idx.mu},{idx.m}")
            if self.scenario is not None:
                nvars = normal_form(self.scenario).nvars
                for idx in st.parts()[1]:
                    if self.germ_template[idx].nvars != nvars:
                        raise ValueError(
                            f"germ_template: class {idx.mu},{idx.m} hosts the "
                            f"{self.scenario} germ in {nvars} variable(s)"
                        )
        if isinstance(self.amplitude, dict):
            # every level's classes are ST's, so ST's parts name the first gap
            for idx in chain(*st.parts()):
                if idx not in self.amplitude and not (self.even_classes and idx.mu % 2):
                    raise ValueError(f"amplitude table has no entry for class {idx.mu},{idx.m}")


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
    """A germ per class key, from germ JSON objects; None when left out.
    The report echoes each coefficient ``c``, and a failing diagnostic the
    shifted ``c * e`` of a term's first exponent ``e``: both write as text."""
    if value == ():
        return None
    if not isinstance(value, dict) or not all(isinstance(g, dict) for g in value.values()):
        raise ValueError("germ_template must map class keys to germ JSON objects")
    table = {_class_key(key, "germ_template"): germ_from_json(g) for key, g in value.items()}
    for idx, germ in table.items():
        values = (v for exps, c in germ.terms for v in (c, c * exps[0]))
        if any(max(abs(v.numerator), v.denominator) >= INT_TEXT_BOUND for v in values):
            raise ValueError("germ_template: class %d,%d has a coefficient past 4300 digits" % idx)
    return table


def _amplitude_callable(value) -> Callable[[ClassIndex], float]:
    if value == "unit":
        return unit_amplitude
    if value == "mu":
        return lambda idx: float(idx.mu)
    # the config checked that the table covers every compactified class
    return dict(value).__getitem__


# The config keys that the run flags write; each flag's dest is its key.
_RUN_FLAGS = ("scenario", "reduce", "orth_dims", "amplitude", "covering_depths", "even_classes")
_CONFIG_KEYS = {"tower", *_RUN_FLAGS, "germ_template"}


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
# input: JSON files and config flags


def _unique_keys(pairs: list) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"JSON object repeats the key {key!r}")
        out[key] = value
    return out


def load_json(text: str, source: str):
    """Parse one JSON input named ``source``; an object that repeats a key,
    or nesting too deep for the parser, is an error naming it."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError(f"{source}: JSON nests too deeply to parse") from None


def _load_json_file(path: str):
    """``load_json`` of a file's text, or of stdin for ``-``."""
    if path == "-":
        return load_json(sys.stdin.read(), "stdin")
    return load_json(Path(path).read_text(encoding="utf-8"), path)


def _number(kind: type, accepts: Callable[[str], object]) -> Callable[[str], int | float]:
    """``kind`` (``int`` or ``float``) of text that ``accepts`` admits; both
    also read the decimal digits of other scripts, such as ``'٣'``, and read
    ``' +1_0'`` as 10.  The parser keeps the kind's name, which argparse
    writes in its error."""

    def parse(text: str):
        if not accepts(text):
            raise ValueError(f"invalid {kind.__name__} value: {text!r}")
        return kind(text)

    parse.__name__ = kind.__name__
    return parse


# A JSON number; anchored at the end, so that ``.match`` is a full match,
# as argparse calls its negative-number pattern.
JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?\Z")
ascii_int = _number(int, re.compile("-?[0-9]+").fullmatch)
ascii_float = _number(float, JSON_NUMBER.match)


def _parse_int_list(text: str) -> list[int]:
    """A comma list of integers; an empty entry is an error like any other."""
    return [ascii_int(part) for part in text.split(",")]


# The flags whose text is a comma list of integers.
_LIST_FLAGS = ("multiplicity", "complex_multiplicity", "covering_depths")


def _given(args, keys) -> dict:
    """The flags among ``keys`` given on the command line, as config JSON."""
    given = vars(args)
    return {
        key: _parse_int_list(given[key]) if key in _LIST_FLAGS else given[key]
        for key in keys
        if key in given
    }

