"""The engine agrees with the benchmark's config-only oracle.

``perfbench/check.py`` predicts from a config alone whether the pipeline
rejects it and, if not, every level's reduced and orthogonal class indices.
It shares no code with the package and is executed here from its text,
never imported or edited, as is the benchmark's config generator
``perfbench/gen.py``.  Every config the oracle rejects must raise
ValueError at config time; every config it accepts must run to a report
that passes its diagnostics and replays from its own config echo.
"""

import copy
import json
import types
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from germtower import PipelineError, config_from_json, run_pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str) -> types.ModuleType:
    path = PERFBENCH / name
    module = types.ModuleType(f"perfbench_{path.stem}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


CHECK = load("check.py")
GEN = load("gen.py")

# None leaves the key out of the config.
SCENARIOS = (
    None,
    "none",
    "None",
    "fold",
    "Fold",
    "cusp",
    "CUSP",
    "swallowtail",
    "Swallowtail",
    "elliptic-umbilic",
    "elliptic_umbilic",
    "EllipticUmbilic",
    "hyperbolic-umbilic",
    "hyperbolic_umbilic",
    "HyperbolicUmbilic",
)


@st.composite
def reduce_rules(draw, depth: int) -> str:
    """A rule of the reduce grammar, with optional spaces and letter case."""
    pad = draw(st.sampled_from(["", " "]))
    # comparisons are listed twice: they hold most of the grammar's forms
    form = draw(st.sampled_from(["all", "none", "parity", "compare", "compare"]))
    if form in ("all", "none"):
        rule = draw(st.sampled_from([form, form.upper()]))
    elif form == "parity":
        rule = f"mu{pad}%{pad}2{pad}=={pad}{draw(st.integers(0, 1))}"
    else:
        op = draw(st.sampled_from(["<=", "<", ">", ">=", "=="]))
        bound = draw(st.sampled_from(["H", "h"]) | st.integers(0, depth + 1).map(str))
        rule = f"mu{pad}{op}{pad}{bound}"
    return pad + rule + pad


@st.composite
def germ_jsons(draw, nvars: int) -> dict:
    """Germ JSON with a nonzero x^2 coefficient, so the shifted germ has a
    nonzero gradient and every desingularized germ classifies Regular."""
    square = [2] + [0] * (nvars - 1)
    coeffs = [[square, draw(st.sampled_from(["1", "-2", "3/2"]))]]
    for _ in range(draw(st.integers(0, 3))):
        exps = draw(st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars))
        if exps != square:
            coeffs.append([exps, draw(st.sampled_from(["1", "-1", "5/7", "2"]))])
    germ = {"nvars": nvars, "coeffs": coeffs}
    max_degree = draw(st.none() | st.integers(2, 5))
    if max_degree is not None:
        germ["max_degree"] = max_degree
    return germ


@st.composite
def germ_templates(draw, keys: list, scenario) -> dict:
    """A germ per class in the scenario's variable count; classes drawn
    from a small pool share one JSON object, the others get their own."""
    name = str(scenario).lower()
    if "umbilic" in name:
        nvars = 2
    elif scenario is None or name == "none":
        nvars = draw(st.integers(1, 2))
    else:
        nvars = 1
    pool = draw(st.lists(germ_jsons(nvars), min_size=1, max_size=2))
    picks = st.sampled_from(pool) | germ_jsons(nvars)
    return {key: draw(picks) for key in keys}


@st.composite
def configs(draw) -> dict:
    modulus = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 8))
    tower = {
        "quantum_modulus": modulus,
        "offset": draw(st.integers(0, modulus - 1)),
        "depth": depth,
    }
    if draw(st.booleans()):
        tower["multiplicity"] = draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth))
    config = {"tower": tower}
    optional = {
        "scenario": st.sampled_from(SCENARIOS),
        "reduce": st.none() | reduce_rules(depth),
        "orth_dims": st.sampled_from([None, 2, 3]),
        "amplitude": st.sampled_from([None, "unit", "mu", "table"]),
        # Depths stay in 1..depth, the range perfbench/gen.py draws: out of
        # it the oracle predicts a run on one-level scenarios, while the
        # engine rejects such depths for every scenario (ROADMAP item 1).
        "covering_depths": st.none() | st.lists(st.integers(1, depth), min_size=2, max_size=2),
        "even_classes": st.sampled_from([None, False, True]),
    }
    for key, values in optional.items():
        value = draw(values)
        if value is not None:
            config[key] = value
    multiplicity = tower.get("multiplicity", [1] * depth)
    keys = [
        f"{mu},{m}" for mu in range(1, depth + 1) for m in range(1, multiplicity[mu - 1] + 1)
    ]
    if draw(st.booleans()):
        # complete and in the scenario's variable count, so the oracle's
        # verdict stands
        config["germ_template"] = draw(germ_templates(keys, config.get("scenario")))
    if config.get("amplitude") == "table":
        # complete, so the oracle's verdict stands; small, so the bistring
        # variances stay below the diagnostic's bound; JSON numbers only,
        # as the oracle does not judge amplitudes (nor draws negative ones)
        amplitude = st.integers(0, 20) | st.floats(0, 20)
        config["amplitude"] = {"table": {key: draw(amplitude) for key in keys}}
    return config


def check_config(config: dict):
    """Run one config and hold it to the oracle; return the report, if any."""
    levels = CHECK.expected_levels(config)
    try:
        parsed = config_from_json(config)
    except ValueError:
        assert levels is None, config
        return None
    assert levels is not None, config
    try:
        report = run_pipeline(parsed)
    except PipelineError as exc:
        raise AssertionError(f"accepted config failed in the run: {exc}; {config}") from exc
    assert report.all_diagnostics_passed(), config
    assert CHECK.check_report(config, json.loads(report.json_text()), levels) == []
    return report


def interned(config):
    """The parsed config with each template germ shared by every class whose
    germ has its value; parsing gives each class its own."""
    pool = {}
    out = copy.copy(config)
    out.germ_template = {
        idx: pool.setdefault(germ, germ)
        for idx, germ in config.germ_template.items()
    }
    return out


@settings(max_examples=300, deadline=None)
@given(configs())
def test_accept_reject_and_levels_match_the_oracle(config):
    report = check_config(config)
    if report is not None:
        text = report.json_text()
        echo = json.loads(text)["config"]
        assert run_pipeline(config_from_json(echo)).json_text() == text
        if "germ_template" in config:
            assert run_pipeline(interned(config_from_json(config))).json_text() == text


def test_generated_cli_small_configs_never_fail_in_the_run():
    reports = [
        check_config(GEN.op_config("cli-small", seed, op))
        for seed in (1, 2)
        for op in range(64)
    ]
    # both verdicts occur, so neither branch of check_config is idle
    assert any(r is None for r in reports) and any(r is not None for r in reports)
