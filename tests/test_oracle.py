"""The engine agrees with the benchmark's config-only oracle.

``perfbench/check.py`` predicts from a config alone whether the pipeline
rejects it and, if not, every level's reduced and orthogonal class indices.
It shares no code with the package and is executed here from its text,
never imported or edited.  Each generated config must run to a report,
raise ValueError at config time, or raise PipelineError naming a stage
that ``perfbench/run.py`` counts; the oracle must predict which.
"""

import ast
import json
import types
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from germtower import PipelineError, config_from_json, run_pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_check() -> types.ModuleType:
    path = PERFBENCH / "check.py"
    module = types.ModuleType("perfbench_check")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def benchmark_stages() -> tuple[str, ...]:
    runner = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    (stages,) = [
        ast.literal_eval(node.value)
        for node in runner.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["STAGES"]
    ]
    return stages


CHECK = load_check()
STAGES = benchmark_stages()

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
        "amplitude": st.sampled_from([None, "unit", "mu"]),
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
    return config


@settings(max_examples=300, deadline=None)
@given(configs())
def test_accept_reject_and_levels_match_the_oracle(config):
    levels = CHECK.expected_levels(config)
    try:
        parsed = config_from_json(config)
    except ValueError:
        assert levels is None, config
        return
    try:
        report = run_pipeline(parsed)
    except PipelineError as exc:
        assert exc.stage in STAGES, exc
        assert levels is None, (config, str(exc))
        return
    assert levels is not None, config
    assert report.all_diagnostics_passed()
    assert CHECK.check_report(config, json.loads(report.json_text()), levels) == []
