"""Command line behavior: output shapes, exit codes, file emission."""

import contextlib
import copy
import errno
import io
import json
import math
import os
import resource
import stat
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germtower.cli import (
    EXIT_CONFIG,
    EXIT_CONTRACT,
    EXIT_DIAGNOSTIC,
    EXIT_OK,
    main,
)
from germtower.pipeline import MAX_SAMPLES, PipelineConfig, Report, run_pipeline
from germtower.tower import TowerConfig, tower_config_to_json

GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden_config.json"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_CLASSES = ("1,1", "2,1", "2,2", "3,1", "4,1", "5,1", "5,2", "6,1")
SQUARE = {"nvars": 1, "coeffs": [[[2], "1"]]}
UNIT_TABLE = dict.fromkeys(GOLDEN_CLASSES, 1.0)
# the golden config as flags, all but its amplitude
GOLDEN_FLAGS = (
    "-N", "2", "--offset", "1", "--depth", "6", "--multiplicity", "1,2,1,1,2,1",
    "--scenario", "swallowtail", "--reduce", "mu<=3",
)


class Raw(NamedTuple):
    """JSON text that a dict cannot hold, such as an object that repeats a
    key, written as it stands; ``named`` is the key its error must name."""

    text: str
    named: str


def json_text(value) -> str:
    """``json.dumps(value)``, with each ``Raw`` value written as its text."""
    if isinstance(value, Raw):
        return value.text
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {json_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(json_text, value)) + "]"
    return json.dumps(value)


def raws(value):
    """Every ``Raw`` value inside a JSON value."""
    if isinstance(value, Raw):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from raws(item)


def repeated(key: str, first, second) -> Raw:
    """The value of ``key`` written as ``first``, then ``key`` again with ``second``."""
    return Raw(f"{json_text(first)}, {json.dumps(key)}: {json_text(second)}", key)


def golden_variant(tmp_path, **changes):
    """Write the golden config with top-level keys replaced; return its path."""
    data = json.loads(GOLDEN_CONFIG.read_text())
    data.update(changes)
    path = tmp_path / "config.json"
    path.write_text(json_text(data))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tower_prints_classes_and_places(capsys, tmp_path):
    out_file = tmp_path / "tower.json"
    code, out, err = run_cli(
        capsys,
        "tower", "--modulus", "2", "--offset", "1", "--depth", "3",
        "--complex-multiplicity", "1,3,1", "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert "tower: N=2 offset=1 depth=3" in out
    assert "class (1,1)  degree 3" in out
    assert "class (3,1)  degree 7" in out
    assert "place mu=2" in out
    payload = json.loads(out_file.read_text())
    assert [c["degree"] for c in payload["classes"]] == [3, 5, 7]
    assert payload["config"] == tower_config_to_json(TowerConfig(2, 1, 3, (), (1, 3, 1)))


def test_tower_requires_modulus_and_depth(capsys):
    code, out, err = run_cli(capsys, "tower", "--offset", "1")
    assert code == EXIT_CONFIG
    assert "configuration error" in err
    # a depth beyond the class budget is refused before anything is built
    code, out, err = run_cli(capsys, "tower", "-N", "2", "--depth", str(10**12))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("configuration error:") and "budget" in err


def test_tower_config_file(capsys, tmp_path):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"quantum_modulus": 3, "offset": 2, "depth": 2}))
    code, out, _ = run_cli(capsys, "tower", "--config", str(cfg))
    assert code == EXIT_OK
    assert "N=3 offset=2 depth=2" in out


def test_classify_stdin(capsys, monkeypatch):
    lines = "\n".join(
        [
            json.dumps({"nvars": 1, "coeffs": [[[3], "1"]]}),
            json.dumps({"nvars": 2, "coeffs": [[[3, 0], "1"], [[1, 2], "-3"]]}),
            json.dumps({"nvars": 1, "coeffs": [[[2], "1"]]}),
        ]
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    code, out, _ = run_cli(capsys, "classify")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "Fold corank=1 codim=1",
        "EllipticUmbilic corank=2 codim=3",
        "Morse corank=0 codim=0",
    ]


def test_classify_file(capsys, tmp_path):
    path = tmp_path / "germs.jsonl"
    path.write_text(json.dumps({"nvars": 1, "coeffs": [[[5], "-2"]]}) + "\n")
    code, out, _ = run_cli(capsys, "classify", "--file", str(path))
    assert code == EXIT_OK
    assert out.strip() == "Swallowtail corank=1 codim=3"


def assert_germ_rejected(capsys, tmp_path, germ):
    """The germ JSON text exits 2 through classify, unfold and germ_template."""
    path = tmp_path / "germs.jsonl"
    path.write_text(germ + "\n")
    for argv in (["classify", "--file", str(path)], ["unfold", "--germ", germ]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, ""), argv
        assert err.startswith("configuration error:") and err.count("\n") == 1, argv

    cfg = tmp_path / "config.json"
    cfg.write_text(
        '{"tower": {"quantum_modulus": 2, "offset": 1, "depth": 1}, '
        '"germ_template": {"1,1": %s}}' % germ
    )
    code, _, err = run_cli(capsys, "correspond", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("coeff", ['"1/0"', "1e400", "Infinity", "true"])
def test_non_rational_coefficient_is_a_config_error(capsys, tmp_path, coeff):
    assert_germ_rejected(capsys, tmp_path, '{"nvars": 1, "coeffs": [[[3], %s]]}' % coeff)


@pytest.mark.parametrize(
    "germ",
    [
        '{"nvars": 1, "coeffs": [[3, 1]]}',
        '{"nvars": 1, "coeffs": [[[3], "1"]], "max_degree": "x"}',
        '{"nvars": 1, "coeffs": [[[3], "1e30000000"]]}',
        '{"nvars": 1, "coeffs": [[[3], "1"]], "bogus": 5}',
        '{"nvars": 1, "coeffs": [[[3], "1"]], "max_degree": null}',
        '{"nvars": 1, "coeffs": [[[3], "1"]], "nvars": 1}',
    ],
    ids=[
        "exponents-not-a-list", "max-degree-string", "huge-decimal-exponent",
        "unknown-key", "max-degree-null", "repeated-key",
    ],
)
def test_malformed_germ_is_a_config_error(capsys, tmp_path, germ):
    assert_germ_rejected(capsys, tmp_path, germ)


@pytest.mark.parametrize(
    "changes",
    [
        {"covering_depths": 5},
        {"germ_template": []},
        {"reduce": 5},
        {"tower": {"quantum_modulus": 2, "offset": 1, "depth": 6,
                   "multiplicity": [1, None, 1, 1, 2, 1]}},
        {"covering_depths": [3]},
        {"covering_depths": [3, 2, 1]},
        {"covering_depths": []},
        {"covering_depths": [4, 5]},
        {"amplitude": {"table": {"1,1": None}}},
        {"amplitude": {"table": {"1,1": [1.0]}}},
        {"amplitude": {"table": 5}},
        {"amplitude": {"table": {k: True for k in GOLDEN_CLASSES}}},
        {"amplitude": {"table": dict.fromkeys(GOLDEN_CLASSES, -1.0)}},
        {"amplitude": {"table": dict.fromkeys(GOLDEN_CLASSES, "inf")}},
        {"amplitude": {"table": dict.fromkeys(GOLDEN_CLASSES, 10**400)}},
        {"amplitude": {"table": dict.fromkeys(GOLDEN_CLASSES[1:], 1.0)}},
        {"reduce": "mu<=0"},
        {"reduce": "all"},
        {"covering_depths": [3, 1]},
        {"germ_template": {k: {"nvars": 2, "coeffs": [[[2, 0], "1"]]} for k in GOLDEN_CLASSES}},
        {"even_classes": "no"},
        {"even_classes": None},
        {"amplitude": {"table": {**dict.fromkeys(GOLDEN_CLASSES, 1.0), "99,7": 3.0}}},
        {"germ_template": {**dict.fromkeys(GOLDEN_CLASSES, SQUARE), "50,3": SQUARE}},
        {"amplitude": {"table": {**dict.fromkeys(GOLDEN_CLASSES, 1.0), "1,x": 1.0}}},
        {"germ_template": {**dict.fromkeys(GOLDEN_CLASSES, SQUARE), "a,1": SQUARE}},
        {"amplitude": UNIT_TABLE},
        {"amplitude": {"table": UNIT_TABLE, "scale": 2.0}},
        {"amplitude": None},
        {"amplitude": {"table": dict.fromkeys(GOLDEN_CLASSES, "1.5")}},
        {"amplitude": {"table": {**UNIT_TABLE, "01,1": 2.0}}},
        {"amplitude": {"table": {**UNIT_TABLE, " 1 , 1 ": 2.0}}},
        {"germ_template": {**dict.fromkeys(GOLDEN_CLASSES, SQUARE), "01,1": SQUARE}},
        {"germ_template": {**dict.fromkeys(GOLDEN_CLASSES, SQUARE), " 1 , 1 ": SQUARE}},
        {"germ_template": None},
        {"reduce": repeated("reduce", "mu<=3", "mu<=2")},
        {"tower": {"quantum_modulus": 2, "offset": 1, "depth": 6,
                   "multiplicity": repeated("multiplicity", [1, 2, 1, 1, 2, 1], [1] * 6)}},
        {"tower": {"quantum_modulus": 2, "offset": 1, "depth": repeated("depth", 6, 4),
                   "multiplicity": [1, 2, 1, 1, 2, 1]}},
        {"amplitude": {"table": repeated("table", UNIT_TABLE, UNIT_TABLE)}},
        {"amplitude": {"table": {**UNIT_TABLE, "1,1": repeated("1,1", 1.0, 2.0)}}},
    ],
    ids=[
        "covering-depths-int", "germ-template-list", "reduce-int", "multiplicity-null",
        "covering-depths-one", "covering-depths-three", "covering-depths-empty",
        "covering-depths-swallowtail-d2-above-d1",
        "amplitude-null", "amplitude-list", "amplitude-table-int", "amplitude-bool",
        "amplitude-negative", "amplitude-inf", "amplitude-beyond-float", "amplitude-missing-class",
        "reduce-empties-reduced-part", "reduce-empties-space-part",
        "covering-depths-empty-covering", "germ-template-nvars",
        "even-classes-string", "even-classes-null",
        "amplitude-class-outside-tower", "germ-template-class-outside-tower",
        "amplitude-key-not-integer", "germ-template-key-not-integer",
        "amplitude-bare-table", "amplitude-key-beside-table", "amplitude-rule-null",
        "amplitude-numeric-string", "amplitude-key-leading-zero", "amplitude-key-spaces",
        "germ-template-key-leading-zero", "germ-template-key-spaces", "germ-template-null",
        "reduce-repeated", "multiplicity-repeated", "depth-repeated",
        "amplitude-table-repeated", "amplitude-class-repeated",
    ],
)
def test_config_type_errors_are_config_errors(capsys, tmp_path, changes):
    """Each bad config exits 2 through levels and correspond, and a bad tower
    or amplitude value also through tower --config or the amplitude file."""
    cfg = golden_variant(tmp_path, **changes)
    ((key, value),) = changes.items()
    named = next((raw.named for raw in raws(value)), {"tower": "multiplicity"}.get(key, key))
    part = tmp_path / "part.json"
    part.write_text(json_text(value))
    runs = [("levels", "--config", str(cfg)), ("correspond", "--config", str(cfg))]
    if key == "tower":
        runs.append(("tower", "--config", str(part)))
    if key == "amplitude":
        runs.append(("correspond", *GOLDEN_FLAGS, "--amplitude", str(part)))
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, ""), argv
        assert err.startswith("configuration error:") and err.count("\n") == 1, argv
        assert named in err, argv


@pytest.mark.parametrize("amplitude", [1e200, 1e150])
def test_huge_amplitudes_fail_the_oscillator_diagnostic(capsys, tmp_path, amplitude):
    # 1e200 makes every modulus inf; at 1e150 the moduli are finite but their
    # variance is beyond the float range
    table = {"table": {k: amplitude for k in GOLDEN_CLASSES}}
    cfg = golden_variant(tmp_path, amplitude=table)
    code, out, err = run_cli(capsys, "correspond", "--config", str(cfg))
    assert code == EXIT_DIAGNOSTIC
    assert "diagnostics: 3/4 passed" in out
    assert err == (
        "FAILED diagnostic: oscillator_constancy "
        "(max bistring modulus variance inf)\n"
    )


def test_nan_amplitudes_cannot_be_reported(capsys, tmp_path):
    # json writes and reads a float NaN as the bare token NaN
    cfg = golden_variant(tmp_path, amplitude={"table": dict.fromkeys(GOLDEN_CLASSES, math.nan)})
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "correspond", "--config", str(cfg), "--out", str(out_file))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        "configuration error: amplitude of class '1,1' must be a finite number >= 0, "
        "got nan\n"
    )
    assert not out_file.exists()


def test_report_escapes_control_characters_in_the_config_echo(capsys, tmp_path):
    cfg = golden_variant(tmp_path, reduce="mu<=3\n\t")
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "correspond", "--config", str(cfg), "--out", str(out_file))
    assert code == EXIT_OK
    assert '  "reduce": "mu<=3\\u000a\\u0009",\n' in out_file.read_text()


# Mutations of the golden config: class keys outside its tower or not
# integers, and values of every JSON type in place of any key's value.
CLASS_KEYS = GOLDEN_CLASSES + ("7,1", "99,7", "0,1", "1,x", "a,1", "1,1,1", "")
TEXT = st.text('mu<=H%2,1x"\\\n\u00e9', max_size=4)
SCALARS = st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | TEXT
VALUES = (
    SCALARS
    | st.lists(SCALARS, max_size=3)
    | st.dictionaries(TEXT, SCALARS, max_size=2)
)
# a new object per draw, as later edits may change it in place
GERMS = st.integers(0, 3).map(lambda nvars: {"nvars": nvars, "coeffs": [[[2], "1"]]})


def containers(value):
    """Every object and list inside a JSON value, outermost first."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from containers(item)


def edit(draw, value, action: str) -> None:
    """Drop, replace ("swap"), repeat or add an entry of one object or list
    in ``value``.  A repeated key is written a second time with a new value."""
    target = draw(st.sampled_from(list(containers(value))))
    keys = sorted(target) if isinstance(target, dict) else range(len(target))
    if action == "add" or not keys:
        if isinstance(target, dict):
            target[draw(TEXT.filter(bool))] = draw(VALUES)
        else:
            target.append(draw(VALUES))
    elif action == "drop":
        del target[draw(st.sampled_from(keys))]
    elif action == "repeat" and isinstance(target, dict):
        key = draw(st.sampled_from(keys))
        target[key] = repeated(key, target[key], draw(VALUES))
    else:
        target[draw(st.sampled_from(keys))] = draw(VALUES)


def assert_contract_exit(code: int, err: str, value, allowed) -> None:
    """The exit code is allowed, exit 2 prints one configuration error line,
    and a value that still repeats a key exits 2 on it.  (Which key the line
    names is pinned by the parametrized tests: a repeat nested inside
    another is parsed, and rejected, first.)"""
    assert code in allowed, err
    if code == EXIT_CONFIG:
        assert err.startswith("configuration error:") and err.count("\n") == 1
    if next(raws(value), None) is not None:
        assert code == EXIT_CONFIG and "repeats the key" in err, err


@st.composite
def golden_mutants(draw) -> dict:
    """The golden config after one to four edits.  An edit drops, replaces,
    repeats or adds an entry of any object or list in it, or puts in an
    amplitude table or a germ template over a random set of class keys."""
    config = json.loads(GOLDEN_CONFIG.read_text())
    actions = ["drop", "swap", "repeat", "add", "amplitude", "germ_template"]
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(actions))
        if action in ("amplitude", "germ_template"):
            keys = draw(st.lists(st.sampled_from(CLASS_KEYS), unique=True, max_size=10))
            entries = st.integers(0, 3) if action == "amplitude" else GERMS
            if draw(st.booleans()):
                entries = entries | VALUES
            table = {key: draw(entries) for key in keys}
            config[action] = {"table": table} if action == "amplitude" else table
        else:
            edit(draw, config, action)
    return config


@st.composite
def mutants(draw, valid):
    """A copy of the JSON value ``valid`` after one to four edits."""
    value = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 4))):
        edit(draw, value, draw(st.sampled_from(["drop", "swap", "repeat", "add"])))
    return value


def quiet_main(argv) -> tuple[int, str]:
    """Run the CLI with its output captured; return the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(config=golden_mutants())
def test_mutated_golden_configs_exit_with_a_contract_code(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(json_text(config))
    code, err = quiet_main(["correspond", "--config", str(path)])
    assert_contract_exit(code, err, config, (EXIT_OK, EXIT_CONFIG, EXIT_CONTRACT, EXIT_DIAGNOSTIC))


ELLIPTIC = {"nvars": 2, "coeffs": [[[3, 0], "1"], [[1, 2], "-3"]]}
MODES = [
    {"mu": 1, "m": 1, "amplitude": 1.0, "sign": 1},
    {"mu": 2, "m": 1, "amplitude": 0.5, "sign": 1},
]


@settings(max_examples=100, deadline=None)
@given(germ=mutants(ELLIPTIC), modes=mutants(MODES))
def test_mutated_germ_and_modes_json_exit_0_or_2(tmp_path_factory, germ, modes):
    germ_path = tmp_path_factory.getbasetemp() / "mutant.jsonl"
    germ_path.write_text(json_text(germ) + "\n")
    modes_path = tmp_path_factory.getbasetemp() / "mutant-modes.json"
    modes_path.write_text(json_text(modes))
    for argv, value in (
        (["classify", "--file", str(germ_path)], germ),
        (["unfold", "--germ", json_text(germ)], germ),
        (["samples", "--modes-file", str(modes_path)], modes),
    ):
        code, err = quiet_main(argv)
        assert_contract_exit(code, err, value, (EXIT_OK, EXIT_CONFIG))


def test_unfold_by_name(capsys):
    code, out, _ = run_cli(capsys, "unfold", "--name", "cusp")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "Cusp: base x^4  codim 2"
    assert lines[1] == "  slot 1: a1 * (x)"
    assert lines[2] == "  slot 2: a2 * (x^2)"
    assert lines[3] == "  unfolded (all slots = 1): x + x^2 + x^4"


def test_unfold_from_germ(capsys):
    germ = json.dumps({"nvars": 2, "coeffs": [[[3, 0], "1"], [[0, 3], "1"]]})
    code, out, _ = run_cli(capsys, "unfold", "--germ", germ)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "HyperbolicUmbilic: base x^3 + y^3  codim 3"
    assert "b4 * (x*y)" in out


def test_unfold_rejects_off_catalogue_germ(capsys):
    germ = json.dumps({"nvars": 1, "coeffs": [[[2], "1"]]})
    code, _, err = run_cli(capsys, "unfold", "--germ", germ)
    assert code == EXIT_CONFIG
    assert "Morse" in err
    # neither --name nor --germ
    code, out, err = run_cli(capsys, "unfold")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("configuration error:") and err.count("\n") == 1


def test_levels_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "levels", "-N", "2", "--offset", "1", "--depth", "6", "--scenario", "swallowtail",
    )
    assert code == EXIT_OK
    assert "rule 3; levels: ST, MG, M" in out
    assert "cascade: inject Swallowtail germ x^5 on 3 space sections" in out
    assert "cascade: blowup Fold: covering germ x" in out


def test_levels_contract_violation_exit(capsys, monkeypatch):
    args = ["levels", "-N", "2", "--offset", "1", "--depth", "6"]
    code, out, err = run_cli(capsys, *args, "--reduce", "none")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("configuration error: reduce") and err.count("\n") == 1
    # exit 3 is left for a stage that breaks its contract inside the run
    import germtower.pipeline as pipeline_module

    def broken(*args):
        raise ValueError("levels broke")

    monkeypatch.setattr(pipeline_module, "generate_levels", broken)
    code, _, err = run_cli(capsys, *args)
    assert code == EXIT_CONTRACT
    assert "pipeline error: [levels]" in err


def test_correspond_writes_report(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "correspond", "-N", "2", "--offset", "1", "--depth", "6",
        "--scenario", "swallowtail", "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert "diagnostics: 4/4 passed" in out
    report = json.loads(out_file.read_text())
    assert report["rule"] == 3
    assert [lvl["label"] for lvl in report["levels"]] == ["ST", "MG", "M"]
    assert len(report["cascade"]) == 4


def test_correspond_byte_deterministic(capsys, tmp_path):
    args = [
        "correspond", "-N", "3", "--offset", "2", "--depth", "5",
        "--scenario", "cusp", "--amplitude", "mu",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_correspond_flags_and_config_write_identical_reports(capsys, tmp_path):
    amplitude = {"table": {
        "1,1": 1.0, "1,2": 2.0, "2,1": 0.5, "3,1": 1.5, "4,1": 1, "4,2": 2.5, "5,1": 3,
        "6,1": 1, "7,1": 2, "8,1": 0.25, "8,2": 4,
    }}
    table = tmp_path / "amplitude.json"
    table.write_text(json.dumps(amplitude))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "tower": {"quantum_modulus": 2, "offset": 1, "depth": 8,
                  "multiplicity": [2, 1, 1, 2, 1, 1, 1, 2]},
        "scenario": "swallowtail",
        "reduce": "mu<=2",
        "amplitude": amplitude,
        "covering_depths": [7, 6],
        "even_classes": True,
    }))
    by_flags, by_config = tmp_path / "flags.json", tmp_path / "config-report.json"
    flag_run = run_cli(
        capsys,
        "correspond", "-N", "2", "--offset", "1", "--depth", "8",
        "--multiplicity", "2,1,1,2,1,1,1,2", "--scenario", "swallowtail", "--reduce", "mu<=2",
        "--amplitude", str(table), "--covering-depths", "7,6", "--even-classes",
        "--out", str(by_flags),
    )
    config_run = run_cli(capsys, "correspond", "--config", str(cfg), "--out", str(by_config))
    assert flag_run == config_run
    assert flag_run[0] == EXIT_OK and "diagnostics: 4/4 passed" in flag_run[1]
    assert by_flags.read_bytes() == by_config.read_bytes()
    # both covering truncations bite, and the even-class filter is on
    levels = json.loads(by_flags.read_text())["levels"]
    assert [level["tower"]["depth"] for level in levels] == [8, 7, 6]
    assert all(w["mu"] % 2 == 0 for level in levels for w in level["weil_side"])


def test_left_out_fields_take_the_same_defaults_on_every_path(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tower": {"quantum_modulus": 2, "depth": 6}}))
    by_flags, by_config = tmp_path / "flags.json", tmp_path / "config-report.json"
    assert main(["correspond", "-N", "2", "--depth", "6", "--out", str(by_flags)]) == EXIT_OK
    assert main(["correspond", "--config", str(cfg), "--out", str(by_config)]) == EXIT_OK
    capsys.readouterr()
    by_library = run_pipeline(PipelineConfig(TowerConfig(2, 0, 6))).json_text()
    assert by_flags.read_bytes() == by_config.read_bytes() == by_library.encode()
    assert json.loads(by_library)["config"] == {
        "tower": tower_config_to_json(TowerConfig(2, 0, 6, (1,) * 6, (1,) * 6)),
        "scenario": None,
        "reduce": "mu<=H",
        "orth_dims": 3,
        "amplitude": "unit",
        "covering_depths": None,
        "even_classes": False,
    }


def test_rank_one_desingularized_germs_fail_their_diagnostic(capsys, tmp_path):
    # x^3 in two variables shifts to 3x^2, whose Hessian has rank 1, so the
    # desingularized jet classifies Unclassified rather than Regular or Morse;
    # so does x*y^2, which shifts to y^2.  x^3 + x*y^2 shifts to the Morse
    # jet 3x^2 + y^2.  The detail names the first failing germ in level order.
    cube = {"nvars": 2, "coeffs": [[[3, 0], "1"]]}
    morse = {"nvars": 2, "coeffs": [[[3, 0], "1"], [[1, 2], "1"]]}
    flat_y = {"nvars": 2, "coeffs": [[[1, 2], "1"]]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "tower": {"quantum_modulus": 2, "depth": 4},
        "scenario": "none",
        "germ_template": {"1,1": morse, "2,1": flat_y, "3,1": cube, "4,1": cube},
    }))
    code, out, err = run_cli(capsys, "correspond", "--config", str(cfg))
    assert code == EXIT_DIAGNOSTIC
    assert "diagnostics: 3/4 passed" in out
    assert err == (
        "FAILED diagnostic: desingularized_sections "
        "(ST class 2,1: germ y^2 classifies Unclassified, not Regular or Morse)\n"
    )
    # with the cube alone, the first failing germ sits in the first class
    cfg.write_text(json.dumps({
        "tower": {"quantum_modulus": 2, "depth": 4},
        "scenario": "none",
        "germ_template": {f"{mu},1": cube for mu in range(1, 5)},
    }))
    code, _, err = run_cli(capsys, "correspond", "--config", str(cfg))
    assert code == EXIT_DIAGNOSTIC
    assert err == (
        "FAILED diagnostic: desingularized_sections "
        "(ST class 1,1: germ 3*x^2 classifies Unclassified, not Regular or Morse)\n"
    )


def test_correspond_config_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "tower": {"quantum_modulus": 2, "offset": 1, "depth": 4},
                "scenario": "fold",
            }
        )
    )
    code, out, _ = run_cli(
        capsys,
        "correspond", "-N", "7", "--depth", "2", "--scenario", "swallowtail",
        "--config", str(cfg),
    )
    assert code == EXIT_OK
    assert "rule 2; levels: ST, MG" in out


def test_outdir_env_prefixes_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GERMTOWER_OUTDIR", str(tmp_path))
    code, _, _ = run_cli(
        capsys,
        "correspond", "-N", "2", "--offset", "1", "--depth", "4", "--out", "rel.json",
    )
    assert code == EXIT_OK
    assert (tmp_path / "rel.json").exists()


# a depth-888 swallowtail: its report is 0.86 MB, many blocks
DEEP_FLAGS = ("correspond", "-N", "2", "--depth", "888", "--scenario", "swallowtail")


def test_a_report_that_fails_after_its_first_block_leaves_the_old_file(
    capsys, tmp_path, monkeypatch
):
    out_file = tmp_path / "report.json"
    out_file.write_bytes(b"the old report\n")
    chunks = Report.chunks

    def broken(report):
        blocks = chunks(report)
        yield next(blocks)
        raise ValueError("a block could not be written")

    monkeypatch.setattr(Report, "chunks", broken)
    code, _, err = run_cli(capsys, *DEEP_FLAGS, "--out", str(out_file))
    assert (code, err) == (EXIT_CONFIG, "configuration error: a block could not be written\n")
    assert out_file.read_bytes() == b"the old report\n"
    assert os.listdir(tmp_path) == ["report.json"]


def test_a_file_that_fails_mid_report_leaves_the_old_file(tmp_path):
    # the file size limit makes the report's file refuse a write part-way
    limit = 64 * 1024
    out_file = tmp_path / "report.json"
    out_file.write_bytes(b"the old report\n")
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "germtower.cli", *DEEP_FLAGS, "--out", str(out_file)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1])
        ),
    )
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    too_large = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    assert proc.stderr == f"configuration error: {too_large}\n"
    assert out_file.read_bytes() == b"the old report\n"
    assert os.listdir(tmp_path) == ["report.json"]
    # the same run with no limit writes a report larger than it
    assert main([*DEEP_FLAGS, "--out", str(out_file)]) == EXIT_OK
    assert out_file.stat().st_size > limit


def test_a_report_into_a_missing_directory_names_its_path(capsys, tmp_path):
    out_file = tmp_path / "missing" / "report.json"
    code, _, err = run_cli(
        capsys, "correspond", "--config", str(GOLDEN_CONFIG), "--out", str(out_file)
    )
    missing = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(out_file)!r}"
    assert (code, err) == (EXIT_CONFIG, f"configuration error: {missing}\n")
    assert os.listdir(tmp_path) == []


def test_a_new_report_takes_its_mode_from_the_umask(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    umask = os.umask(0o027)
    try:
        code, _, _ = run_cli(
            capsys, "correspond", "--config", str(GOLDEN_CONFIG), "--out", str(out_file)
        )
    finally:
        os.umask(umask)
    assert code == EXIT_OK
    assert stat.S_IMODE(out_file.stat().st_mode) == 0o666 & ~0o027


def test_expand_counts(capsys):
    code, out, _ = run_cli(capsys, "expand", "--levels", "ST,MG,M")
    assert code == EXIT_OK
    assert "total 9 = 3 free + 6 interaction" in out
    code, out, _ = run_cli(capsys, "expand", "--levels", "ST,MG")
    assert "total 4 = 2 free + 2 interaction" in out


def test_samples_to_stdout_and_file(capsys, tmp_path):
    modes = tmp_path / "modes.json"
    modes.write_text(
        json.dumps(
            [
                {"mu": 1, "m": 1, "amplitude": 1.0, "sign": 1},
                {"mu": 2, "m": 1, "amplitude": 0.5, "sign": 1},
            ]
        )
    )
    code, out, _ = run_cli(
        capsys, "samples", "--modes-file", str(modes), "--n", "4", "--x0", "0", "--x1", "1"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "x,re,im,modulus"
    assert len(lines) == 5
    csv_path = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys,
        "samples", "--modes-file", str(modes), "--n", "4", "--csv", str(csv_path),
    )
    assert code == EXIT_OK
    assert csv_path.read_text().splitlines()[0] == "x,re,im,modulus"


def test_samples_bad_modes_file(capsys, tmp_path):
    mode = {"mu": 1, "m": 1, "amplitude": 1.0, "sign": 1}
    path = tmp_path / "modes.json"
    for modes in (
        [],
        {"modes": [mode]},
        [5],
        [mode, dict(mode, mu=2, sign=-1)],  # mixed signs
        [dict(mode, amplitude="inf")],
        [dict(mode, amplitude=1e400)],  # read back as inf
        [dict(mode, amplitude=None)],
        [dict(mode, amplitude=True)],
        [{"mu": 1, "m": 1, "sign": 1}],
        [dict(mode, mu="1")],
        [dict(mode, m=1.5)],
        [dict(mode, sign=True)],
        [dict(mode, mu=10**400)],  # beyond the float range
        [dict(mode, amplitude=10**400)],
        [dict(mode, extra=5)],
        [dict(mode, amplitude="1.5")],
        [dict(mode, sign=repeated("sign", 1, -1))],
        [dict(mode, mu=repeated("mu", 1, 1))],
    ):
        path.write_text(json_text(modes))
        code, out, err = run_cli(capsys, "samples", "--modes-file", str(path))
        assert (code, out) == (EXIT_CONFIG, ""), modes
        assert err.startswith("configuration error:") and err.count("\n") == 1, modes
    missing = tmp_path / "nope.json"
    code, _, _ = run_cli(capsys, "samples", "--modes-file", str(missing))
    assert code == EXIT_CONFIG


def test_samples_count_has_a_budget(capsys, tmp_path):
    path = tmp_path / "modes.json"
    path.write_text(json_text([{"mu": 1, "m": 1, "amplitude": 1.0, "sign": 1}]))
    n = str(MAX_SAMPLES + 1)
    code, out, err = run_cli(capsys, "samples", "--modes-file", str(path), "--n", n)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        f"configuration error: sample count {n} exceeds the budget of {MAX_SAMPLES} samples\n"
    )


@pytest.mark.parametrize("depth", [1_000, 50_000])
def test_json_nested_too_deeply_is_a_config_error(capsys, tmp_path, depth):
    nested = "[" * depth + "]" * depth
    path = tmp_path / "deep.json"
    for command, flag, text, source in (
        ("correspond", "--config", nested, str(path)),
        ("correspond", "--config", '{"tower": ' + nested + "}", str(path)),
        ("classify", "--file", "\n" + nested + "\n", f"{path} line 2"),
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, command, flag, str(path))
        assert code == EXIT_CONFIG, (command, text[:12])
        assert err == f"configuration error: {source}: JSON nests too deeply to parse\n"
    # and as a process: one stderr line, no traceback
    path.write_text(nested)
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "germtower.cli", "correspond", "--config", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "germtower.cli", "expand", "--levels", "ST,MG"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total 4" in proc.stdout


def test_cli_import_stays_off_the_introspection_modules():
    # Every CLI op is a fresh process that starts with this import;
    # dataclasses would bring inspect, ast, dis and tokenize with it.
    # statistics is imported only by the variance's non-finite fallback.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "statistics")
    code = f"import sys, germtower.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
