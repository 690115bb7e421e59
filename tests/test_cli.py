"""Command line behavior: output shapes, exit codes, file emission."""

import contextlib
import copy
import errno
import functools
import gc
import io
import json
import math
import operator
import os
import re
import resource
import stat
import subprocess
import sys
import tomllib
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germtower.cli import (
    EXIT_CONFIG,
    EXIT_CONTRACT,
    EXIT_DIAGNOSTIC,
    EXIT_OK,
    main,
)
from germtower.config import config_from_json, load_json
from germtower.pipeline import PipelineConfig, Report, run_pipeline
from germtower.tools import MAX_MODE_EVALUATIONS, MAX_SAMPLES
from germtower.tower import MAX_CLASSES, TowerConfig, tower_config_to_json

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


def child_env() -> dict:
    """The environment of a CLI process: ``src`` on its path, and without
    PYTHONUNBUFFERED, which would flush every write and hide a missing flush."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def spawn_cli(*argv, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m germtower.cli`` as its own process, in ``child_env``
    unless ``env`` is given; stdout and stderr are captured unless given."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "env": child_env(), **kwargs}
    return subprocess.run([sys.executable, "-m", "germtower.cli", *argv], text=True, **kwargs)


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
    assert (code, err) == (EXIT_CONFIG, "configuration error: tower config is missing 'quantum_modulus'\n")
    # a depth beyond the class budget is refused before anything is built
    code, out, err = run_cli(capsys, "tower", "-N", "2", "--depth", str(10**12))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("configuration error:") and "budget" in err


NON_ASCII_NUMBERS = [
    pytest.param(
        ("tower", "-N", "٢", "--offset", "1", "--depth", "٣"), None, None,
        "germtower tower: error: argument --modulus/-N: invalid int value: '٢'",
        id="int-flag",
    ),
    pytest.param(
        ("correspond", "-N", "2", "--offset", "1", "--depth", "6", "--multiplicity", "١,1,1,1,1,1"),
        None, None, "configuration error: invalid int value: '١'",
        id="list-flag",
    ),
    pytest.param(
        ("classify",), '{"nvars": 1, "coeffs": [[[3], "٢/٣"]]}\n', None,
        "configuration error: coefficient '٢/٣' is not ASCII text",
        id="coefficient",
    ),
    pytest.param(
        ("correspond",), None, {"reduce": "mu<=٣"},
        "configuration error: cannot parse reduce rule 'mu<=٣'",
        id="reduce-rule",
    ),
]


def assert_rejected(capsys, argv, error):
    """``argv`` exits 2 with nothing on stdout.  An ``error`` that names the
    program is argparse's, printed after the usage; any other is the one
    stderr line."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a flag's value this way
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_CONFIG, "")
    if error.startswith("germtower "):  # argparse: the usage, then the error
        assert err.startswith("usage: germtower ") and err.endswith(f"\n{error}\n")
    else:
        assert err == f"{error}\n"


@pytest.mark.parametrize("argv, stdin, changes, error", NON_ASCII_NUMBERS)
def test_number_text_must_be_ascii(capsys, monkeypatch, tmp_path, argv, stdin, changes, error):
    # int(), float(), Fraction() and an unflagged regex \d also read the
    # decimal digits of other scripts (here ARABIC-INDIC); none may be coerced
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    if changes is not None:
        argv += ("--config", str(golden_variant(tmp_path, **changes)))
    assert_rejected(capsys, argv, error)


TOWER_ARGS = ("-N", "2", "--offset", "1", "--depth", "6")
# (argv, the scalar flag argparse names or None for a list entry, the text)
NOT_DIGITS = [
    pytest.param(("tower", "-N", "1_0", "--depth", "2"), "--modulus/-N", "1_0", id="N-underscore"),
    pytest.param(
        ("tower", "-N", "2", "--offset", " +1", "--depth", "2"), "--offset", " +1",
        id="offset-space-plus",
    ),
    pytest.param(("tower", "-N", "2", "--depth", "+2"), "--depth", "+2", id="depth-plus"),
    pytest.param(
        ("levels", *TOWER_ARGS, "--orth-dims", "3 "), "--orth-dims", "3 ",
        id="orth-dims-space",
    ),
    pytest.param(
        ("samples", "--modes-file", "modes.json", "--n", "1_0"), "--n", "1_0",
        id="n-underscore",
    ),
    pytest.param(
        ("levels", *TOWER_ARGS, "--multiplicity", "1_0,1,1,1,1,1"), None, "1_0",
        id="list-underscore",
    ),
    pytest.param(
        ("levels", *TOWER_ARGS, "--multiplicity", "1,,2,1,1,2,1"), None, "",
        id="list-empty-entry",
    ),
    pytest.param(
        ("levels", *TOWER_ARGS, "--multiplicity", "1,2,1,1,2,1,"), None, "",
        id="list-trailing-comma",
    ),
    pytest.param(
        ("levels", *TOWER_ARGS, "--multiplicity", "1, 2,1,1,2,1"), None, " 2",
        id="list-space",
    ),
    pytest.param(
        ("levels", *TOWER_ARGS, "--multiplicity", "1,2,1,1,2,+1"), None, "+1",
        id="list-plus",
    ),
    pytest.param(
        ("levels", *TOWER_ARGS, "--complex-multiplicity", "1,1,1,1,1,1_0"), None, "1_0",
        id="complex-list-underscore",
    ),
    pytest.param(
        ("levels", *TOWER_ARGS, "--covering-depths", "3,"), None, "",
        id="covering-trailing-comma",
    ),
]


@pytest.mark.parametrize("argv, flag, text", NOT_DIGITS)
def test_integer_text_is_digits(capsys, argv, flag, text):
    # int() also reads digit-group underscores, surrounding whitespace and a
    # leading plus; an integer flag or list entry is one match of -?[0-9]+
    if flag is None:  # a list entry: the one configuration error line
        error = f"configuration error: invalid int value: {text!r}"
    else:
        error = f"germtower {argv[0]}: error: argument {flag}: invalid int value: {text!r}"
    assert_rejected(capsys, argv, error)


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--x0", " 0.5"), ("--x1", "1_0"), ("--x1", "+1"), ("--x0", ".5"), ("--x1", "1."),
        ("--x0", "01"), ("--x1", "1e5 "), ("--x0", "nan"), ("--x1", "inf"),
    ],
)
def test_float_text_is_a_json_number(capsys, flag, text):
    # float() also reads surrounding whitespace, digit-group underscores, a
    # leading plus or zero, a bare point, nan and inf; a float flag is one
    # match of the JSON number grammar
    error = f"germtower samples: error: argument {flag}: invalid float value: {text!r}"
    assert_rejected(capsys, ("samples", "--modes-file", "modes.json", flag, text), error)


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
    stdin = io.StringIO(lines)
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run_cli(capsys, "classify")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "Fold corank=1 codim=1",
        "EllipticUmbilic corank=2 codim=3",
        "Morse corank=0 codim=0",
    ]
    assert not stdin.closed  # classify closes only a file it opened


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


@pytest.mark.parametrize("coeff", ["1e4300", "-1e4300", "123e4299", "1e-4300"])
def test_a_template_coefficient_the_report_cannot_write_is_a_config_error(
    capsys, tmp_path, coeff
):
    germ = {"nvars": 1, "coeffs": [[[3], coeff]]}
    config = {"tower": {"quantum_modulus": 2, "depth": 1}, "germ_template": {"1,1": germ}}
    error = "germ_template: class 1,1 has a coefficient past 4300 digits"
    with pytest.raises(ValueError, match=error):
        config_from_json(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert_rejected(capsys, ["correspond", "--config", str(path)], "configuration error: " + error)
    # classify and unfold never write the coefficient
    (tmp_path / "germ.jsonl").write_text(json.dumps(germ))
    assert run_cli(capsys, "classify", "--file", str(tmp_path / "germ.jsonl"))[:2] == (
        EXIT_OK, "Fold corank=1 codim=1\n"
    )
    assert run_cli(capsys, "unfold", "--germ", json.dumps(germ))[0] == EXIT_OK
    germ["coeffs"][0][1] = "1e4299"  # 4,300 digits
    path.write_text(json.dumps(config))
    code, _, _ = run_cli(capsys, "correspond", "--config", str(path), "--out", str(tmp_path / "r"))
    assert code == EXIT_OK


TOWER_PAST_THE_TEXT = "tower degrees reach 10**4300, beyond the report's integer text"


def test_a_tower_whose_degrees_the_report_cannot_write_is_a_config_error(capsys, tmp_path):
    big = 10**4299
    # offset + N * max(mu * m^(mu)) is 10**4300 - 1, then 10**4300
    TowerConfig(big, big - 1, 9)
    TowerConfig(big // 10, 0, 2, (), (1, 49))
    for args in ((big, 0, 10), (big // 10, 0, 2, (), (1, 50))):
        with pytest.raises(ValueError, match=re.escape(TOWER_PAST_THE_TEXT)):
            TowerConfig(*args)
    tower = {"quantum_modulus": big, "offset": 0, "depth": 10}
    (tmp_path / "tower.json").write_text(json.dumps(tower))
    (tmp_path / "config.json").write_text(json.dumps({"tower": tower}))
    error = "configuration error: " + TOWER_PAST_THE_TEXT
    for argv in (
        ["correspond", "--config", str(tmp_path / "config.json")],
        ["correspond", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "r")],
        ["tower", "--config", str(tmp_path / "tower.json")],
    ):
        assert_rejected(capsys, argv, error)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "germ",
    [
        '{"nvars": 1, "coeffs": [[3, 1]]}',
        '{"nvars": 1, "coeffs": [[[3], "1"]], "max_degree": "x"}',
        '{"nvars": 1, "coeffs": [[[3], "1e30000000"]]}',
        '{"nvars": 1, "coeffs": [[[3], "1"]], "bogus": 5}',
        '{"nvars": 1, "coeffs": [[[3], "1"]], "max_degree": null}',
        '{"nvars": 1, "coeffs": [[[3], "1"]], "nvars": 1}',
        '{"nvars": true, "coeffs": [[[3], "1"]]}',
        '{"nvars": 1.0, "coeffs": [[[3], "1"]]}',
        '{"nvars": 1, "coeffs": [[[3], "1"]], "max_degree": -1}',
    ],
    ids=[
        "exponents-not-a-list", "max-degree-string", "huge-decimal-exponent",
        "unknown-key", "max-degree-null", "repeated-key", "nvars-bool", "nvars-float",
        "max-degree-negative",
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
# integers past 2**64 and past the float range, within the digits that
# json will write and read
HUGE = st.integers(2**64, 10**400) | st.integers(-(10**400), -(2**64))
LONG_TEXT = st.builds(operator.mul, TEXT.filter(bool), st.integers(100, 2_000))
VALUES = st.recursive(
    SCALARS | HUGE | LONG_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=2),
    max_leaves=8,
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
    """The exit code is allowed; exit 0 prints nothing to stderr, exit 2 one
    configuration error line, exit 3 one pipeline error line and exit 4 one
    line per failed diagnostic.  A value that still repeats a key exits 2 on
    it.  (Which key the line names is pinned by the parametrized tests: a
    repeat nested inside another is parsed, and rejected, first.)"""
    assert code in allowed, err
    lines = err.splitlines(keepends=True)
    assert all(line.endswith("\n") for line in lines), err
    if code == EXIT_OK:
        assert err == ""
    elif code == EXIT_CONFIG:
        assert err.startswith("configuration error:") and len(lines) == 1, err
    elif code == EXIT_CONTRACT:
        assert err.startswith("pipeline error:") and len(lines) == 1, err
    else:
        assert lines and all(line.startswith("FAILED diagnostic: ") for line in lines), err
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
@given(config=golden_mutants(), amplitude=mutants({"table": UNIT_TABLE}) | VALUES)
def test_mutated_golden_configs_exit_with_a_contract_code(tmp_path_factory, config, amplitude):
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    amplitude_path = tmp_path_factory.getbasetemp() / "mutant-amplitude.json"
    path.write_text(json_text(config))
    amplitude_path.write_text(json_text(amplitude))
    for argv, value in (
        (["correspond", "--config", str(path)], config),
        (["correspond", *GOLDEN_FLAGS, "--amplitude", str(amplitude_path)], amplitude),
    ):
        code, err = quiet_main(argv)
        assert_contract_exit(code, err, value, (EXIT_OK, EXIT_CONFIG, EXIT_CONTRACT, EXIT_DIAGNOSTIC))


# a coefficient of up to the 4,300 digits the report can write, often at
# the top of that range, so that its shift by an exponent can pass it
COEFFICIENTS = st.builds(
    "{}e{}".format, st.integers(1, 9), st.integers(4290, 4299) | st.integers(0, 4299)
)


@st.composite
def large_templates(draw) -> dict:
    """The golden config with any scenario and a germ template over its
    classes, whose coefficients reach the report's 4,300 digits."""
    config = json.loads(GOLDEN_CONFIG.read_text())
    scenarios = [None, "fold", "cusp", "swallowtail", "elliptic-umbilic", "hyperbolic-umbilic"]
    config["scenario"] = draw(st.sampled_from(scenarios))
    nvars = 2 if "umbilic" in str(config["scenario"]) else draw(st.integers(1, 2))
    exponents = st.lists(st.integers(0, 6), min_size=nvars, max_size=nvars)
    terms = st.lists(st.tuples(exponents, COEFFICIENTS).map(list), min_size=1, max_size=3)
    config["germ_template"] = {key: {"nvars": nvars, "coeffs": draw(terms)} for key in GOLDEN_CLASSES}
    return config


# shifts to 27e4299*x^2, which a failing diagnostic would write
SHIFT_PAST_THE_TEXT = {
    "tower": {"quantum_modulus": 2, "depth": 1},
    "germ_template": {"1,1": {"nvars": 2, "coeffs": [[[3, 0], "9e4299"]]}},
}


@settings(max_examples=100, deadline=None)
@given(config=golden_mutants() | large_templates())
@example(config=SHIFT_PAST_THE_TEXT)
def test_a_config_the_config_accepts_never_exits_3(tmp_path_factory, config):
    # exit 3 is left for a contract breach inside the run, never the input's
    # fault: an accepted config exits 0 or 4, a rejected one 2 with one line
    text = json_text(config)
    try:
        config_from_json(load_json(text, "config"))
    except ValueError:
        allowed = (EXIT_CONFIG,)
    else:
        allowed = (EXIT_OK, EXIT_DIAGNOSTIC)
    path = tmp_path_factory.getbasetemp() / "accepted.json"
    path.write_text(text)
    code, err = quiet_main(["correspond", "--config", str(path)])
    assert_contract_exit(code, err, config, allowed)


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


UNFOLDED = {
    "fold": "Fold: base x^3  codim 1\n  slot 1: a1 * (x)\n  unfolded (all slots = 1): x + x^3\n",
    "cusp": (
        "Cusp: base x^4  codim 2\n  slot 1: a1 * (x)\n  slot 2: a2 * (x^2)\n"
        "  unfolded (all slots = 1): x + x^2 + x^4\n"
    ),
    "swallowtail": (
        "Swallowtail: base x^5  codim 3\n  slot 1: a1 * (x)\n  slot 2: a2 * (x^2)\n"
        "  slot 3: a3 * (x^3)\n  unfolded (all slots = 1): x + x^2 + x^3 + x^5\n"
    ),
    "elliptic-umbilic": (
        "EllipticUmbilic: base x^3 - 3*x*y^2  codim 3\n  slot 1: b1 * (x^2)\n"
        "  slot 2: b1 * (y^2)\n  slot 3: b2 * (-y)\n"
        "  unfolded (all slots = 1): -y + x^2 + y^2 + x^3 - 3*x*y^2\n"
    ),
    "hyperbolic-umbilic": (
        "HyperbolicUmbilic: base x^3 + y^3  codim 3\n  slot 1: b2 * (-y)\n"
        "  slot 2: b3 * (-x)\n  slot 3: b4 * (x*y)\n"
        "  unfolded (all slots = 1): -x - y + x*y + x^3 + y^3\n"
    ),
}


def test_unfold_by_name(capsys):
    for name, text in UNFOLDED.items():
        assert run_cli(capsys, "unfold", "--name", name) == (EXIT_OK, text, ""), name


def test_unfold_from_germ(capsys):
    germ = json.dumps({"nvars": 2, "coeffs": [[[3, 0], "1"], [[0, 3], "1"]]})
    code, out, _ = run_cli(capsys, "unfold", "--germ", germ)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "HyperbolicUmbilic: base x^3 + y^3  codim 3"
    assert "b4 * (x*y)" in out


def test_unfold_rejects_off_catalogue_germ(capsys):
    germ = json.dumps({"nvars": 1, "coeffs": [[[2], "1"]]})
    code, _, err = run_cli(capsys, "unfold", "--germ", germ)
    assert (code, err) == (EXIT_CONFIG, "configuration error: no versal unfolding for 'Morse'\n")
    code, _, err = run_cli(capsys, "unfold", "--name", "none")
    assert (code, err) == (EXIT_CONFIG, "configuration error: unfold needs a catalogue class name\n")
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


@pytest.mark.parametrize("name", ["_diagnostics", "emit_expansion", "config_to_json"])
def test_a_report_that_cannot_be_assembled_is_a_contract_violation(capsys, monkeypatch, name):
    # the config was accepted, so the input is not at fault
    import germtower.pipeline as pipeline_module

    def broken(*args):
        raise ValueError(f"{name} broke")

    monkeypatch.setattr(pipeline_module, name, broken)
    code, out, err = run_cli(capsys, "correspond", "--config", str(GOLDEN_CONFIG))
    assert (code, out, err) == (EXIT_CONTRACT, "", f"pipeline error: [report] {name} broke\n")


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
    proc = spawn_cli(
        *DEEP_FLAGS,
        "--out",
        str(out_file),
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


def test_expand_takes_only_the_level_tags(capsys, monkeypatch):
    import germtower.bisemigroup as bisemigroup

    built = []
    monkeypatch.setattr(bisemigroup, "LabeledTerm", lambda *args: built.append(args))
    thousand = ",".join(f"T{i}" for i in range(1000))
    for levels, tag in (("ST,X", "X"), (thousand, "T0")):
        code, out, err = run_cli(capsys, "expand", "--levels", levels)
        assert (code, out, built) == (EXIT_CONFIG, "", [])
        assert err == f"configuration error: right tag {tag!r} is not a level tag: ST, MG, M\n"


# Usage errors and their exact stderr.  An unknown flag is reported with the
# top-level usage (TOP_USAGE); each subcommand maps to the flags of one more
# error, a flag left without its value or a required flag left out, which is
# reported with the subcommand's own usage.
TOP_USAGE = (
    "usage: germtower [-h]\n"
    "                 {tower,classify,unfold,levels,correspond,expand,samples} ...\n"
    "germtower: error: unrecognized arguments: --bogus\n"
)
USAGE_ERRORS = {
    "tower": (
        ("--depth",),
        "usage: germtower tower [-h] [--modulus QUANTUM_MODULUS] [--offset OFFSET]\n"
        "                       [--depth DEPTH] [--multiplicity MULTIPLICITY]\n"
        "                       [--complex-multiplicity COMPLEX_MULTIPLICITY]\n"
        "                       [--config CONFIG] [--out OUT]\n"
        "germtower tower: error: argument --depth: expected one argument\n",
    ),
    "classify": (
        ("--file",),
        "usage: germtower classify [-h] [--file FILE]\n"
        "germtower classify: error: argument --file: expected one argument\n",
    ),
    "unfold": (
        ("--name",),
        "usage: germtower unfold [-h] [--name NAME] [--germ GERM]\n"
        "germtower unfold: error: argument --name: expected one argument\n",
    ),
    "levels": (
        ("--reduce",),
        "usage: germtower levels [-h] [--modulus QUANTUM_MODULUS] [--offset OFFSET]\n"
        "                        [--depth DEPTH] [--multiplicity MULTIPLICITY]\n"
        "                        [--complex-multiplicity COMPLEX_MULTIPLICITY]\n"
        "                        [--scenario SCENARIO] [--reduce REDUCE]\n"
        "                        [--orth-dims ORTH_DIMS] [--amplitude AMPLITUDE]\n"
        "                        [--covering-depths COVERING_DEPTHS] [--even-classes]\n"
        "                        [--config CONFIG]\n"
        "germtower levels: error: argument --reduce: expected one argument\n",
    ),
    "correspond": (
        ("--out",),
        "usage: germtower correspond [-h] [--modulus QUANTUM_MODULUS] [--offset OFFSET]\n"
        "                            [--depth DEPTH] [--multiplicity MULTIPLICITY]\n"
        "                            [--complex-multiplicity COMPLEX_MULTIPLICITY]\n"
        "                            [--scenario SCENARIO] [--reduce REDUCE]\n"
        "                            [--orth-dims ORTH_DIMS] [--amplitude AMPLITUDE]\n"
        "                            [--covering-depths COVERING_DEPTHS]\n"
        "                            [--even-classes] [--config CONFIG] [--out OUT]\n"
        "germtower correspond: error: argument --out: expected one argument\n",
    ),
    "expand": (
        (),
        "usage: germtower expand [-h] --levels LEVELS\n"
        "germtower expand: error: the following arguments are required: --levels\n",
    ),
    "samples": (
        (),
        "usage: germtower samples [-h] --modes-file MODES_FILE [--n N] [--x0 X0]\n"
        "                         [--x1 X1] [--csv CSV]\n"
        "germtower samples: error: the following arguments are required: --modes-file\n",
    ),
}
# the flags that let each subcommand parse, so --bogus is its only error
REQUIRED = {"expand": ("--levels", "ST"), "samples": ("--modes-file", "modes.json")}


@pytest.mark.parametrize("command", sorted(USAGE_ERRORS))
def test_a_usage_error_prints_its_usage_and_exits_2(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal width
    flags, usage = USAGE_ERRORS[command]
    for argv, err in (
        ((command, *REQUIRED.get(command, ()), "--bogus"), TOP_USAGE),
        ((command, *flags), usage),
    ):
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        assert exit_.value.code == EXIT_CONFIG
        assert capsys.readouterr() == ("", err)


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
    # one unit mode at mu 1: at x = 0.5 the im column reads the file's sign
    for sign in (1, -1):
        modes.write_text(json.dumps([{"mu": 1, "m": 1, "amplitude": 1.0, "sign": sign}]))
        code, out, _ = run_cli(capsys, "samples", "--modes-file", str(modes), "--n", "3")
        assert code == EXIT_OK
        x, _, im, _ = out.splitlines()[2].split(",")
        assert (float(x), float(im)) == (0.5, sign)


def test_samples_bad_modes_file(capsys, tmp_path):
    mode = {"mu": 1, "m": 1, "amplitude": 1.0, "sign": 1}
    path = tmp_path / "modes.json"
    for modes in (
        [],
        5,
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
    path.write_text("[]")
    err = run_cli(capsys, "samples", "--modes-file", str(path))[2]
    assert err == "configuration error: the modes file holds no modes\n"
    missing = tmp_path / "nope.json"
    code, _, _ = run_cli(capsys, "samples", "--modes-file", str(missing))
    assert code == EXIT_CONFIG


def test_float_flags_take_every_json_number(capsys, tmp_path):
    path = tmp_path / "modes.json"
    path.write_text(json_text([{"mu": 1, "m": 1, "amplitude": 1.0, "sign": 1}]))
    # argparse's own negative-number pattern has no exponent
    argv = ("samples", "--modes-file", str(path), "--n", "2", "--x0", "-1e5", "--x1", "-1e-1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    xs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert xs == pytest.approx([-1e5, -0.1])
    # 1e400 is a JSON number that float reads as inf
    code, out, err = run_cli(capsys, "samples", "--modes-file", str(path), "--x1", "1e400")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "configuration error: sample range must be finite, got [0.0, inf]\n"


def test_samples_count_has_a_budget(capsys, tmp_path):
    path = tmp_path / "modes.json"
    path.write_text(json_text([{"mu": 1, "m": 1, "amplitude": 1.0, "sign": 1}]))
    n = str(MAX_SAMPLES + 1)
    code, out, err = run_cli(capsys, "samples", "--modes-file", str(path), "--n", n)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        f"configuration error: sample count {n} exceeds the budget of {MAX_SAMPLES} samples\n"
    )
    # the budget itself runs
    argv = ("samples", "--modes-file", str(path), "--n", str(MAX_SAMPLES))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert out.count("\n") == MAX_SAMPLES + 1


def test_samples_work_has_a_budget(capsys, monkeypatch, tmp_path):
    import germtower.tools as tools

    mode = {"mu": 1, "m": 1, "amplitude": 1.0, "sign": 1}
    path, csv_path = tmp_path / "modes.json", tmp_path / "table.csv"
    evaluated = []
    monkeypatch.setattr(tools.EllipticSemimodule, "evaluate", lambda esm, x: evaluated.append(x))
    too_many = f"the modes file holds {MAX_CLASSES + 1} modes, beyond the budget of {MAX_CLASSES}"
    too_long = (
        f"{MAX_SAMPLES} samples of 101 modes exceed the budget of "
        f"{MAX_MODE_EVALUATIONS} mode evaluations"
    )
    for modes, n, error in ((MAX_CLASSES + 1, 1, too_many), (101, MAX_SAMPLES, too_long)):
        path.write_text(json.dumps([mode] * modes))
        argv = ("samples", "--modes-file", str(path), "--n", str(n), "--csv", str(csv_path))
        assert run_cli(capsys, *argv) == (EXIT_CONFIG, "", f"configuration error: {error}\n")
        assert evaluated == [] and not csv_path.exists()
    # both budgets themselves are admitted: MAX_CLASSES modes at as many
    # points as the evaluation budget allows
    monkeypatch.setattr(tools.EllipticSemimodule, "evaluate", lambda esm, x: 0j)
    path.write_text(json.dumps([mode] * MAX_CLASSES))
    n = MAX_MODE_EVALUATIONS // MAX_CLASSES
    argv = ("samples", "--modes-file", str(path), "--n", str(n), "--csv", str(csv_path))
    assert run_cli(capsys, *argv) == (EXIT_OK, "", "")
    assert csv_path.read_text().count("\n") == n + 1


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
    proc = spawn_cli("correspond", "--config", str(path))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_module_entry_point_runs():
    proc = spawn_cli("expand", "--levels", "ST,MG")
    assert proc.returncode == 0
    assert "total 4" in proc.stdout


# A CLI process ends through ``run``: with the cyclic collector off, it
# flushes stdout and stderr, then calls ``os._exit``.  Its exit code,
# stdout and stderr are those of a process that ends through the
# interpreter's own shutdown.


@pytest.mark.parametrize("seed", ["0", "1"])
def test_the_report_bytes_do_not_depend_on_the_hash_seed(tmp_path, seed):
    # criterion 11 runs within one process, under one hash seed
    out_file = tmp_path / "report.json"
    env = dict(child_env(), PYTHONHASHSEED=seed)
    proc = spawn_cli("correspond", "--config", str(GOLDEN_CONFIG), "--out", str(out_file), env=env)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert out_file.read_bytes() == GOLDEN_CONFIG.with_name("golden_report.json").read_bytes()


def test_a_process_prints_all_its_output_and_exits_with_its_code(capsys, monkeypatch, tmp_path):
    out_file = tmp_path / "report.json"
    proc = spawn_cli("correspond", "--config", str(GOLDEN_CONFIG), "--out", str(out_file))
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.endswith("\ndiagnostics: 4/4 passed\n")
    assert run_cli(capsys, "correspond", "--config", str(GOLDEN_CONFIG)) == (
        EXIT_OK, proc.stdout, ""
    )
    golden = GOLDEN_CONFIG.with_name("golden_report.json").read_bytes()
    assert out_file.read_bytes() == golden
    # "--config -" reads the config from stdin
    monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN_CONFIG.read_text(encoding="utf-8")))
    from_stdin = tmp_path / "stdin.json"
    assert run_cli(capsys, "correspond", "--config", "-", "--out", str(from_stdin)) == (
        EXIT_OK, proc.stdout, ""
    )
    assert from_stdin.read_bytes() == golden

    missing = tmp_path / "missing.json"
    proc = spawn_cli("correspond", "--config", str(missing))
    no_file = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(missing)!r}"
    assert (proc.returncode, proc.stdout) == (EXIT_CONFIG, "")
    assert proc.stderr == f"configuration error: {no_file}\n"

    cfg = golden_variant(tmp_path, amplitude={"table": dict.fromkeys(GOLDEN_CLASSES, 1e200)})
    proc = spawn_cli("correspond", "--config", str(cfg))
    assert proc.returncode == EXIT_DIAGNOSTIC
    assert proc.stdout.endswith("\ndiagnostics: 3/4 passed\n")
    assert proc.stderr == (
        "FAILED diagnostic: oscillator_constancy (max bistring modulus variance inf)\n"
    )

    proc = spawn_cli("correspond", "--bogus")
    assert (proc.returncode, proc.stdout) == (EXIT_CONFIG, "")
    assert proc.stderr.startswith("usage: germtower ")
    assert proc.stderr.endswith("germtower: error: unrecognized arguments: --bogus\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device():
    with open("/dev/full", "w") as full:
        # buffered, the summary fails at the last flush, which the
        # interpreter's shutdown reports
        proc = spawn_cli("correspond", "--config", str(GOLDEN_CONFIG), stdout=full)
        assert proc.returncode == 120
        assert proc.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert proc.stderr.endswith(
            f"OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        )
        # unbuffered, the first print fails inside the command
        unbuffered = dict(child_env(), PYTHONUNBUFFERED="1")
        proc = spawn_cli("correspond", "--config", str(GOLDEN_CONFIG), stdout=full, env=unbuffered)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == (
        f"configuration error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.parametrize("fd", [1, 2])
def test_a_process_started_with_a_closed_stream_exits_as_before(tmp_path, fd):
    # with its descriptor closed at start the stream is None: a print to
    # stdout is dropped, and a print to stderr goes to stdout
    close = functools.partial(os.close, fd)
    proc = spawn_cli("correspond", "--config", str(GOLDEN_CONFIG), preexec_fn=close)
    assert proc.returncode == EXIT_OK
    assert (proc.stdout.endswith("diagnostics: 4/4 passed\n"), proc.stderr) == (fd == 2, "")
    proc = spawn_cli("correspond", "--config", str(tmp_path / "missing.json"), preexec_fn=close)
    assert proc.returncode == EXIT_CONFIG
    shown = proc.stdout if fd == 2 else proc.stderr
    assert shown.startswith("configuration error: ") and shown.count("\n") == 1


def test_a_process_skips_atexit_and_flushes_a_buffered_stderr(tmp_path):
    # an atexit handler would print the marker; the stderr put in place is
    # block-buffered, so only run's own flush writes the error line
    missing = tmp_path / "missing.json"
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit ran')\n"
        "sys.stderr = open(2, 'w', closefd=False)\n"
        f"sys.argv = ['germtower', 'correspond', '--config', {str(missing)!r}]\n"
        "runpy.run_module('germtower.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    no_file = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(missing)!r}"
    assert (proc.returncode, proc.stdout) == (EXIT_CONFIG, "")
    assert proc.stderr == f"configuration error: {no_file}\n"
    # the installed script takes the same exit
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {"germtower": "germtower.cli:run"}


def test_a_process_runs_without_the_cyclic_collector(capsys):
    # run turns the collector off for its own process; main, which library
    # and test callers use, leaves it as it finds it
    code = (
        "import gc, germtower.cli as cli\n"
        "main = cli.main\n"
        "def seen():\n"
        "    print('collector on:', gc.isenabled())\n"
        "    return main(['expand', '--levels', 'ST'])\n"
        "cli.main = seen\n"
        "cli.run()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.startswith("collector on: False\n")
    assert gc.isenabled()
    assert run_cli(capsys, "expand", "--levels", "ST")[0] == EXIT_OK
    assert gc.isenabled()


def test_cli_import_stays_off_the_introspection_modules():
    # Every CLI op is a fresh process that starts with this import;
    # dataclasses would bring inspect, ast, dis and tokenize with it.
    # statistics is imported only by the variance's non-finite fallback,
    # germtower.tools only by the subcommands that run no pipeline.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "statistics", "germtower.tools")
    code = f"import sys, germtower.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_modules_compiled_last_compile_within_a_mebibyte():
    # Without a bytecode cache (PYTHONDONTWRITEBYTECODE=1) every CLI op
    # compiles src/ from source.  These modules compile after the engine is
    # loaded, so the working memory of their compile sets every op's peak RSS.
    peaks = {}
    for name in ("cli", "config", "pipeline", "report", "tools"):
        source = (SRC / "germtower" / f"{name}.py").read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            compile(source, f"{name}.py", "exec")
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) < 2**20, peaks
