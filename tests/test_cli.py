"""Command line behavior: output shapes, exit codes, file emission."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from germtower.cli import (
    EXIT_CONFIG,
    EXIT_CONTRACT,
    EXIT_DIAGNOSTIC,
    EXIT_OK,
    main,
)

GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden_config.json"
GOLDEN_CLASSES = ("1,1", "2,1", "2,2", "3,1", "4,1", "5,1", "5,2", "6,1")


def golden_variant(tmp_path, **changes):
    """Write the golden config with top-level keys replaced; return its path."""
    data = json.loads(GOLDEN_CONFIG.read_text())
    data.update(changes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tower_prints_classes_and_places(capsys, tmp_path):
    out_file = tmp_path / "tower.json"
    code, out, err = run_cli(
        capsys,
        "tower", "--modulus", "2", "--offset", "1", "--depth", "3", "--out", str(out_file),
    )
    assert code == EXIT_OK
    assert "tower: N=2 offset=1 depth=3" in out
    assert "class (1,1)  degree 3" in out
    assert "class (3,1)  degree 7" in out
    assert "place mu=2" in out
    payload = json.loads(out_file.read_text())
    assert [c["degree"] for c in payload["classes"]] == [3, 5, 7]


def test_tower_requires_modulus_and_depth(capsys):
    code, out, err = run_cli(capsys, "tower", "--offset", "1")
    assert code == EXIT_CONFIG
    assert "configuration error" in err


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
    """The germ JSON text exits 2 through classify and through germ_template."""
    path = tmp_path / "germs.jsonl"
    path.write_text(germ + "\n")
    code, out, err = run_cli(capsys, "classify", "--file", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("configuration error:") and err.count("\n") == 1

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
    ],
    ids=["exponents-not-a-list", "max-degree-string", "huge-decimal-exponent"],
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
    ],
    ids=["covering-depths-int", "germ-template-list", "reduce-int", "multiplicity-null"],
)
def test_config_type_errors_are_config_errors(capsys, tmp_path, changes):
    cfg = golden_variant(tmp_path, **changes)
    code, out, err = run_cli(capsys, "correspond", "--config", str(cfg))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("configuration error:") and err.count("\n") == 1


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
    cfg = golden_variant(tmp_path, amplitude={"table": {k: "nan" for k in GOLDEN_CLASSES}})
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "correspond", "--config", str(cfg), "--out", str(out_file))
    assert code == EXIT_CONFIG
    assert err == "configuration error: reports may not contain NaN or infinity\n"


def test_report_escapes_control_characters_in_the_config_echo(capsys, tmp_path):
    cfg = golden_variant(tmp_path, reduce="mu<=3\n\t")
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "correspond", "--config", str(cfg), "--out", str(out_file))
    assert code == EXIT_OK
    assert '  "reduce": "mu<=3\\u000a\\u0009",\n' in out_file.read_text()


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


def test_levels_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "levels", "-N", "2", "--offset", "1", "--depth", "6", "--scenario", "swallowtail",
    )
    assert code == EXIT_OK
    assert "rule 3; levels: ST, MG, M" in out
    assert "cascade: inject Swallowtail germ x^5 on 3 space sections" in out
    assert "cascade: blowup Fold: covering germ x" in out


def test_levels_contract_violation_exit(capsys):
    code, _, err = run_cli(
        capsys,
        "levels", "-N", "2", "--offset", "1", "--depth", "6", "--reduce", "none",
    )
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
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code, _, err = run_cli(capsys, "samples", "--modes-file", str(empty))
    assert code == EXIT_CONFIG
    missing = tmp_path / "nope.json"
    code, _, _ = run_cli(capsys, "samples", "--modes-file", str(missing))
    assert code == EXIT_CONFIG


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "germtower.cli", "expand", "--levels", "ST,MG"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total 4" in proc.stdout
