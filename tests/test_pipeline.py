"""Config parsing, canonical serialization, and the end-to-end pipeline."""

import json
import math
import statistics
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germtower import (
    Mode,
    PipelineConfig,
    PipelineError,
    TowerConfig,
    config_from_json,
    config_to_json,
    dumps_canonical,
    run_pipeline,
)
from germtower.cuspidal import EllipticSemimodule
from germtower.pipeline import (
    _pvariance,
    emit_expansion,
    normalize_scenario,
    parse_reduce_rule,
    sample_rows,
    samples_csv,
)
from germtower.tower import ClassIndex, LEFT

DATA_DIR = Path(__file__).parent / "data"


def make_config(**overrides):
    kwargs = dict(tower=TowerConfig(2, 1, 6), scenario="swallowtail")
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


# ---------------------------------------------------------------------------
# config parsing


def test_normalize_scenario_aliases():
    assert normalize_scenario("fold") == "Fold"
    assert normalize_scenario("Elliptic-Umbilic") == "EllipticUmbilic"
    assert normalize_scenario("hyperbolic_umbilic") == "HyperbolicUmbilic"
    assert normalize_scenario(None) is None
    assert normalize_scenario("none") is None
    assert normalize_scenario("") is None
    with pytest.raises(ValueError):
        normalize_scenario("butterfly")


def test_parse_reduce_rule_forms():
    assert parse_reduce_rule("all", 4)(ClassIndex(9, 1))
    assert not parse_reduce_rule("none", 4)(ClassIndex(1, 1))
    le2 = parse_reduce_rule("mu<=2", 4)
    assert le2(ClassIndex(2, 1)) and not le2(ClassIndex(3, 1))
    half = parse_reduce_rule("mu<=H", 7)  # H = ceil(7/2) = 4
    assert half(ClassIndex(4, 1)) and not half(ClassIndex(5, 1))
    even = parse_reduce_rule("mu%2==0", 4)
    assert even(ClassIndex(2, 1)) and not even(ClassIndex(3, 1))
    gt = parse_reduce_rule("mu > 3", 4)
    assert gt(ClassIndex(4, 1)) and not gt(ClassIndex(3, 1))
    with pytest.raises(ValueError):
        parse_reduce_rule("level>=2", 4)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(orth_dims=4)
    with pytest.raises(ValueError):
        make_config(reduce_rule="bogus")
    with pytest.raises(ValueError):
        make_config(covering_depths=(1, 9))
    with pytest.raises(ValueError):
        make_config(scenario="parabolic")
    with pytest.raises(ValueError):
        make_config(amplitude="loud")
    cfg = make_config(amplitude={"1,1": 2.0, "2,1": 0.5})
    assert cfg.amplitude == {ClassIndex(1, 1): 2.0, ClassIndex(2, 1): 0.5}


def test_config_json_roundtrip():
    raw = {
        "tower": {"quantum_modulus": 2, "offset": 1, "depth": 6},
        "scenario": "swallowtail",
        "reduce": "mu<=3",
        "orth_dims": 2,
        "amplitude": "mu",
        "covering_depths": [4, 2],
        "even_classes": False,
    }
    cfg = config_from_json(raw)
    assert cfg.scenario == "Swallowtail"
    assert cfg.covering_depths == (4, 2)
    echoed = config_to_json(cfg)
    assert config_from_json(echoed) == cfg
    with pytest.raises(ValueError):
        config_from_json({"tower": raw["tower"], "mystery": 1})
    with pytest.raises(ValueError):
        config_from_json({"scenario": "fold"})


def test_config_germ_template_parsed():
    raw = {
        "tower": {"quantum_modulus": 2, "offset": 1, "depth": 2},
        "germ_template": {
            "1,1": {"nvars": 1, "coeffs": [[[2], "1"]]},
            "2,1": {"nvars": 1, "coeffs": [[[2], "3/2"]]},
        },
    }
    cfg = config_from_json(raw)
    assert set(cfg.germ_template) == {ClassIndex(1, 1), ClassIndex(2, 1)}
    echoed = config_to_json(cfg)
    assert echoed["germ_template"]["2,1"]["coeffs"] == [[[2], "3/2"]]
    assert config_from_json(echoed) == cfg


# ---------------------------------------------------------------------------
# canonical JSON


def test_dumps_canonical_scalars():
    assert dumps_canonical(None) == "null"
    assert dumps_canonical(True) == "true"
    assert dumps_canonical(12) == "12"
    assert dumps_canonical(0.1) == "0.10000000000000001"
    assert dumps_canonical("a\"b\\c\n") == '"a\\"b\\\\c\\u000a"'
    with pytest.raises(ValueError):
        dumps_canonical(float("nan"))
    with pytest.raises(ValueError):
        dumps_canonical(float("inf"))
    with pytest.raises(TypeError):
        dumps_canonical({1, 2})


def test_dumps_canonical_is_valid_json_and_order_preserving():
    obj = {"b": [1, 2.5, None], "a": {"nested": [True, "x"]}, "empty": [], "none": {}}
    text = dumps_canonical(obj)
    assert json.loads(text) == obj
    # insertion order is kept, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_dumps_canonical_large_report_is_exact():
    # well past the emitter's chunk block size, nested two levels deep
    obj = {"rows": [{"i": i, "x": i / 7, "s": f"r{i}\t"} for i in range(3000)]}
    text = dumps_canonical(obj)
    assert json.loads(text) == obj
    assert text.count("\n") == 3 + 5 * 3000
    assert '"s": "r2999\\u0009"\n    }\n  ]\n}' in text


def test_dumps_canonical_floats_roundtrip():
    for value in (0.1, 1 / 3, 2.0, 1e-17, 123456.789, -0.75):
        assert json.loads(dumps_canonical(value)) == value


# ---------------------------------------------------------------------------
# exact variance


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
@example([5e-324, -5e-324, 2.2e-308, 1e-310])
@example([-0.0, 0.0])
@example([-3.5, 1e300, -1e-300])
@example([1e308, -1e308, 0.0])
def test_pvariance_matches_statistics_bit_for_bit(values):
    try:
        expected = statistics.pvariance(values)
    except OverflowError:
        with pytest.raises(OverflowError):
            _pvariance(values)
        return
    got = _pvariance(values)
    assert got == expected
    assert repr(got) == repr(expected)


# ---------------------------------------------------------------------------
# pipeline runs


def test_run_pipeline_swallowtail_report():
    report = run_pipeline(make_config())
    assert report.rule == 3
    assert [row["label"] for row in report.level_rows] == ["ST", "MG", "M"]
    assert len(report.cascade) == 4
    assert report.expansions["free_count"] == 3
    assert report.expansions["interaction_count"] == 6
    assert report.all_diagnostics_passed()
    assert [d["name"] for d in report.diagnostics] == [
        "level_bijection",
        "split_partition",
        "oscillator_constancy",
        "desingularized_sections",
    ]


def test_run_pipeline_no_scenario():
    report = run_pipeline(make_config(scenario=None))
    assert report.rule == 1
    assert [row["label"] for row in report.level_rows] == ["ST"]
    assert report.cascade == ()
    assert report.expansions == {
        "terms": [{"kind": "free", "right": "ST", "left": "ST"}],
        "free_count": 1,
        "interaction_count": 0,
    }
    assert report.all_diagnostics_passed()


def test_run_pipeline_two_level_scenarios():
    for scenario in ("fold", "cusp", "elliptic-umbilic", "hyperbolic-umbilic"):
        report = run_pipeline(make_config(scenario=scenario))
        assert report.rule == 2, scenario
        assert [row["label"] for row in report.level_rows] == ["ST", "MG"], scenario
        assert report.all_diagnostics_passed(), scenario
        assert report.expansions["free_count"] == 2
        assert report.expansions["interaction_count"] == 2


def test_report_rows_reflect_level_towers():
    # keep the complementary (covering) classes low so the truncations bite
    report = run_pipeline(make_config(reduce_rule="mu>2", covering_depths=(4, 2)))
    st_row, mg_row, m_row = report.level_rows
    assert st_row["tower"]["depth"] == 6
    assert mg_row["tower"]["depth"] == 4
    assert m_row["tower"]["depth"] == 2
    assert st_row["cover"] is None and mg_row["cover"] is not None
    assert mg_row["mode_pairs"] == len(mg_row["weil_side"])
    # weil degrees match the per-level tower arithmetic
    for row in report.level_rows:
        n, off = row["tower"]["quantum_modulus"], row["tower"]["offset"]
        for w in row["weil_side"]:
            assert w["degree"] == off + w["mu"] * n


def test_report_bytes_deterministic():
    a = run_pipeline(make_config()).json_text()
    b = run_pipeline(make_config()).json_text()
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["rule"] == 3


def test_amplitude_mu_flows_into_modes():
    report = run_pipeline(make_config(scenario=None, amplitude="mu"))
    (row,) = report.level_rows
    amps = [m["amplitude"] for m in row["reduced"]["right"]]
    mus = [m["mu"] for m in row["reduced"]["right"]]
    assert amps == [float(mu) for mu in mus]


def test_amplitude_table_missing_class_fails():
    cfg = make_config(scenario=None, amplitude={"1,1": 1.0})
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "compactify"


def test_even_classes_filter():
    report = run_pipeline(make_config(scenario=None, even_classes=True))
    (row,) = report.level_rows
    assert [w["mu"] for w in row["weil_side"]] == [2, 4, 6]
    assert [m["mu"] for m in row["reduced"]["right"]] == [2]
    assert [m["mu"] for m in row["orthogonal"]["right"]] == [4, 6]
    assert report.all_diagnostics_passed()


def test_pipeline_errors_carry_stage():
    cfg = make_config(scenario=None, reduce_rule="none")
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "levels"
    assert str(exc.value).startswith("[levels]")


def test_germ_template_must_cover_but_shape_free():
    # a template mapping missing a class is a sections-stage error
    cfg = make_config(
        scenario=None,
        tower=TowerConfig(2, 1, 2),
        germ_template={"1,1": {"nvars": 1, "coeffs": [[[2], "1"]]}},
    )
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "sections"


def test_memoized_germ_work_does_not_leak_between_runs():
    golden = json.loads((DATA_DIR / "golden_config.json").read_text())
    expected = (DATA_DIR / "golden_report.json").read_text(encoding="utf-8")
    others = [
        make_config(tower=TowerConfig(2, 1, 200)),
        make_config(
            scenario=None,
            tower=TowerConfig(2, 1, 2),
            germ_template={
                "1,1": {"nvars": 1, "coeffs": [[[2], "1"], [[3], "5/7"]]},
                "2,1": {"nvars": 1, "coeffs": [[[1], "-2"], [[2], "3/2"]]},
            },
        ),
    ]
    assert run_pipeline(config_from_json(golden)).json_text() == expected
    for config in others:
        assert run_pipeline(config).all_diagnostics_passed()
    assert run_pipeline(config_from_json(golden)).json_text() == expected


# ---------------------------------------------------------------------------
# samples


def sample_esm():
    return EllipticSemimodule(LEFT, (Mode(1, 1, 1.0, 1), Mode(2, 1, 0.5, 1)), "ST", "T", 2)


def test_sample_rows_spacing_and_values():
    esm = sample_esm()
    rows = sample_rows(esm, 5, 0.0, 2.0)
    assert [r[0] for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    z = esm.evaluate(0.5)
    assert rows[1][1] == pytest.approx(z.real)
    assert rows[1][2] == pytest.approx(z.imag)
    assert rows[1][3] == pytest.approx(abs(z))
    (single,) = sample_rows(esm, 1, 0.25, 0.25)
    assert single[0] == 0.25
    with pytest.raises(ValueError):
        sample_rows(esm, 0, 0, 1)
    with pytest.raises(ValueError):
        sample_rows(esm, 3, 1.0, 1.0)


def test_samples_csv_shape():
    text = samples_csv(sample_esm(), 3, 0.0, 1.0)
    lines = text.splitlines()
    assert lines[0] == "x,re,im,modulus"
    assert len(lines) == 4
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == 4
