"""Config parsing, canonical serialization, and the end-to-end pipeline."""

import json
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from germtower import (
    Germ,
    Mode,
    PipelineConfig,
    PipelineError,
    TowerConfig,
    config_from_json,
    config_to_json,
    dumps_canonical,
    level_record,
    run_pipeline,
)
from germtower.config import (
    _SCENARIO_ALIASES,
    _amplitude_callable,
    normalize_scenario,
    parse_reduce_rule,
)
from germtower.blowup import _cover_map
from germtower.cuspidal import EllipticSemimodule, LevelRecord, WeilDescriptor, bistring_modulus
from germtower.germs import HYPERBOLIC_UMBILIC, germ_from_json
from germtower.sheaves import Bisemisheaf, Section, Semisheaf
from germtower.pipeline import (
    _DIAG_SAMPLES,
    _bistring_moduli,
    _pvariance,
    _worst_bistring_variance,
    emit_expansion,
)
from germtower.report import write_output
from germtower.tools import MAX_SAMPLES, sample_rows, samples_csv
from germtower.tower import ClassIndex, LEFT, MAX_CLASSES, RIGHT, Tower, tower_config_from_json
from test_sweep import SWEEP, load_gen

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


def test_scenario_aliases_are_the_catalogue_names_spelled_three_ways():
    # the table is derived from CATALOGUE; it must be the one written out before
    assert _SCENARIO_ALIASES == {
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
    for spelling in ("elliptic umbilic", "elliptic--umbilic"):
        with pytest.raises(ValueError, match="unknown scenario"):
            normalize_scenario(spelling)


def test_parse_reduce_rule_forms():
    assert parse_reduce_rule("all", 4)(ClassIndex(9, 1))
    assert not parse_reduce_rule("none", 4)(ClassIndex(1, 1))
    le2 = parse_reduce_rule("mu<=2", 4)
    assert le2(ClassIndex(2, 1)) and not le2(ClassIndex(3, 1))
    half = parse_reduce_rule("mu<=H", 7)  # H = ceil(7/2) = 4
    assert half(ClassIndex(4, 1)) and not half(ClassIndex(5, 1))
    half = parse_reduce_rule("mu<=H", 4)
    assert [half(ClassIndex(mu, 1)) for mu in (1, 2, 3, 4)] == [True, True, False, False]
    half = parse_reduce_rule("mu<=H", 5)
    assert [half(ClassIndex(mu, 1)) for mu in (1, 2, 3, 4, 5)] == [True, True, True, False, False]
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
    # nothing is coerced: not strings or floats to integers, not a bare
    # number to one entry per class, not a bare table to an amplitude object
    with pytest.raises(ValueError, match="covering_depths"):
        make_config(covering_depths=("6", 5.9))
    with pytest.raises(ValueError, match="multiplicity"):
        make_config(tower=TowerConfig(2, 1, 3, (1.9, 2, 1)))
    with pytest.raises(ValueError, match="multiplicity"):
        make_config(tower=TowerConfig(2, 1, 3, 2))
    with pytest.raises(ValueError, match="amplitude"):
        make_config(tower=TowerConfig(2, 1, 2), amplitude={"1,1": 2.0, "2,1": 0.5})
    square = Germ.monomial(1, (2,))
    with pytest.raises(ValueError, match="germ_template"):
        make_config(tower=TowerConfig(2, 1, 2), germ_template={"1,1": square, "2,1": square})
    # the table covers both classes of a 2-class tower
    cfg = make_config(
        tower=TowerConfig(2, 1, 2), amplitude={"table": {"1,1": 2.0, "2,1": 0.5}}
    )
    assert cfg.amplitude == {ClassIndex(1, 1): 2.0, ClassIndex(2, 1): 0.5}


def test_config_json_roundtrip():
    raw = {
        "tower": {"quantum_modulus": 2, "offset": 1, "depth": 6},
        "scenario": "swallowtail",
        "reduce": "mu<=3",
        "orth_dims": 2,
        "amplitude": "mu",
        "covering_depths": [6, 5],
        "even_classes": False,
    }
    cfg = config_from_json(raw)
    assert cfg.scenario == "Swallowtail"
    assert cfg.covering_depths == (6, 5)
    echoed = config_to_json(cfg)
    assert config_to_json(config_from_json(echoed)) == echoed
    with pytest.raises(ValueError):
        config_from_json({"tower": raw["tower"], "mystery": 1})
    with pytest.raises(ValueError):
        config_from_json({"scenario": "fold"})
    for data in (5, None):
        with pytest.raises(ValueError, match="pipeline config must be a JSON object"):
            config_from_json(data)


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
    assert config_to_json(config_from_json(echoed)) == echoed


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
    # 3,000 rows of mixed values, nested two levels deep
    obj = {"rows": [{"i": i, "x": i / 7, "s": f"r{i}\t"} for i in range(3000)]}
    text = dumps_canonical(obj)
    assert json.loads(text) == obj
    assert text.count("\n") == 3 + 5 * 3000
    assert '"s": "r2999\\u0009"\n    }\n  ]\n}' in text


def test_dumps_canonical_starts_at_the_given_indent():
    assert dumps_canonical({"a": [1]}, "    ") == '{\n      "a": [\n        1\n      ]\n    }'
    assert dumps_canonical([], "  ") == "[]"


def test_dumps_canonical_floats_roundtrip():
    for value in (0.1, 1 / 3, 2.0, 1e-17, 123456.789, -0.75):
        assert json.loads(dumps_canonical(value)) == value


def _per_value_walk(obj, pad="") -> str:
    """The canonical text written value by value: the reference for the
    emitter's lists of ints, which it writes with one join."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return dumps_canonical(obj)
    inner = pad + "  "
    if isinstance(obj, list):
        items = [_per_value_walk(value, inner) for value in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]" if obj else "[]"
    items = [f'"{key}": ' + _per_value_walk(value, inner) for key, value in obj.items()]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}" if obj else "{}"


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
)


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(
        JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=5)
        | st.lists(st.integers() | st.booleans(), max_size=5)
        | st.dictionaries(st.text("abc", max_size=2), inner, max_size=3),
        max_leaves=20,
    ),
    st.sampled_from(["", "  ", "      "]),
)
@example([1, 2, 3], "")
@example([1, True, 2], "  ")
@example({"multiplicity": [1, 2], "even": [False, True], "mixed": [0, 1.5, "2"]}, "  ")
def test_dumps_canonical_joins_int_lists_as_the_per_value_walk_writes_them(obj, pad):
    assert dumps_canonical(obj, pad) == _per_value_walk(obj, pad)


JSON_TEXT = st.text(st.characters(min_codepoint=0x20), max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(
        st.none() | st.booleans() | st.integers() | JSON_TEXT,
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(JSON_TEXT, inner, max_size=3),
        max_leaves=20,
    ),
    st.sampled_from(["", "  ", "      "]),
)
@example({"a\\": ["\"", [], {}, [1, True]], "": {"b": None}}, "  ")
def test_dumps_canonical_writes_the_standard_library_text_without_floats(obj, pad):
    # the standard encoder agrees wherever it needs no float and no \n-style escape
    expected = json.dumps(obj, indent=2, ensure_ascii=False).replace("\n", "\n" + pad)
    assert dumps_canonical(obj, pad) == expected


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


AMPLITUDES = st.sampled_from([0.0, -0.0, 0.5, 3.0, 5e-324, 1e200, 1e300]) | st.floats(0, 1e308)


def _bistring_record(pairs) -> LevelRecord:
    # one row per (mu, amplitude) pair; both strings of a pair share the amplitude
    carrier = tuple(ClassIndex(mu, m) for m, (mu, _) in enumerate(pairs, 1))
    right = EllipticSemimodule(RIGHT, carrier, tuple(amp for _, amp in pairs))
    return LevelRecord("ST", carrier, (right,))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 3), AMPLITUDES), min_size=1, max_size=6),
        min_size=1,
        max_size=3,
    )
)
@example([[(2, 0.0), (2, -0.0), (2, 1.5), (3, -0.0)]])
@example([[(1, 1e300), (1, 1e300)], [(3, 1e200), (1, 1e300), (2, 1e155)]])
@example([[(1, 1.0), (2, 1e150)]])
@example([[(3, 1e155), (1, 1.3e154), (2, 0.5)]])
@example([[(3, 1.0), (57, 1.0)]])  # the widest range is not the largest variance
def test_memoized_variances_equal_each_pairs_own(parts):
    # one modulus tuple per distinct (mu, amplitude) key and a variance only
    # for the tuples that can hold the maximum; the worst variance and the
    # pass flag must be those of every pair computed alone, from its Mode
    # views, bit for bit, signed zeros, overflow and inf included
    records = [_bistring_record(pairs) for pairs in parts]
    expected = []
    for record in records:
        right, left = record.reduced
        for mr, ml in zip(right.modes, left.modes):
            try:
                expected.append(_pvariance(bistring_modulus(mr, ml, _DIAG_SAMPLES)))
            except OverflowError:
                expected.append(math.inf)
    worst, constant = _worst_bistring_variance(records)
    assert (repr(worst), constant) == (repr(max(expected)), all(v < 1e-12 for v in expected))


def test_a_variance_of_exactly_1e_12_is_not_constant(monkeypatch):
    # the constancy bound is strict: 1e-12 fails it, the float just below passes
    import germtower.pipeline as pipeline_module

    records = [_bistring_record([(1, 1.0)])]
    for variance, constant in ((1e-12, False), (math.nextafter(1e-12, 0), True)):
        monkeypatch.setattr(pipeline_module, "_pvariance", lambda values: variance)
        assert _worst_bistring_variance(records) == (variance, constant)


def _assert_moduli_are_bistring_modulus(keys):
    got = list(map(repr, _bistring_moduli(keys)))
    expected = [
        repr(tuple(bistring_modulus(Mode(mu, 1, a, -1), Mode(mu, 1, a, 1), _DIAG_SAMPLES)))
        for mu, a in keys
    ]
    assert got == expected


def _sweep_keys() -> dict:
    gen = load_gen()
    keys = {}
    for workload, seeds, ops in SWEEP:
        for seed in seeds:
            for op in ops:
                data = gen.op_config(workload, seed, op)
                rule = _amplitude_callable(data["amplitude"])
                classes = Tower(tower_config_from_json(data["tower"])).class_indices()
                keys.update(dict.fromkeys((idx.mu, float(rule(idx))) for idx in classes))
    return keys


def test_column_moduli_are_bistring_modulus_over_the_sweeps_keys():
    # every (mu, amplitude) that a benchmark config's classes can give
    keys = _sweep_keys()
    assert len(keys) > 1000
    _assert_moduli_are_bistring_modulus(list(keys))


def test_column_moduli_are_bistring_modulus_up_to_the_class_budget():
    mus = range(1, MAX_CLASSES + 1)
    _assert_moduli_are_bistring_modulus([(mu, (1.0, float(mu), mu / 7)[mu % 3]) for mu in mus])
    edges = (0.0, -0.0, 5e-324, 1e-160, 1e150, 1e200, 1e300)
    _assert_moduli_are_bistring_modulus([(mu, a) for mu in mus[::997] for a in edges])


# ---------------------------------------------------------------------------
# pipeline runs


def test_run_pipeline_swallowtail_report():
    report = run_pipeline(make_config())
    assert len(report.records) == 3
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
    assert len(report.records) == 1
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
        assert len(report.records) == 2, scenario
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


@pytest.mark.parametrize("reduce_rule", ["mu<=H", "mu%2==1"])
@pytest.mark.parametrize(
    "scenario",
    [None, "fold", "cusp", "swallowtail", "elliptic-umbilic", "hyperbolic-umbilic"],
)
def test_split_and_compactify_commute_on_the_pipeline_route(scenario, reduce_rule):
    tower = TowerConfig(2, 1, 6, (1, 2, 1, 1, 2, 1))
    config = make_config(scenario=scenario, tower=tower, reduce_rule=reduce_rule)
    report = run_pipeline(config)
    for level, row in zip(report.levels, report.level_rows, strict=True):
        record = level_record(level.carrier, level.reduced, level.orthogonal)
        weil = tuple(ClassIndex(w.mu, w.m) for w in record.weil_side)
        parts = [part for part in (record.reduced, record.orthogonal) if part is not None]
        cusp = tuple(sorted(idx for _, left in parts for idx in left.carrier))
        halves = [part for part in (level.reduced, level.orthogonal) if part is not None]
        carrier = tuple(sorted(idx for part in halves for idx in part.right.carrier))
        assert cusp == weil == carrier
        assert [(w["mu"], w["m"]) for w in row["weil_side"]] == list(weil)
        for side in ("right", "left"):
            modes = row["reduced"][side]
            if row["orthogonal"] is not None:
                modes = modes + row["orthogonal"][side]
            assert sorted((m["mu"], m["m"]) for m in modes) == list(weil)
        # the left modes mirror the right ones: same classes, sign +1 for -1
        for part in (row["reduced"], row["orthogonal"]):
            if part is not None:
                assert all(m["sign"] == -1 for m in part["right"])
                assert part["left"] == [dict(m, sign=1) for m in part["right"]]


def test_cascade_runs_on_the_right_semisheaf_only(monkeypatch):
    import germtower.blowup as blowup_module
    import germtower.pipeline as pipeline_module

    sides = {}

    def count(module, name, side_of):
        fn = getattr(module, name)
        sides[name] = []

        def counted(*args, **kwargs):
            sides[name].append(side_of(*args, **kwargs))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(pipeline_module, "attach_sections", lambda classes, side, *rest: side)
    count(pipeline_module, "shift", lambda s: s.side)
    count(blowup_module, "deform", lambda s: s.side)
    count(blowup_module, "blow_up", lambda bundle: bundle.base.side)
    count(pipeline_module, "desingularize", lambda s: s.side)
    # classify_germ is called from deform and from the diagnostics
    classified = {}
    for module in (blowup_module, pipeline_module):
        classify, calls = module.classify_germ, classified.setdefault(module.__name__, [])

        def counted(germ, classify=classify, calls=calls):
            calls.append(germ)
            return classify(germ)

        monkeypatch.setattr(module, "classify_germ", counted)
    golden = json.loads((DATA_DIR / "golden_config.json").read_text())
    expected = (DATA_DIR / "golden_report.json").read_text(encoding="utf-8")
    assert run_pipeline(config_from_json(golden)).json_text() == expected
    # no call site classifies the same germ twice
    for site, calls in classified.items():
        assert calls and len(calls) == len(set(calls)), (site, calls)
    # one call per level part on the golden swallowtail: ST, MG and M
    assert {name: len(calls) for name, calls in sides.items()} == {
        "attach_sections": 1,
        "shift": 1,
        "deform": 2,
        "blow_up": 2,
        "desingularize": 6,
    }
    assert {side for calls in sides.values() for side in calls} == {RIGHT}


# a germ per class of make_config's depth-6 tower, each one different
PER_CLASS_TEMPLATE = {
    f"{mu},1": {"nvars": 1, "coeffs": [[[2], "1"], [[3], f"{mu}/7"]]} for mu in range(1, 7)
}


def test_a_report_builds_no_section(monkeypatch):
    built = []
    init = Section.__init__
    monkeypatch.setattr(Section, "__init__", lambda self, *args: built.append(init(self, *args)))
    golden = config_from_json(json.loads((DATA_DIR / "golden_config.json").read_text()))
    for config in (golden, make_config(germ_template=PER_CLASS_TEMPLATE)):
        report = run_pipeline(config)
        report.json_text()
        assert built == []
        # sections are views, built when read at the API edge
        assert len(report.levels[0].reduced.right.sections) == len(built) > 0
        built.clear()


def deep_swallowtail():
    """A depth-888 swallowtail, the benchmark's deep shape."""
    return make_config(tower=TowerConfig(2, 0, 888), reduce_rule="mu<=H")


def test_a_report_builds_no_mode_and_no_weil_descriptor(monkeypatch):
    built = {"modes": 0, "weil": 0}
    init, new = Mode.__init__, WeilDescriptor.__new__

    def mode_init(self, *args):
        built["modes"] += 1
        init(self, *args)

    def weil_new(cls, *args):
        built["weil"] += 1
        return new(cls, *args)

    monkeypatch.setattr(Mode, "__init__", mode_init)
    monkeypatch.setattr(WeilDescriptor, "__new__", weil_new)
    golden = config_from_json(json.loads((DATA_DIR / "golden_config.json").read_text()))
    for config in (golden, deep_swallowtail()):
        report = run_pipeline(config)
        report.json_text()
        assert built == {"modes": 0, "weil": 0}
        # modes, left semimodules and Weil descriptors are views, built when read
        record = report.records[0]
        assert len(record.reduced[1].modes) == built["modes"] > 0
        assert len(record.weil_side) == built["weil"] > 0
        built.update(modes=0, weil=0)


def test_a_run_checks_no_carrier_class_by_class(monkeypatch):
    # every carrier of a run comes from Tower.class_indices, restriction or
    # truncation, so no sheaf build checks its classes one by one
    configs = (make_config(covering_depths=(5, 4)), deep_swallowtail())
    calls = {"contains": 0, "built": 0}
    contains, post_init = Tower.contains, Semisheaf.__post_init__

    def counting_contains(self, index):
        calls["contains"] += 1
        return contains(self, index)

    def counting_post_init(self):
        calls["built"] += 1
        post_init(self)

    monkeypatch.setattr(Tower, "contains", counting_contains)
    monkeypatch.setattr(Semisheaf, "__post_init__", counting_post_init)
    for config in configs:
        run_pipeline(config).json_text()
    assert calls["contains"] == 0 and calls["built"] > 0


def test_a_run_builds_no_mirror_sheaf_and_hashes_each_germ_object_once(monkeypatch):
    # A run compactifies each part's right semisheaf once and gives the left
    # the same modes with sign +1, so it reads no Bisemisheaf.left and builds
    # no mirror sheaf; it hashes a germ by value once per distinct object in
    # a part, never once per class.
    counts = {"left": 0, "built": 0, "hash": 0}

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(Bisemisheaf, "left", property(counting("left", Bisemisheaf.left.fget)))
    monkeypatch.setattr(Semisheaf, "__post_init__", counting("built", Semisheaf.__post_init__))
    monkeypatch.setattr(Germ, "__hash__", counting("hash", Germ.__hash__))
    golden = config_from_json(json.loads((DATA_DIR / "golden_config.json").read_text()))
    template = make_config(germ_template=PER_CLASS_TEMPLATE)
    for config, hashes in ((golden, 6), (template, 8)):
        for key in counts:
            counts[key] = 0
        run_pipeline(config).json_text()
        assert counts == {"left": 0, "built": 21, "hash": hashes}


def test_every_part_carries_its_level_tag():
    golden = config_from_json(json.loads((DATA_DIR / "golden_config.json").read_text()))
    for config in (golden, make_config(), make_config(scenario="hyperbolic-umbilic")):
        for level in run_pipeline(config).levels:
            for part in filter(None, (level.reduced, level.orthogonal)):
                assert part.right.level == part.left.level == level.reduced.right.level


def test_two_runs_in_one_process_build_the_same_germs(monkeypatch):
    # classify_germ keeps no state, so a repeated run, and a repeated
    # umbilic classification, build exactly the germs the first one built
    import germtower.blowup as blowup_module
    import germtower.germs as germs_module
    import germtower.pipeline as pipeline_module

    counts = {"built": 0, "classified": 0}
    from_coeffs, classify = Germ.from_coeffs, germs_module.classify_germ

    def building(*args):
        counts["built"] += 1
        return from_coeffs(*args)

    def classifying(germ):
        counts["classified"] += 1
        return classify(germ)

    monkeypatch.setattr(Germ, "from_coeffs", staticmethod(building))
    for module in (germs_module, blowup_module, pipeline_module):
        monkeypatch.setattr(module, "classify_germ", classifying)
    golden = config_from_json(json.loads((DATA_DIR / "golden_config.json").read_text()))
    umbilic = make_config(scenario="hyperbolic-umbilic")
    # a swapped, flipped and scaled hyperbolic umbilic no other test builds
    rotated = {"nvars": 2, "coeffs": [[[0, 3], "-7/13"], [[3, 0], "7/13"]]}
    passes = []
    for _ in range(2):
        for key in counts:
            counts[key] = 0
        for config in (golden, umbilic):
            run_pipeline(config).json_text()
        assert germs_module.classify_germ(germ_from_json(rotated)).name == HYPERBOLIC_UMBILIC
        passes.append(dict(counts))
    assert passes[0] == passes[1]


def _passed(report) -> dict:
    return {diag["name"]: diag["passed"] for diag in report.diagnostics}


def test_a_lost_mode_fails_level_bijection(monkeypatch, tmp_path, capsys):
    import germtower.blowup as blowup_module
    import germtower.cuspidal as cuspidal_module
    from germtower.cli import EXIT_DIAGNOSTIC, main

    compactify, endo_split = cuspidal_module.compactify, blowup_module.endo_split

    def lossy(*args):
        module = compactify(*args)
        return module._replace(carrier=module.carrier[1:], amplitudes=module.amplitudes[1:])

    def losing(s, mask):
        # the split loses its first complementary class, which the level's
        # carrier, its Weil side, still holds
        reduced, complementary = endo_split(s, mask)
        return reduced, complementary.restrict([False] + [True] * (len(complementary) - 1))

    golden = DATA_DIR / "golden_config.json"
    for module, name, patch in (
        (cuspidal_module, "compactify", lossy),
        (blowup_module, "endo_split", losing),
    ):
        with monkeypatch.context() as patched:
            patched.setattr(module, name, patch)
            passed = _passed(run_pipeline(config_from_json(json.loads(golden.read_text()))))
            assert passed == {
                "level_bijection": False,
                "split_partition": True,
                "oscillator_constancy": True,
                "desingularized_sections": True,
            }, name
            out = tmp_path / "report.json"
            args = ["correspond", "--config", str(golden), "--out", str(out)]
            assert main(args) == EXIT_DIAGNOSTIC
            assert "FAILED diagnostic: level_bijection" in capsys.readouterr().err


def test_a_complementary_part_keeping_every_class_fails_split_partition(monkeypatch):
    import germtower.blowup as blowup_module

    endo_split = blowup_module.endo_split

    def overlapping(s, reduce):
        reduced, _ = endo_split(s, reduce)
        return reduced, s

    monkeypatch.setattr(blowup_module, "endo_split", overlapping)
    golden = config_from_json(json.loads((DATA_DIR / "golden_config.json").read_text()))
    passed = _passed(run_pipeline(golden))
    # the parts now hold more mode pairs than the level has classes
    assert not passed.pop("split_partition") and not passed.pop("level_bijection")
    assert all(passed.values())


def test_per_class_template_keeps_the_sides_mirrored():
    report = run_pipeline(make_config(germ_template=PER_CLASS_TEMPLATE))
    st_reduced = report.levels[0].reduced.right
    assert len({sec.germ for sec in st_reduced.sections}) == len(st_reduced) > 1
    for level in report.levels:
        for part in (level.reduced, level.orthogonal):
            if part is not None:
                right = [(sec.index, sec.germ) for sec in part.right.sections]
                assert right == [(sec.index, sec.germ) for sec in part.left.sections]


def test_report_bytes_deterministic():
    a = run_pipeline(make_config()).json_text()
    b = run_pipeline(make_config()).json_text()
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)["rule"] == 3


def _reference_pair(pair):
    if pair is None:
        return None
    return {
        side: [
            {"mu": mode.mu, "m": mode.m, "amplitude": mode.amplitude, "sign": mode.sign}
            for mode in semimodule.modes
        ]
        for side, semimodule in zip(("right", "left"), pair)
    }


def _classes(level) -> list:
    """The sorted classes of a level's built parts."""
    parts = (level.reduced, level.orthogonal)
    return sorted(idx for part in parts if part is not None for idx in part.right.carrier)


def _reference_row(level, record, lower) -> dict:
    """``lower`` is the previous level, None for the first; the cover maps
    its classes onto this level's by the one cover rule."""
    return {
        "label": level.reduced.right.level,
        "tower": {
            "quantum_modulus": level.reduced.right.tower.quantum_modulus,
            "offset": level.reduced.right.tower.offset,
            "depth": level.reduced.right.tower.depth,
        },
        "weil_side": [{"mu": w.mu, "m": w.m, "degree": w.degree} for w in record.weil_side],
        "reduced": _reference_pair(record.reduced),
        "orthogonal": _reference_pair(record.orthogonal),
        "mode_pairs": record.mode_pair_count(),
        "cover": None
        if lower is None
        else [[list(a), list(b)] for a, b in _cover_map(_classes(lower), _classes(level))],
        "coverage": None
        if level.coverage is None
        else [[list(idx), level.coverage[1]] for idx in level.coverage[0]],
    }


def reference_report(report) -> dict:
    """The report as one dict, its level rows built as dicts, one per level."""
    return {
        "config": report.config,
        "rule": len(report.records),
        "levels": [
            _reference_row(level, record, lower)
            for level, record, lower in zip(
                report.levels, report.records, (None, *report.levels[:-1]), strict=True
            )
        ],
        "cascade": list(report.cascade),
        "expansions": report.expansions,
        "diagnostics": report.diagnostics,
    }


TABLE_AMPLITUDES = st.sampled_from([0.1, 5e-324, 1e300, -0.0, 0, 7, 2.5]) | st.integers(0, 10**20)
SCENARIO_NAMES = [None, "fold", "cusp", "swallowtail", "elliptic-umbilic", "hyperbolic-umbilic"]


@st.composite
def report_configs(draw) -> PipelineConfig:
    # the even-class convention needs an even class in every part, so it
    # draws from the deeper towers and the rules that leave one there
    even = draw(st.booleans())
    modulus = draw(st.integers(1, 3))
    depth = draw(st.integers(4 if even else 1, 8))
    multiplicity = draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth))
    tower = TowerConfig(modulus, draw(st.integers(0, modulus - 1)), depth, tuple(multiplicity))
    rules = ["mu<=H", "mu<=2"] if even else ["mu<=H", "mu%2==0", "mu%2==1", "mu>1", "mu>=3"]
    amplitude = draw(st.sampled_from(["unit", "mu", "table"]))
    if amplitude == "table":
        keys = [f"{mu},{m}" for mu, n in enumerate(multiplicity, 1) for m in range(1, n + 1)]
        amplitude = {"table": {key: draw(TABLE_AMPLITUDES) for key in keys}}
    try:
        return PipelineConfig(
            tower,
            draw(st.sampled_from(SCENARIO_NAMES)),
            draw(st.sampled_from(rules)),
            amplitude=amplitude,
            covering_depths=draw(st.none() | st.tuples(*[st.integers(1, depth)] * 2)),
            even_classes=even,
        )
    except ValueError:
        reject()


@settings(max_examples=150, deadline=None)
@given(report_configs())
def test_rows_writer_matches_the_dict_reference(config):
    report = run_pipeline(config)
    reference = reference_report(report)
    assert report.json_text() == dumps_canonical(reference) + "\n"
    assert report.level_rows == reference["levels"]


def test_deep_report_text_peaks_below_two_and_a_half_times_its_length():
    # most of a deep report is level rows, written without a dict per row
    report = run_pipeline(deep_swallowtail())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        text = report.json_text()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(text) > 800_000
    assert peak <= 2.5 * len(text), peak / len(text)


def test_writing_a_deep_report_to_its_file_peaks_below_its_length(tmp_path):
    # the CLI's writer streams the report's blocks; the whole text is never held
    report = run_pipeline(deep_swallowtail())
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_output(str(path), report.chunks())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 800_000
    assert peak < size, peak / size


# The class budget: tower.MAX_CLASSES classes, every one of them in a level.
CLASS_BUDGET = {
    "tower": {"quantum_modulus": 2, "offset": 0, "depth": MAX_CLASSES, "multiplicity": []},
    "scenario": "swallowtail",
    "reduce": "mu<=H",
    "amplitude": "unit",
}
# A child process runs config_from_json and run_pipeline under tracemalloc,
# with the cyclic collector off as in the CLI, and prints the traced peak.
BUDGET_PEAK = """
import gc, json, sys, tracemalloc
from germtower import config_from_json, run_pipeline
data = json.loads(sys.argv[1])
gc.disable()
tracemalloc.start()
report = run_pipeline(config_from_json(data))
print(tracemalloc.get_traced_memory()[1])
"""


def test_config_and_run_at_the_class_budget_peak_below_40_mib():
    # one class carrier serves the config, the plan and the run, the plan
    # splits each level by a byte mask, and the cover map is never held
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    child = subprocess.run(
        [sys.executable, "-c", BUDGET_PEAK, json.dumps(CLASS_BUDGET)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    peak = int(child.stdout)
    assert peak < 40 * 2**20, peak / 2**20


@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
def test_a_non_finite_amplitude_cannot_be_written(amplitude):
    report = run_pipeline(make_config())
    record = report.records[0]
    part = record.parts[0]
    part = part._replace(amplitudes=(amplitude,) + part.amplitudes[1:])
    record = record._replace(parts=(part,) + record.parts[1:])
    report = report._replace(records=(record,) + report.records[1:])
    with pytest.raises(ValueError, match="reports may not contain NaN or infinity"):
        report.json_text()


@settings(max_examples=100, deadline=None)
@given(config=report_configs())
def test_the_cli_writes_the_bytes_of_json_text(tmp_path_factory, config):
    report = run_pipeline(config)
    path = tmp_path_factory.getbasetemp() / "written.json"
    write_output(str(path), report.chunks())
    assert path.read_bytes() == report.json_text().encode()


def test_amplitude_mu_flows_into_modes():
    report = run_pipeline(make_config(scenario=None, amplitude="mu"))
    (row,) = report.level_rows
    amps = [m["amplitude"] for m in row["reduced"]["right"]]
    mus = [m["mu"] for m in row["reduced"]["right"]]
    assert amps == [float(mu) for mu in mus]


def test_amplitude_table_missing_class_fails():
    with pytest.raises(ValueError, match="amplitude table has no entry for class 2,1"):
        make_config(scenario=None, amplitude={"table": {"1,1": 1.0}})
    # with the even-class convention only the even classes are compactified
    evens = {"table": {"2,1": 1.0, "4,1": 2.0, "6,1": 3.0}}
    report = run_pipeline(make_config(scenario=None, amplitude=evens, even_classes=True))
    assert report.all_diagnostics_passed()


def test_even_classes_filter():
    report = run_pipeline(make_config(scenario=None, even_classes=True))
    (row,) = report.level_rows
    assert [w["mu"] for w in row["weil_side"]] == [2, 4, 6]
    assert [m["mu"] for m in row["reduced"]["right"]] == [2]
    assert [m["mu"] for m in row["orthogonal"]["right"]] == [4, 6]
    assert report.all_diagnostics_passed()


def test_pipeline_errors_carry_stage(monkeypatch):
    # an empty reduced part is decided by the config
    with pytest.raises(ValueError, match="reduce"):
        make_config(scenario=None, reduce_rule="none")
    # a ValueError inside a stage is a contract violation named by its stage
    import germtower.pipeline as pipeline_module

    def broken(s):
        raise ValueError("shift broke")

    monkeypatch.setattr(pipeline_module, "shift", broken)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(make_config(scenario=None))
    assert exc.value.stage == "shift"
    assert str(exc.value).startswith("[shift]")


def test_germ_template_must_cover_but_shape_free():
    square = {"nvars": 1, "coeffs": [[[2], "1"]]}
    quadric = {"nvars": 2, "coeffs": [[[2, 0], "1"], [[0, 2], "1"]]}
    # a template mapping missing a class is a config error
    with pytest.raises(ValueError, match="germ_template has no entry for class 2,1"):
        make_config(scenario=None, tower=TowerConfig(2, 1, 2), germ_template={"1,1": square})
    # only the space class 2 hosts the fold germ; the reduced class 1 may
    # carry a germ in any number of variables
    fold = dict(scenario="fold", tower=TowerConfig(2, 1, 2))
    report = run_pipeline(make_config(**fold, germ_template={"1,1": quadric, "2,1": square}))
    assert report.all_diagnostics_passed()
    with pytest.raises(ValueError, match="germ_template: class 2,1 hosts the Fold germ"):
        make_config(**fold, germ_template={"1,1": square, "2,1": quadric})


@pytest.mark.parametrize(
    "field, key, message",
    [
        ("amplitude", "3,1", "amplitude: class 3,1 is not in the tower"),
        ("amplitude", "0,1", "amplitude: class 0,1 is not in the tower"),
        ("amplitude", "1,x", "amplitude: class keys look like 'mu,m', got '1,x'"),
        ("amplitude", "1,1,1", "amplitude: class keys look like 'mu,m', got '1,1,1'"),
        ("amplitude", "01,1", "amplitude: class keys look like 'mu,m', got '01,1'"),
        ("amplitude", " 1 , 1 ", "amplitude: class keys look like 'mu,m', got ' 1 , 1 '"),
        ("germ_template", "50,3", "germ_template: class 50,3 is not in the tower"),
        ("germ_template", "2,2", "germ_template: class 2,2 is not in the tower"),
        ("germ_template", "a,1", "germ_template: class keys look like 'mu,m', got 'a,1'"),
        ("germ_template", "1,01", "germ_template: class keys look like 'mu,m', got '1,01'"),
        ("germ_template", "2, 1", "germ_template: class keys look like 'mu,m', got '2, 1'"),
    ],
)
def test_class_keys_must_parse_and_lie_in_the_tower(field, key, message):
    square = {"nvars": 1, "coeffs": [[[2], "1"]]}
    tables = {
        "amplitude": {"1,1": 1.0, "2,1": 2.0},
        "germ_template": {"1,1": square, "2,1": square},
    }
    tables[field][key] = tables[field]["1,1"]
    with pytest.raises(ValueError) as exc:
        make_config(
            scenario="fold",
            tower=TowerConfig(2, 1, 2),
            amplitude={"table": tables["amplitude"]},
            germ_template=tables["germ_template"],
        )
    assert str(exc.value) == message


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
    return EllipticSemimodule(LEFT, (ClassIndex(1, 1), ClassIndex(2, 1)), (1.0, 0.5))


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
    for n, x0, x1 in ((100, 0.0, math.inf), (100, -math.inf, 1.0), (1, math.nan, 1.0)):
        with pytest.raises(ValueError):
            sample_rows(esm, n, x0, x1)
    # finite amplitudes whose sum leaves the float range: at x = 0 the real
    # part overflows; at x = 0.25 both parts stay finite but the modulus does not
    huge = EllipticSemimodule(LEFT, (ClassIndex(1, 1), ClassIndex(1, 2)), (1e308, 1e308))
    for x in (0.0, 0.25):
        with pytest.raises(ValueError, match=f"x={x}"):
            sample_rows(huge, 1, x, x)


def test_sample_rows_has_a_budget(monkeypatch):
    evaluated = []
    monkeypatch.setattr(EllipticSemimodule, "evaluate", lambda self, x: evaluated.append(x))
    with pytest.raises(ValueError, match=f"exceeds the budget of {MAX_SAMPLES} samples"):
        sample_rows(sample_esm(), MAX_SAMPLES + 1, 0.0, 1.0)
    assert evaluated == []  # rejected before any row is built


def test_samples_csv_shape():
    text = samples_csv(sample_esm(), 3, 0.0, 1.0)
    lines = text.splitlines()
    assert lines[0] == "x,re,im,modulus"
    assert len(lines) == 4
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == 4
