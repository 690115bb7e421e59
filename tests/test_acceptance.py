"""Acceptance gate: the eleven release criteria, one test each.

Every test prints (and registers for the terminal summary) a single
``ACCEPTANCE n <name>: PASS|FAIL`` line.  Tolerances and draw counts are
stated inline; random draws are seeded so the gate is reproducible.
"""

import functools
import json
import random
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from germtower import (
    CATALOGUE,
    Germ,
    Semisheaf,
    TowerConfig,
    annihilate_biquantum,
    attach_sections,
    build_tower,
    classify_germ,
    corank,
    create_biquantum,
    desingularize,
    expand_sum_product,
    format_germ,
    lgc,
    lggc_st,
    normal_form,
    run_pipeline,
    tensor,
    versal_unfold,
)
from germtower.bisemigroup import FREE, ST
from germtower.cli import EXIT_OK, main
from germtower.cuspidal import Mode, bistring_modulus, compactify
from germtower.germs import (
    CUSP,
    ELLIPTIC_UMBILIC,
    FOLD,
    HYPERBOLIC_UMBILIC,
    MORSE,
    REGULAR,
    SWALLOWTAIL,
)
from germtower.pipeline import PipelineConfig
from germtower.sheaves import TIME
from germtower.tower import Carrier, ClassIndex, LEFT, RIGHT

from conftest import record_acceptance

DATA_DIR = Path(__file__).parent / "data"

SCENARIOS = (None, FOLD, CUSP, SWALLOWTAIL, ELLIPTIC_UMBILIC, HYPERBOLIC_UMBILIC)


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                record_acceptance(number, name, False)
                print(f"ACCEPTANCE {number:2d} {name}: FAIL")
                raise
            record_acceptance(number, name, True)
            print(f"ACCEPTANCE {number:2d} {name}: PASS")

        return run

    return wrap


def scenario_config(scenario, depth=6):
    return PipelineConfig(tower=TowerConfig(2, 1, depth), scenario=scenario)


# ---------------------------------------------------------------------------


@criterion(1, "catalogue classification")
def test_criterion_01_catalogue_classification():
    expected = {
        FOLD: (1, 1),
        CUSP: (1, 2),
        SWALLOWTAIL: (1, 3),
        ELLIPTIC_UMBILIC: (2, 3),
        HYPERBOLIC_UMBILIC: (2, 3),
    }
    for name in expected:  # warm-up pass, untimed
        classify_germ(normal_form(name))
    for name, (cr, cd) in expected.items():
        germ = normal_form(name)
        best = min(
            _timed(classify_germ, germ)[0] for _ in range(3)
        )
        cls = classify_germ(germ)
        assert (cls.name, cls.corank, cls.codim) == (name, cr, cd)
        assert best < 1e-3, f"{name} classification took {best * 1e3:.3f} ms"


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


@criterion(2, "unfolding fidelity")
def test_criterion_02_unfolding_fidelity():
    expected = {
        FOLD: [("a1", "x")],
        CUSP: [("a1", "x"), ("a2", "x^2")],
        SWALLOWTAIL: [("a1", "x"), ("a2", "x^2"), ("a3", "x^3")],
        ELLIPTIC_UMBILIC: [("b1", "x^2"), ("b1", "y^2"), ("b2", "-y")],
        HYPERBOLIC_UMBILIC: [("b2", "-y"), ("b3", "-x"), ("b4", "x*y")],
    }
    for name, slots in expected.items():
        unfolding = versal_unfold(name)
        assert unfolding.base == normal_form(name)
        assert [(n, format_germ(m)) for n, m in unfolding.parameters] == slots
        assert len(unfolding.parameters) == CATALOGUE[name].codim == unfolding.codim


def _numeric_corank(g, step=1e-4, tol=1e-6):
    n = g.nvars
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            def at(si, sj):
                p = [0.0] * n
                p[i] += si * step
                p[j] += sj * step
                return g.evaluate(p)

            h[i, j] = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * step * step)
    rank = int(np.sum(np.linalg.svd(h, compute_uv=False) > tol))
    return n - rank


@criterion(3, "hessian corank oracle")
def test_criterion_03_hessian_oracle():
    rng = random.Random(20260814)
    probes = [normal_form(name) for name in CATALOGUE]
    while len(probes) < 105:
        nvars = rng.choice((1, 2))
        coeffs = {}
        if nvars == 1:
            coeffs[(2,)] = rng.choice([c for c in range(-5, 6) if c])
            coeffs[(rng.randint(3, 5),)] = rng.randint(-5, 5)
        else:
            # draw a nondegenerate quadratic, then cubic noise
            while True:
                a, b, c = (rng.randint(-5, 5) for _ in range(3))
                if 4 * a * c - b * b != 0:
                    break
            coeffs.update({(2, 0): a, (1, 1): b, (0, 2): c})
            coeffs[(3, 0)] = rng.randint(-5, 5)
            coeffs[(1, 2)] = rng.randint(-5, 5)
        germ = Germ.from_coeffs(nvars, coeffs)
        if classify_germ(germ).name != MORSE:
            continue
        probes.append(germ)
    start = time.perf_counter()
    for germ in probes:
        assert corank(germ) == _numeric_corank(germ), format_germ(germ)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.3f} s"


@criterion(4, "level table sweep")
def test_criterion_04_level_table():
    expected_counts = (1, 2, 2, 3, 2, 2)
    for scenario, count in zip(SCENARIOS, expected_counts):
        report = run_pipeline(scenario_config(scenario))
        assert len(report.level_rows) == count, scenario
    swallowtail = run_pipeline(scenario_config(SWALLOWTAIL))
    assert any(
        "resingularization" in line and "x^3" in line and "Fold" in line
        for line in swallowtail.cascade
    )


def _random_tower(rng):
    modulus = rng.randint(1, 7)
    depth = rng.randint(1, 12)
    offset = rng.randint(0, modulus - 1)
    mult = tuple(rng.randint(1, 4) for _ in range(depth))
    return build_tower(TowerConfig(modulus, offset, depth, mult))


def _square_pair(tower):
    template = lambda idx: Germ.monomial(1, (2,))
    return tensor(
        attach_sections(tower.class_indices(), RIGHT, ST, TIME, template),
        attach_sections(tower.class_indices(), LEFT, ST, TIME, template),
    )


@criterion(5, "one-level correspondence bijection")
def test_criterion_05_lgc_bijection():
    rng = random.Random(51)
    start = time.perf_counter()
    for _ in range(20):
        b = _square_pair(_random_tower(rng))
        record = lgc(b)
        assert record.bijection_holds()
        assert len(record.weil_side) == record.mode_pair_count()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"bijection sweep took {elapsed:.3f} s"


@criterion(6, "split/compactify commutation")
def test_criterion_06_commutative_diagram():
    rng = random.Random(62)
    for _ in range(20):
        tower = _random_tower(rng)
        b = _square_pair(tower)
        mus = sorted({idx.mu for idx in b.right.carrier})
        cut = rng.choice(mus)
        predicate = lambda idx, cut=cut: idx.mu <= cut
        # route 1: split, then compactify each part
        record = lggc_st(b, reduce=predicate)
        split_first = sorted(record.reduced[0].carrier)
        orth_first = (
            sorted(record.orthogonal[0].carrier)
            if record.orthogonal is not None
            else []
        )
        # route 2: compactify whole, then split the mode list
        whole = compactify(b.right)
        kept = sorted(i for i in whole.carrier if predicate(i))
        rest = sorted(i for i in whole.carrier if not predicate(i))
        assert split_first == kept
        assert orth_first == rest


@criterion(7, "bistring modulus constancy")
def test_criterion_07_oscillator_constancy():
    rng = random.Random(73)
    for _ in range(50):
        mu = rng.randint(1, 30)
        right = Mode(mu, rng.randint(1, 4), rng.uniform(0.0, 10.0), -1)
        left = Mode(mu, rng.randint(1, 4), rng.uniform(0.0, 10.0), 1)
        xs = [rng.uniform(-5.0, 5.0) for _ in range(100)]
        values = bistring_modulus(right, left, xs)
        assert statistics.pvariance(values) < 1e-12


def _single_bisection(rng):
    modulus = rng.randint(1, 6)
    depth = rng.randint(2, 8)
    offset = rng.randint(0, modulus - 1)
    tower = build_tower(TowerConfig(modulus, offset, depth))
    at = ClassIndex(rng.randint(1, depth - 1), 1)

    def one(side):
        return Semisheaf(side, ST, TIME, Carrier((at,), tower), (Germ.monomial(1, (2,)),))

    return tensor(one(RIGHT), one(LEFT)), at


@criterion(8, "biquantum round trip")
def test_criterion_08_biquantum_round_trip():
    rng = random.Random(84)
    for _ in range(50):
        b, at = _single_bisection(rng)
        up = ClassIndex(at.mu + 1, at.m)
        created = create_biquantum(b, at)
        assert created.right.carrier == (up,)
        n = b.right.tower.config.quantum_modulus
        for side in (created.right, created.left):
            # each string's completion moved up exactly one quantum
            assert side.tower.real_degree(up.mu) - b.right.tower.real_degree(at.mu) == n
        assert annihilate_biquantum(created, up) == b


@criterion(9, "expansion term counts")
def test_criterion_09_expansion_counts():
    two = expand_sum_product(["ST", "MG"], ["ST", "MG"])
    assert len(two) == 4
    assert sum(1 for t in two if t.kind == FREE) == 2
    three_tags = ["ST", "MG", "M"]
    three = expand_sum_product(three_tags, three_tags)
    assert len(three) == 9
    assert sum(1 for t in three if t.kind == FREE) == 3
    assert sum(1 for t in three if t.kind != FREE) == 6


@criterion(10, "desingularization")
def test_criterion_10_desingularization():
    for scenario in SCENARIOS:
        for level in run_pipeline(scenario_config(scenario)).levels:
            parts = [level.reduced.right, level.reduced.left]
            if level.orthogonal is not None:
                parts.extend([level.orthogonal.right, level.orthogonal.left])
            for part in parts:
                flat = desingularize(part)
                assert desingularize(flat) == flat
                for sec in flat.sections:
                    assert classify_germ(sec.germ).name in (REGULAR, MORSE)


@criterion(11, "report determinism")
def test_criterion_11_determinism():
    config_path = DATA_DIR / "golden_config.json"
    golden_path = DATA_DIR / "golden_report.json"
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "first.json"
        second = Path(tmp) / "second.json"
        for out in (first, second):
            code = main(["correspond", "--config", str(config_path), "--out", str(out)])
            assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == golden_path.read_bytes()
        json.loads(first.read_text())
