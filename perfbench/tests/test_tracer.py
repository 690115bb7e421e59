"""Wrapping the program's functions changes no report byte; counts repeat."""

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import gen  # noqa: E402
import tracer  # noqa: E402
from germtower import cli, germs, pipeline, sheaves  # noqa: E402

CONFIGS = {
    "golden": None,
    "cascade": {
        "tower": {"quantum_modulus": 3, "offset": 2, "depth": 40},
        "scenario": "swallowtail",
        "reduce": "mu%2==1",
        "amplitude": "mu",
    },
    "umbilic": {
        "tower": {"quantum_modulus": 2, "depth": 6, "multiplicity": [3] * 6},
        "scenario": "hyperbolic-umbilic",
        "reduce": "mu<=H",
    },
    "rejected": {"tower": {"quantum_modulus": 1, "depth": 4}, "reduce": "none"},
}


def run_cli(name: str, tmp: Path) -> tuple[int, bytes | None]:
    config = CONFIGS[name]
    path = gen.GOLDEN_CONFIG
    if config is not None:
        path = tmp / f"{name}.json"
        path.write_text(gen.config_text(config), encoding="utf-8")
    out = tmp / f"{name}.report"
    if out.exists():
        out.unlink()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["correspond", "--config", str(path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


class TracerTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.tmp = Path(tmp.name)

    def test_wrapping_leaves_report_bytes_unchanged(self):
        plain = {name: run_cli(name, self.tmp) for name in CONFIGS}
        self.assertEqual(plain["golden"], (0, gen.GOLDEN_REPORT.read_bytes()))
        self.assertEqual(plain["rejected"], (3, None))
        for name in CONFIGS:
            with tracer.Tracer().installed() as t:
                self.assertEqual(run_cli(name, self.tmp), plain[name], name)
            self.assertTrue(t.spans, name)

    def test_uninstall_restores_every_attribute(self):
        before = (
            pipeline.run_pipeline,
            cli.run_pipeline,
            germs.Germ.__dict__["from_coeffs"],
            sheaves.Semisheaf.section_at,
        )
        with tracer.Tracer().installed():
            self.assertIsNot(cli.run_pipeline, before[1])
        after = (
            pipeline.run_pipeline,
            cli.run_pipeline,
            germs.Germ.__dict__["from_coeffs"],
            sheaves.Semisheaf.section_at,
        )
        self.assertEqual([a is b for a, b in zip(before, after)], [True] * 4)

    def test_counts_repeat_exactly(self):
        counts = []
        for _ in range(2):
            with tracer.Tracer().installed() as t:
                for name in CONFIGS:
                    run_cli(name, self.tmp)
            counts.append(t.finish_counts())
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["pipeline.rejected.levels"], 1)
        self.assertGreater(counts[0]["germs.built"], counts[0]["germs.distinct"])

    def test_spans_nest_under_run_pipeline(self):
        with tracer.Tracer().installed() as t:
            run_cli("cascade", self.tmp)
        inclusive, own = tracer.summarize(t.names, t.spans)
        for name in inclusive:
            self.assertLessEqual(own[name], inclusive[name] + 1e-12, name)
        self.assertGreater(inclusive["blowup.blow_up"], inclusive["sheaves.section_at"])
        self.assertLess(own["pipeline.run"], inclusive["pipeline.run"])

    def test_self_time_subtracts_direct_children(self):
        names = ["outer", "inner"]
        spans = [[0, 0, 100, -1], [1, 10, 30, 0], [1, 40, 50, 0], [0, 42, 48, 2]]
        inclusive, own = tracer.summarize(names, spans)
        self.assertAlmostEqual(inclusive["outer"], 106e-9)
        self.assertAlmostEqual(own["outer"], 76e-9)
        self.assertAlmostEqual(own["inner"], 24e-9)


if __name__ == "__main__":
    unittest.main()
