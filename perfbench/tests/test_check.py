"""The checker flags wrong reports and failed ops, from the config alone."""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
from germtower.pipeline import PipelineError, config_from_json, run_pipeline  # noqa: E402

GOLDEN_CONFIG = json.loads(gen.GOLDEN_CONFIG.read_text(encoding="utf-8"))
GOLDEN = gen.GOLDEN_REPORT.read_bytes()
OK_STDOUT = "rule 3; levels: ST, MG, M\ndiagnostics: 4/4 passed\n"


class CheckOpTest(unittest.TestCase):
    def test_golden_report_passes(self):
        self.assertEqual(check.check_op(GOLDEN_CONFIG, 0, OK_STDOUT, "", GOLDEN, GOLDEN), [])

    def test_one_changed_byte_is_flagged(self):
        for pos in (0, len(GOLDEN) // 2, len(GOLDEN) - 2):
            changed = bytearray(GOLDEN)
            changed[pos] = ord("7") if changed[pos] != ord("7") else ord("8")
            self.assertTrue(
                check.check_op(GOLDEN_CONFIG, 0, OK_STDOUT, "", bytes(changed), GOLDEN)
            )

    def test_structural_checks_catch_a_changed_degree(self):
        report = json.loads(GOLDEN)
        report["levels"][0]["weil_side"][0]["degree"] += 1
        text = json.dumps(report).encode()
        self.assertTrue(check.check_op(GOLDEN_CONFIG, 0, OK_STDOUT, "", text))

    def test_traceback_exit_1_is_flagged(self):
        stderr = 'Traceback (most recent call last):\n  File "x"\nTypeError: boom\n'
        self.assertTrue(check.check_op(GOLDEN_CONFIG, 1, "", stderr, None))

    def test_rejection_must_be_one_line_exit_2_or_3(self):
        config = dict(GOLDEN_CONFIG, reduce="none")
        line = "pipeline error: [levels] the reduce rule left the reduced part empty\n"
        self.assertEqual(check.check_op(config, 3, "", line, None), [])
        self.assertEqual(check.check_op(config, 2, "", line, None), [])
        self.assertTrue(check.check_op(config, 1, "", line, None))
        self.assertTrue(check.check_op(config, 3, "", line + line, None))
        self.assertTrue(check.check_op(config, 0, OK_STDOUT, "", GOLDEN))

    def test_valid_config_must_not_be_rejected(self):
        line = "pipeline error: [levels] something\n"
        self.assertTrue(check.check_op(GOLDEN_CONFIG, 3, "", line, None))

    def test_expected_levels_match_the_pipeline(self):
        # The predictions are independent of the engine; compare them with
        # what the engine does on a sample of seeded small configs.
        outcomes = set()
        for i in range(1, 150):
            config = gen.op_config("cli-small", 11, i)
            levels = check.expected_levels(config)
            try:
                report = run_pipeline(config_from_json(config))
            except PipelineError:
                outcomes.add("rejected")
                self.assertIsNone(levels, config)
                continue
            outcomes.add("ran")
            self.assertIsNotNone(levels, config)
            parsed = json.loads(report.json_text())
            self.assertEqual(check.check_report(config, parsed, levels), [], config)
        self.assertEqual(outcomes, {"ran", "rejected"})


class CliRoundTripTest(unittest.TestCase):
    def test_cli_output_on_golden_config_passes(self):
        from germtower import cli

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "r.json"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(
                    ["correspond", "--config", str(gen.GOLDEN_CONFIG), "--out", str(out)]
                )
            problems = check.check_op(
                GOLDEN_CONFIG, code, stdout.getvalue(), "", out.read_bytes(), GOLDEN
            )
        self.assertEqual(problems, [])


if __name__ == "__main__":
    unittest.main()
