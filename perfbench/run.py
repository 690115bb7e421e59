"""germtower benchmark runner.

Runs a workload as a closed loop of ``germtower correspond`` processes, one
op in flight, for a fixed number of seconds, and checks every op's output.

    python3 perfbench/run.py --workload cascade-deep --seed 1 --seconds 60 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with tracing
off.  With ``--trace 1`` it runs each config twice, once plainly and once
under the outside-in tracer (``traced_cli.py``), and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md defines
every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import check
import gen
from tracer import summarize

ROOT = gen.ROOT
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

# Fresh interpreters that time ``import germtower.cli`` during a plain run;
# setup_s is their median.
SETUP_REPEATS = 11
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import germtower.cli; "
    "print(repr(time.perf_counter() - t))"
)
# ``reference.py`` is spawned like an op about every REF_INTERVAL_S seconds
# of a plain run.  On a shared host the speed drifts by 10-30% over tens of
# seconds and moves every wall time of a run together; op times are gated
# as multiples of the reference's median in the same run, so that the drift
# cancels while a slower program still shows.
REF_INTERVAL_S = 1.5
# Samples kept beyond the tail percentile.
TAIL_SAMPLES = 10
# The stages run_pipeline names in a PipelineError.
STAGES = ("tower", "sections", "shift", "tensor", "levels", "desingularize", "compactify")


class OpResult(NamedTuple):
    """One finished process: exit code, wall time, peak RSS and its output."""

    code: int
    wall: float
    rss_kb: int
    stdout: str
    stderr: str
    report: bytes | None


class Spawner:
    """Runs processes through ``spawner.py``, which times them spawn to exit."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], work: Path, report: Path | None = None) -> OpResult:
        out, err = work / "stdout", work / "stderr"
        if report is not None and report.exists():
            report.unlink()
        self.proc.stdin.write(json.dumps([argv, str(out), str(err)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        code, wall, rss_kb = json.loads(line)
        return OpResult(
            code,
            wall,
            rss_kb,
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"),
            report.read_bytes() if report is not None and report.exists() else None,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """One run of one workload: its work directory, configs and checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.golden = gen.GOLDEN_REPORT.read_bytes()
        self.attempted = 0
        self.problems: list[str] = []
        self.failed_ops = 0
        self.spawner = Spawner(dict(os.environ, PYTHONPATH=str(SRC)))

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.close()

    def config(self, i: int) -> tuple[dict, Path]:
        config = gen.op_config(self.workload, self.seed, i)
        path = self.work / f"config-{i}.json"
        path.write_text(gen.config_text(config), encoding="utf-8")
        return config, path

    def op(self, prefix: list[str], i: int, config: dict, path: Path, plain=None) -> OpResult:
        """Run and check one op; ``plain`` is the untraced op it must repeat."""
        report = self.work / "report.json"
        argv = prefix + ["correspond", "--config", str(path), "--out", str(report)]
        result = self.spawner.run(argv, self.work, report)
        golden = self.golden if gen.is_golden(self.workload, i) else None
        problems = check.check_op(
            config, result.code, result.stdout, result.stderr, result.report, golden
        )
        if plain is not None and (result.code, result.report) != (plain.code, plain.report):
            problems.append("traced op differs from the plain op")
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.problems.extend(f"op {i}: {p}" for p in problems)
        return result

    def import_time(self) -> float:
        """Time ``import germtower.cli`` inside a fresh interpreter."""
        result = self.spawner.run([sys.executable, "-c", IMPORT_SNIPPET], self.work)
        if result.code != 0:
            raise RuntimeError(f"import germtower.cli failed: {result.stderr.strip()}")
        return float(result.stdout)

    def reference_time(self) -> float:
        """Wall time of the reference workload, spawn to exit."""
        result = self.spawner.run([sys.executable, str(HERE / "reference.py")], self.work)
        if result.code != 0:
            raise RuntimeError(f"the reference workload failed: {result.stderr.strip()}")
        return result.wall

    def outcome(self, metrics: dict) -> dict:
        return {
            "correct": self.failed_ops == 0,
            "attempted": self.attempted,
            "failed": self.failed_ops,
            "metrics": metrics,
        }


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_SAMPLES samples beyond it, and its value.

    A run with too few samples for that reports its maximum as percentile 100.
    """
    ordered = sorted(samples)
    k = len(ordered) - TAIL_SAMPLES
    if k < 1:
        return 100.0, ordered[-1]
    return 100.0 * k / len(ordered), ordered[k - 1]


def plain_run(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    with Bench(workload, seed, work) as bench:
        bench.import_time()  # writes the bytecode caches
        prefix = [sys.executable, "-m", "germtower.cli"]
        setup, refs, walls, rss, classes = [], [], [], [], 0
        start = next_probe = next_ref = time.perf_counter()
        deadline = start + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            # Import and reference probes are spread over the run, so that
            # they see the same host conditions as the ops.
            if len(setup) < SETUP_REPEATS and time.perf_counter() >= next_probe:
                setup.append(bench.import_time())
                next_probe += seconds / SETUP_REPEATS
            if time.perf_counter() >= next_ref:
                refs.append(bench.reference_time())
                next_ref += REF_INTERVAL_S
            config, path = bench.config(i)
            result = bench.op(prefix, i, config, path)
            walls.append(result.wall)
            rss.append(result.rss_kb)
            if result.code == 0:
                classes += sum(config["tower"].get("multiplicity") or [1])
            i += 1
    percentile, tail_value = tail(walls)
    op_p50 = statistics.median(walls)
    ref = statistics.median(refs)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ref": (op_p50 / ref, "ref"),
        "op_tail_ref": (tail_value / ref, "ref"),
        "classes_per_ref": (classes * ref / sum(walls), "1/ref"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }
    detail = {
        "ops": len(walls),
        "op_p50_s": op_p50,
        "op_tail_s": tail_value,
        "tail_percentile": percentile,
        "classes_per_s": classes / sum(walls),
        "ref_s": ref,
        "ref_samples": len(refs),
        "setup_samples": len(setup),
        "fail_ratio": bench.failed_ops / bench.attempted,
        "op_quartiles_s": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3,
        "problems": bench.problems[:20],
    }
    return bench.outcome(_metric_json(metrics)), detail


def traced_run(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """Plain and traced op per config; counts come from the first pass."""
    with Bench(workload, seed, work) as bench:
        plain = [sys.executable, "-m", "germtower.cli"]
        spans_file = work / "spans.json"
        traced = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file)]
        per_pass = gen.WORKLOADS[workload]["trace_ops"]
        inclusive, own, counts = Counter(), Counter(), Counter()
        cli_times = Counter()
        wall_plain = wall_traced = 0.0
        first_pass_spans = []
        ops = 0
        deadline = time.perf_counter() + seconds
        while ops == 0 or time.perf_counter() < deadline:
            for i in range(per_pass):
                config, path = bench.config(i)
                plain_op = bench.op(plain, i, config, path)
                traced_op = bench.op(traced, i, config, path, plain=plain_op)
                text, finish = spans_file.read_text(encoding="utf-8").splitlines()
                payload = json.loads(text)
                incl, slf = summarize(payload["names"], payload["spans"])
                inclusive.update(incl)
                own.update(slf)
                cli_times["import"] += payload["import_s"]
                cli_times["main"] += payload["main_s"]
                cli_times["interp"] += (
                    traced_op.wall
                    - payload["import_s"]
                    - payload["main_s"]
                    - json.loads(finish)["finish_s"]
                )
                wall_plain += plain_op.wall
                wall_traced += traced_op.wall
                if ops < per_pass:
                    counts.update(payload["counts"])
                    first_pass_spans.append({"op": i, **payload})
                ops += 1
                if ops >= per_pass and time.perf_counter() >= deadline:
                    break
    spans_out = WORK / f"spans-{workload}-{seed}.jsonl"
    with open(spans_out, "w", encoding="utf-8") as fh:
        for entry in first_pass_spans:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")

    def mean(total: float) -> float:
        return total / ops

    run_s = inclusive["pipeline.run"]
    metrics = {
        "cli.import_s": (mean(cli_times["import"]), "s"),
        "cli.main_s": (mean(cli_times["main"]), "s"),
        "cli.interp_s": (mean(cli_times["interp"]), "s"),
        "tower.classes": (counts["tower.classes"], "count"),
        "tower.build_s": (mean(inclusive["tower.build"]), "s"),
        "bisemigroup.terms": (counts["bisemigroup.terms"], "count"),
        "bisemigroup.expand_s": (mean(inclusive["bisemigroup.expand"]), "s"),
        "germs.built": (counts["germs.built"], "count"),
        "germs.distinct": (counts["germs.distinct"], "count"),
        "germs.distinct_ratio": (
            counts["germs.distinct"] / max(counts["germs.built"], 1),
            "ratio",
        ),
        "germs.build_s": (mean(own["germs.build"]), "s"),
        "germs.classify_calls": (counts["germs.classify_calls"], "count"),
        "germs.classify_s": (mean(inclusive["germs.classify"]), "s"),
        "sheaves.built": (counts["sheaves.built"], "count"),
        "sheaves.validate_s": (mean(inclusive["sheaves.validate"]), "s"),
        "sheaves.section_at_calls": (counts["sheaves.section_at_calls"], "count"),
        "sheaves.section_at_s": (mean(inclusive["sheaves.section_at"]), "s"),
        "sheaves.attach_s": (mean(inclusive["sheaves.attach"]), "s"),
        "sheaves.shift_s": (mean(inclusive["sheaves.shift"]), "s"),
        "sheaves.split_project_s": (mean(inclusive["sheaves.split_project"]), "s"),
        "sheaves.inject_s": (mean(inclusive["sheaves.inject"]), "s"),
        "blowup.levels_s": (mean(inclusive["blowup.levels"]), "s"),
        "blowup.levels_self_s": (mean(own["blowup.levels"]), "s"),
        "blowup.deform_s": (mean(inclusive["blowup.deform"]), "s"),
        "blowup.blow_up_s": (mean(inclusive["blowup.blow_up"]), "s"),
        "blowup.lift_s": (mean(inclusive["blowup.lift"]), "s"),
        "blowup.desingularize_s": (mean(inclusive["blowup.desingularize"]), "s"),
        "cuspidal.compactify_s": (mean(inclusive["cuspidal.compactify"]), "s"),
        "cuspidal.modes": (counts["cuspidal.modes"], "count"),
        "cuspidal.bistring_s": (mean(inclusive["cuspidal.bistring"]), "s"),
        "pipeline.config_s": (mean(inclusive["pipeline.config"]), "s"),
        "pipeline.run_s": (mean(run_s), "s"),
        "pipeline.self_s": (mean(own["pipeline.run"]), "s"),
        "pipeline.span_coverage": (1.0 - own["pipeline.run"] / run_s if run_s else 0.0, "ratio"),
        "pipeline.serialize_s": (mean(inclusive["pipeline.serialize"]), "s"),
        "pipeline.report_bytes": (counts["pipeline.report_bytes"], "bytes"),
        "pipeline.rejected": (counts["pipeline.rejected"], "count"),
        **{
            f"pipeline.rejected.{stage}": (counts[f"pipeline.rejected.{stage}"], "count")
            for stage in STAGES
        },
        "trace.overhead_ratio": (wall_traced / wall_plain, "ratio"),
    }
    detail = {
        "traced_ops": ops,
        "count_window_ops": per_pass,
        "spans_file": str(spans_out.relative_to(ROOT)),
        "problems": bench.problems[:20],
    }
    return bench.outcome(_metric_json(metrics)), detail


def _metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One plain or traced run in a scratch directory under ``.perfbench/``."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    try:
        return (traced_run if trace else plain_run)(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="germtower benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [SRC / "germtower" / "cli.py", gen.GOLDEN_CONFIG, gen.GOLDEN_REPORT]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing program files: {', '.join(missing)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    outcome, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in detail.pop("problems"):
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
