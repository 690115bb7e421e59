"""Write the benchmark's results record.

Runs every workload once per seed with tracing off, then twice with tracing
on (same seed), and writes one JSON file with the environment (Python
version, nproc, platform, commit) and, per workload and metric, the median,
the quartiles and the spread over the runs, the sample counts and the tail
percentiles used.  Besides the gated metrics, which are multiples of the
reference workload, it keeps the plain seconds (``absolute``).

    python3 perfbench/record.py --seeds 10 --out perfbench/results/baseline.json

Runs last ``run_seconds`` from BENCHMARK.json unless ``--seconds`` is given.
Workloads that BENCHMARK.json does not list are marked as such.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import run


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=run.ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def distribution(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def record_workload(workload: str, seeds: list[int], seconds: float, spec: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    outcomes, details = [], []
    for seed in seeds:
        outcome, detail = run.measure(workload, seed, seconds, trace=False)
        outcomes.append(outcome)
        details.append(detail)
        print(f"{workload} seed {seed}: {json.dumps(outcome)}", file=sys.stderr)
    metrics = {}
    for name in outcomes[0]["metrics"]:
        entry = distribution([o["metrics"][name]["value"] for o in outcomes])
        entry["unit"] = outcomes[0]["metrics"][name]["unit"]
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["spread_within_third_of_bound"] = entry["spread"] < bounds[name] / 3
        metrics[name] = entry
    absolute = {
        name: distribution([d[name] for d in details])
        for name in ("op_p50_s", "op_tail_s", "classes_per_s", "ref_s")
    }
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    traced = [run.measure(workload, seeds[0], seconds, trace=True) for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in outcome["metrics"].items() if v["unit"] in ("count", "bytes")}
        for outcome, _ in traced
    ]
    return {
        "in_benchmark_json": workload in [w["name"] for w in spec["workloads"]],
        "seeds": seeds,
        "ops_per_run": [d["ops"] for d in details],
        "tail_percentile_per_run": [d["tail_percentile"] for d in details],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": [p for d in details for p in d["problems"]][:20],
        "end_to_end": metrics,
        "absolute": absolute,
        "traced": {
            "seed": seeds[0],
            "runs": [
                {
                    "correct": outcome["correct"],
                    "attempted": outcome["attempted"],
                    "failed": outcome["failed"],
                    "traced_ops": detail["traced_ops"],
                    "count_window_ops": detail["count_window_ops"],
                    "metrics": {k: v["value"] for k, v in outcome["metrics"].items()},
                }
                for outcome, detail in traced
            ],
            "counts_identical": counts[0] == counts[1],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="plain runs per workload")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", nargs="*", default=list(gen.WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    record = {
        "environment": environment(),
        "seconds_per_run": seconds,
        "waits": "none: each op is one process with one thread, so no layer waits on another",
        "workloads": {
            workload: record_workload(workload, list(range(1, args.seeds + 1)), seconds, spec)
            for workload in args.workloads
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
