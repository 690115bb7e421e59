"""Every benchmark config keeps its report bytes or its rejection message.

The sweep runs the configs that ``perfbench/gen.py`` draws for ``cli-small``
seeds 1-25, ops 0-159, and for ``cascade-deep`` and ``umbilic-wide`` seeds
1-2, ops 0-15: 4,064 configs.  Each one either runs to a report, whose
``json_text()`` goes into one SHA-256, or is rejected at config time with a
``ValueError``, whose message goes into the same digest.  Nothing may fail
inside the run.  ``gen.py`` is executed from its text, never imported or
edited, as in ``tests/test_oracle.py``.

The digest was computed before the engine change that introduced this test,
so a refactor that keeps it keeps every byte the benchmark reads.  Only a
benchmark change that edits ``gen.py`` may re-pin ``SWEEP_SHA256`` and the
counts; an engine change that moves the digest has changed the reports.
"""

import hashlib
import types
from pathlib import Path

from germtower import config_from_json, run_pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SWEEP = (
    ("cli-small", range(1, 26), range(160)),
    ("cascade-deep", range(1, 3), range(16)),
    ("umbilic-wide", range(1, 3), range(16)),
)
SWEEP_SHA256 = "692a4aa1002639fef0c65b9d2f5daff6d399f028317a94027510917709495286"
REPORTS = 2499
REJECTED = 1565


def load_gen() -> types.ModuleType:
    path = PERFBENCH / "gen.py"
    module = types.ModuleType("perfbench_gen")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def sweep() -> tuple[str, int, int]:
    gen = load_gen()
    digest = hashlib.sha256()
    reports = rejected = 0
    for workload, seeds, ops in SWEEP:
        for seed in seeds:
            for op in ops:
                digest.update(f"{workload} {seed} {op}\n".encode())
                try:
                    config = config_from_json(gen.op_config(workload, seed, op))
                except ValueError as exc:
                    digest.update(f"rejected: {exc}\n".encode())
                    rejected += 1
                    continue
                digest.update(run_pipeline(config).json_text().encode())
                reports += 1
    return digest.hexdigest(), reports, rejected


def test_every_benchmark_config_keeps_its_bytes():
    assert sweep() == (SWEEP_SHA256, REPORTS, REJECTED)
