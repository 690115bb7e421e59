"""Seeded config generator for the germtower benchmark.

Every op of a workload gets one pipeline config, made from the workload
name, the seed and the op's position alone, so the same seed always gives
the same stream.  Depth, which sets most of an op's cost, is drawn
stratified: each block of ``BLOCK`` ops takes one depth from every
``1/BLOCK`` slice of the range, in a seeded order.  A run of a few blocks
therefore sees the same mix of sizes whatever the seed, which keeps the
run-to-run spread of the medians small.

Usage::

    python3 perfbench/gen.py --workload cascade-deep --seed 1 --count 20 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CONFIG = ROOT / "tests" / "data" / "golden_config.json"
GOLDEN_REPORT = ROOT / "tests" / "data" / "golden_report.json"

BLOCK = 8

# Generator parameters per workload; README.md says why each was chosen.
WORKLOADS = {
    "cascade-deep": {
        "scenarios": ["swallowtail"],
        "depth": [600, 900],
        "multiplicity": [1, 1],
        "modulus": [1, 4],
        "reduce": "half",
        "amplitude": ["unit", "mu"],
        "trace_ops": 6,
    },
    "umbilic-wide": {
        "scenarios": ["elliptic-umbilic", "hyperbolic-umbilic"],
        "depth": [40, 60],
        "multiplicity": [12, 20],
        "modulus": [1, 4],
        "reduce": "half",
        "amplitude": ["unit", "mu"],
        "trace_ops": 6,
    },
    "cli-small": {
        "scenarios": [
            "none",
            "fold",
            "cusp",
            "swallowtail",
            "elliptic-umbilic",
            "hyperbolic-umbilic",
        ],
        "depth": [3, 12],
        "multiplicity": [1, 3],
        "modulus": [1, 4],
        "reduce": "grammar",
        "amplitude": ["unit", "mu"],
        "covering_depths_share": 0.25,
        "even_classes_share": 0.2,
        "golden_every": 8,
        "trace_ops": 24,
    },
}


def _rng(workload: str, seed: int, tag: str) -> random.Random:
    # String seeds are hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED or on the interpreter build.
    return random.Random(f"{workload}/{seed}/{tag}")


def _stratified(workload: str, seed: int, i: int, lo: int, hi: int) -> int:
    block, pos = divmod(i, BLOCK)
    rng = _rng(workload, seed, f"block{block}")
    order = list(range(BLOCK))
    rng.shuffle(order)
    edges = [lo + (hi - lo + 1) * k // BLOCK for k in range(BLOCK + 1)]
    picks = [rng.randrange(edges[k], edges[k + 1]) for k in range(BLOCK)]
    return picks[order[pos]]


def _half_rule(rng: random.Random, depth: int) -> str:
    # Rules that keep both split parts near half the tower, so no op is
    # rejected and every op does a comparable share of cascade work.
    k = round(depth * rng.uniform(0.45, 0.55))
    return rng.choice(
        ["mu<=H", f"mu<={k}", f"mu<{k}", f"mu>{k}", f"mu>={k}", "mu%2==0", "mu%2==1"]
    )


def _grammar_rule(rng: random.Random, depth: int) -> str:
    form = rng.choice(["all", "none", "parity", "H", "cmp", "cmp", "cmp"])
    if form == "all" or form == "none":
        return form
    if form == "parity":
        return f"mu%2=={rng.randint(0, 1)}"
    if form == "H":
        return "mu<=H"
    op = rng.choice(["<=", "<", ">", ">=", "=="])
    return f"mu{op}{rng.randint(1, depth)}"


def is_golden(workload: str, i: int) -> bool:
    every = WORKLOADS[workload].get("golden_every")
    return every is not None and i % every == 0


def op_config(workload: str, seed: int, i: int) -> dict:
    """The config of op ``i`` of ``workload`` under ``seed``."""
    params = WORKLOADS[workload]
    if is_golden(workload, i):
        return json.loads(GOLDEN_CONFIG.read_text(encoding="utf-8"))
    rng = _rng(workload, seed, f"op{i}")
    depth = _stratified(workload, seed, i, *params["depth"])
    modulus = rng.randint(*params["modulus"])
    mult_lo, mult_hi = params["multiplicity"]
    tower = {
        "quantum_modulus": modulus,
        "offset": rng.randrange(modulus),
        "depth": depth,
        "multiplicity": [rng.randint(mult_lo, mult_hi) for _ in range(depth)],
    }
    config = {
        "tower": tower,
        "scenario": rng.choice(params["scenarios"]),
        "reduce": (_half_rule if params["reduce"] == "half" else _grammar_rule)(
            rng, depth
        ),
        "orth_dims": rng.choice([2, 3]),
        "amplitude": rng.choice(params["amplitude"]),
    }
    if rng.random() < params.get("covering_depths_share", 0.0):
        config["covering_depths"] = [rng.randint(1, depth), rng.randint(1, depth)]
    if rng.random() < params.get("even_classes_share", 0.0):
        config["even_classes"] = True
    return config


def config_text(config: dict) -> str:
    return json.dumps(config, sort_keys=True, indent=1) + "\n"


def write_configs(workload: str, seed: int, count: int, out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        path = out / f"{workload}-{seed}-{i:05d}.json"
        path.write_text(config_text(op_config(workload, seed, i)), encoding="utf-8")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for path in write_configs(args.workload, args.seed, args.count, args.out):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
