"""The generator is deterministic and stratifies the sizes that set op cost."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import gen  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in gen.WORKLOADS:
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                first = gen.write_configs(workload, 7, 12, Path(a))
                second = gen.write_configs(workload, 7, 12, Path(b))
                self.assertEqual(
                    [p.read_bytes() for p in first], [p.read_bytes() for p in second]
                )

    def test_other_seed_gives_other_configs(self):
        for workload in gen.WORKLOADS:
            ops = range(1, 9)
            self.assertNotEqual(
                [gen.op_config(workload, 1, i) for i in ops],
                [gen.op_config(workload, 2, i) for i in ops],
            )

    def test_each_block_covers_every_depth_slice(self):
        lo, hi = gen.WORKLOADS["cascade-deep"]["depth"]
        edges = [lo + (hi - lo + 1) * k // gen.BLOCK for k in range(gen.BLOCK + 1)]
        for seed in (1, 2, 3):
            for block in (0, 5):
                depths = sorted(
                    gen.op_config("cascade-deep", seed, block * gen.BLOCK + i)["tower"]["depth"]
                    for i in range(gen.BLOCK)
                )
                for k, depth in enumerate(depths):
                    self.assertTrue(edges[k] <= depth < edges[k + 1], (k, depth, edges))

    def test_golden_config_at_fixed_share(self):
        golden = gen.GOLDEN_CONFIG.read_text(encoding="utf-8")
        every = gen.WORKLOADS["cli-small"]["golden_every"]
        for i in range(3 * every):
            config = gen.op_config("cli-small", 5, i)
            self.assertEqual(gen.is_golden("cli-small", i), i % every == 0)
            if i % every == 0:
                self.assertEqual(config, json.loads(golden))


if __name__ == "__main__":
    unittest.main()
