"""Self-tests of the benchmark harness.

Run from the root of a sadnet checkout (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith(
        '{"correct"') else None
    return proc, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class MetricsPrinted(unittest.TestCase):
    def check(self, result, expected):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics_with_units(self):
        proc, result = bench("--workload", "train-smoke", "--seed", "7",
                             "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.check(result, {m["name"]: m["unit"]
                            for m in spec()["end_to_end"]})
        records = os.path.join(HERE, "out", "train-smoke-s7-t0.records.jsonl")
        with open(records, encoding="utf-8") as fh:
            end = [json.loads(l) for l in fh if '"type": "end"' in l]
        self.assertEqual(end[-1]["wrapped"], [])

    def test_per_layer_metrics_with_units_and_mac_check(self):
        proc, result = bench("--workload", "train-smoke", "--seed", "7",
                             "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.check(result, {m["name"]: m["unit"]
                            for m in spec()["per_layer"]})
        info = json.loads(proc.stdout.splitlines()[0])["info"]
        self.assertTrue(info["mac_check"]["ok"], info["mac_check"])
        self.assertTrue(os.path.exists(os.path.join(ROOT,
                                                    info["spans_file"])))


class Unwrapped(unittest.TestCase):
    def test_uninstall_restores_every_function(self):
        import sadnet  # noqa: F401
        import sadnet.checkpoint  # noqa: F401
        from tracer import Tracer, wrapped_objects
        names = ("tensor", "deform", "model", "optim", "data", "checkpoint",
                 "metrics", "training")
        modules = {n: sys.modules[f"sadnet.{n}"] for n in names}
        owners = list(modules.values()) + [modules["model"].SADNet,
                                           modules["tensor"].Tensor]
        before = [dict(vars(o)) for o in owners]
        self.assertEqual(wrapped_objects(modules), [])
        tracer = Tracer()
        tracer.install(modules)
        self.assertIn("sadnet.tensor.conv2d", wrapped_objects(modules))
        self.assertIn("sadnet.model.modulated_deform_conv2d",
                      wrapped_objects(modules))
        tracer.uninstall()
        self.assertEqual(wrapped_objects(modules), [])
        for owner, snapshot in zip(owners, before):
            for attr, value in snapshot.items():
                self.assertIs(vars(owner)[attr], value, attr)


class InducedFailure(unittest.TestCase):
    def test_memory_error_is_counted_not_raised(self):
        # 1200 MiB holds the inputs but not one stock training step
        proc, result = bench("--workload", "train-stock", "--seed", "7",
                             "--seconds", "1", "--trace", "0",
                             "--cap-mb", "1200")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIsNotNone(result)
        from workloads import WORKLOADS
        self.assertGreaterEqual(result["failed"],
                                WORKLOADS["train-stock"]["ops_per_session"])
        self.assertLessEqual(result["failed"], result["attempted"])
        info = json.loads(proc.stdout.splitlines()[0])["info"]
        self.assertGreater(info["fail_ratio"], 0)
        self.assertNotIn("Traceback", proc.stderr)


class Helpers(unittest.TestCase):
    def test_tail_percentile(self):
        from run import tail_percentile
        self.assertIsNone(tail_percentile(list(range(10))))
        self.assertEqual(tail_percentile(list(range(11))), (100 / 11, 0))
        pct, value = tail_percentile(list(range(100)))
        self.assertEqual((pct, value), (90.0, 89))

    def test_refuses_without_the_program(self):
        bare = os.path.join(HERE, "out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc, result = bench("--workload", "train-smoke", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
