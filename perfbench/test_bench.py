#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny grids. Run from the repository root:

    python3 perfbench/test_bench.py

It checks that a tiny pass of every workload prints every metric of
BENCHMARK.json by name with its unit; that the traced pass's spans account
for its wall time, with the residual reported; that the traced outputs are
checked against the oracle (a wrong oracle fails the pass); and that a
directory holding only BENCHMARK.json and perfbench/ fails without printing
a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    if proc.returncode:
        raise AssertionError(proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Benchmark(unittest.TestCase):
    def assert_metrics(self, out, kind):
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in SPEC[kind]})
        for metric in SPEC[kind]:
            self.assertEqual(out["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_every_workload_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = result(bench("--workload", workload, "--seed", "7",
                                   "--seconds", "1", "--trace", "0", "--tiny"))
                self.assert_metrics(out, "end_to_end")
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(out["metrics"][metric["name"]]["value"], 0)

    def test_traced_spans_account_for_the_wall_time(self):
        out = result(bench("--workload", "serve", "--seed", "7",
                           "--seconds", "1", "--trace", "1", "--tiny"))
        self.assert_metrics(out, "per_layer")
        metrics = {name: m["value"] for name, m in out["metrics"].items()}
        for workload in WORKLOADS:
            wall = metrics[f"trace.{workload}.wall_s"]
            residual = metrics[f"trace.{workload}.residual_s"]
            self.assertGreater(wall, 0, workload)
            self.assertGreaterEqual(residual, 0, workload)
            self.assertLess(residual, 0.25 * wall, workload)

    def test_traced_pass_rejects_a_wrong_oracle(self):
        result(bench("--workload", "serve", "--seed", "7", "--seconds", "0", "--tiny"))
        target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
        os.makedirs(SCRATCH, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", dir=SCRATCH, suffix=".json") as wrong:
            wrong.write("{}")
            wrong.flush()
            cmd = [os.path.join(target, "release", "perfbench"), "trace", "--seed", "7", "--tiny"]
            for workload in WORKLOADS:
                cmd += [f"--expect-{workload}", wrong.name]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("differs from the oracle", proc.stderr)

    def test_a_checkout_without_the_program_fails_without_a_result(self):
        os.makedirs(SCRATCH, exist_ok=True)
        empty = tempfile.mkdtemp(dir=SCRATCH)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
            shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            proc = bench("--workload", "serve", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=empty)
        finally:
            shutil.rmtree(empty, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
