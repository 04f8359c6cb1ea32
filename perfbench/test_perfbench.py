#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Checks that the one command prints every metric BENCHMARK.json names, with
its unit, on every workload and in both modes; that outputs match the
original-mode reference (no failed packets); that no printed number can come
from the cost model; that the over-capacity NAT self-test surfaces its
failures; and that the benchmark fails cleanly without the sources.
"""

import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location("perfbench_run",
                                              os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def bench(workload, trace, seconds=1, cwd=run.ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, env=env, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=900)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_printed_with_its_unit(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)  # error_frac == 0
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)

    def test_no_number_from_the_cost_model(self):
        forbidden = re.compile(
            r"rate_mpps|aggregate_rate_mpps|costs\.hpp|PlatformCosts|"
            r"latency_cycles|work_cycles|platform_cycles|latency_us_")
        cpp = os.path.join(HERE, "cpp")
        for name in sorted(os.listdir(cpp)):
            with open(os.path.join(cpp, name)) as f:
                code = re.sub(r"//.*", "", f.read())
            with self.subTest(file=name):
                self.assertIsNone(forbidden.search(code))

    def test_nat_pool_exhaustion_shows_in_error_frac(self):
        # Known defect: MazuNAT::allocate_port throws "port pool exhausted"
        # past 50,000 live outbound flows. The benchmark must count the
        # run's packets as failed instead of crashing.
        proc = subprocess.run(
            [run.binary(), "nat-overflow", "--seed", "3"],
            text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertIn("port pool exhausted", proc.stderr)
        self.assertGreater(result["error_frac"], 0.0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_fails_without_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = bench("hot-fastpath", 0, cwd=bare, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
