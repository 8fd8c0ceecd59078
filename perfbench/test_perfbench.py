#!/usr/bin/env python3
"""Self-tests of the benchmark definition and its program.

Run from the root of the repository:

    python3 perfbench/test_perfbench.py

The tests that execute perfbench_workloads build it first through run.py's
build step (a no-op when it is up to date).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
os.chdir(ROOT)  # run.py resolves the checkout from the working directory

import run  # noqa: E402  (the module under test sits beside this file)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_binary_with(*args):
    return subprocess.run([run.BINARY, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)


class DefinitionTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()
        self.metrics = self.spec["end_to_end"] + self.spec["per_layer"]

    def test_metric_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in self.metrics] + [w["name"] for w in self.spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_metric_counts_are_within_limits(self):
        self.assertLessEqual(len(self.spec["end_to_end"]), 16)
        self.assertLessEqual(len(self.spec["per_layer"]), 128)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)

    def test_every_metric_prints_with_unit_and_direction(self):
        for metric in self.metrics:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
            line = run.describe_metric(metric["name"], 1.5, metric["unit"], metric["better"])
            self.assertIn(metric["unit"], line)
            self.assertIn(f"{metric['better']} is better", line)
        for unit, better in run.SUPPLEMENTARY.values():
            self.assertRegex(unit, UNIT)
            self.assertIn(better, ("higher", "lower"))

    def test_end_to_end_bounds(self):
        names = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(names["setup_s"]["unit"], "s")
        self.assertEqual(names["setup_s"]["better"], "lower")
        for metric in self.spec["end_to_end"]:
            self.assertTrue(0.0 < metric["bound"] <= 0.25)
            self.assertLessEqual(metric["bound"], names["setup_s"]["bound"])

    def test_every_layer_prefix_is_a_src_module(self):
        for metric in self.spec["per_layer"]:
            if "." in metric["name"]:
                module = metric["name"].split(".", 1)[0]
                self.assertTrue(os.path.isdir(os.path.join(ROOT, "src", module)),
                                f"{metric['name']}: no src/{module}")

    def test_workloads_match_the_runner(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)

    def test_reference_covers_every_workload(self):
        with open(run.REFERENCE, "r", encoding="utf-8") as handle:
            reference = json.load(handle)
        self.assertEqual(sorted(reference), sorted(run.WORKLOADS))
        for anchors in reference.values():
            for entry in anchors.values():
                self.assertGreater(entry["rel_tol"], 0.0)


class ProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build_binary()

    def test_seeds_give_different_valid_inputs(self):
        for workload in run.WORKLOADS:
            first = run_binary_with("--workload", workload, "--seed", "1", "--describe")
            second = run_binary_with("--workload", workload, "--seed", "2", "--describe")
            again = run_binary_with("--workload", workload, "--seed", "1", "--describe")
            self.assertEqual(first.returncode, 0, first.stderr)
            self.assertEqual(second.returncode, 0, second.stderr)
            self.assertNotEqual(first.stdout, second.stdout, workload)
            self.assertEqual(first.stdout, again.stdout, workload)

    def test_traced_run_reports_every_layer_metric(self):
        result = run_binary_with("--workload", "cosim_grid", "--seed", "1", "--seconds", "0",
                        "--trace", "1", "--work-dir", os.path.join(run.BUILD_DIR, "selftest"))
        self.assertEqual(result.returncode, 0, result.stderr)
        report = json.loads(result.stdout)
        self.assertEqual(report["failures"], [])
        metrics = report["metrics"]
        for metric in load_spec()["per_layer"]:
            self.assertIn(metric["name"], metrics)
        self.assertGreaterEqual(metrics["unattributed_fraction"], 0.0)
        self.assertLessEqual(metrics["unattributed_fraction"], 1.0)
        self.assertGreaterEqual(metrics["pdn.solves"], 16)

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(run.BUILD_DIR, "selftest_bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cosim_grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    unittest.main()
