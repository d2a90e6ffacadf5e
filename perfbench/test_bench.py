#!/usr/bin/env python3
"""Tests of the benchmark itself, at reduced length.

Run from the repository root (builds the harness on first use):

    python3 perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DENSE_KEY = "gcc/exclusive+chooser+sliced-A"


def bench(*args, cwd=ROOT):
    """Run run.py briefly; returns (result line, stderr)."""
    out = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1]), out.stderr


class MetricsEmitted(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                res, _ = bench("--workload", w["name"], "--trace",
                               str(trace), "--len", "4000")
                with self.subTest(workload=w["name"], trace=trace):
                    self.assertTrue(res["correct"])
                    self.assertGreater(res["attempted"], 0)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in res["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))


class CorrectnessCheck(unittest.TestCase):
    def test_one_perturbed_counter_fails_its_repeat(self):
        key = DENSE_KEY + "#3"
        res, err = bench("--workload", "dense_cell", "--len", "4000",
                         "--perturb", key)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertIn(key + " repeat 2", err)
        self.assertIn("first repeat", err)

    def test_default_seed_matches_the_pins(self):
        for w in SPEC["workloads"]:
            res, err = bench("--workload", w["name"], "--seed", "1")
            with self.subTest(workload=w["name"]):
                self.assertTrue(res["correct"], err)

    def test_perturbed_counter_misses_its_pin(self):
        key = DENSE_KEY + "#0"
        res, err = bench("--workload", "dense_cell", "--seed", "1",
                         "--perturb", key)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertIn(key + " repeat 2", err)
        self.assertIn("pinned", err)


class NeedsTheSources(unittest.TestCase):
    def test_fails_without_printing_outside_a_checkout(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fig_grid", "--seed", "1", "--seconds", "1"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
