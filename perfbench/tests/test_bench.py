"""Tests of the benchmark definition and driver.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of the source tree. DefinitionTest is instant;
DriverTest builds perfbench (see perfbench/run.py) and runs every workload's
traced run twice, which takes a few minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


BENCH = load(os.path.join(REPO, "BENCHMARK.json"))
LAYOUT = load(os.path.join(BENCH_DIR, "workloads.json"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, check=False)
    return proc


class DefinitionTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})

    def test_names_units_and_counts(self):
        self.assertLessEqual(len(BENCH["end_to_end"]), 16)
        self.assertLessEqual(len(BENCH["per_layer"]), 128)
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        names = ([w["name"] for w in BENCH["workloads"]] +
                 [m["name"] for m in BENCH["end_to_end"]] +
                 [m["name"] for m in BENCH["per_layer"]])
        for name in names:
            self.assertRegex(name, NAME)
        metric_names = names[len(BENCH["workloads"]):]
        self.assertEqual(len(metric_names), len(set(metric_names)))
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_end_to_end_bounds(self):
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = {m["name"]: m for m in BENCH["end_to_end"]}["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def test_layout_matches_benchmark(self):
        per_layer = {m["name"]: m for m in BENCH["per_layer"]}
        self.assertEqual(set(LAYOUT["per_layer"]), set(per_layer))
        self.assertEqual(set(LAYOUT["workloads"]), set(WORKLOADS))
        self.assertEqual(set(LAYOUT["end_to_end"]),
                         {m["name"] for m in BENCH["end_to_end"]})
        for name, spec in LAYOUT["per_layer"].items():
            self.assertEqual(spec["unit"], per_layer[name]["unit"], name)
            self.assertEqual(spec["better"], per_layer[name]["better"], name)
            self.assertTrue(spec["measured_on"], name)
            self.assertLessEqual(set(spec["measured_on"]), set(WORKLOADS), name)
            for move in spec["should_move"]:
                self.assertLessEqual(set(move["workloads"]), set(WORKLOADS), name)
        for definition in LAYOUT["end_to_end"].values():
            self.assertEqual(set(definition), set(WORKLOADS))

    def test_bypassed_layers_are_not_measured(self):
        for workload, spec in LAYOUT["workloads"].items():
            for name, metric in LAYOUT["per_layer"].items():
                if metric["layer"] in spec["bypasses"]:
                    self.assertNotIn(workload, metric["measured_on"],
                                     f"{name} on {workload}")


class DriverTest(unittest.TestCase):
    def test_counts_repeat_for_a_seed(self):
        """Counts (unit count or bytes) are identical across two traced runs."""
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                results = []
                for _ in range(2):
                    proc = run_bench(workload, seed=5, trace=1)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    results.append(json.loads(proc.stdout.strip().split("\n")[-1]))
                counts = [n for n, m in results[0]["metrics"].items()
                          if m["unit"] in ("count", "bytes")]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(results[0]["metrics"][name]["value"],
                                     results[1]["metrics"][name]["value"], name)
                for name in ("fleet.events", "sched.trimmed_shards",
                             "tensor.flop_per_batch", "coord.ckpt_bytes_fleet",
                             "coord.ckpt_bytes_train"):
                    self.assertIn(name, counts)

    def test_untraced_result_line(self):
        proc = run_bench("fleet-1m", seed=7, trace=0)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().split("\n")
        self.assertTrue(lines[0].startswith("host: "))
        host = json.loads(lines[0][len("host: "):])
        self.assertTrue({"nproc", "git_sha", "source_digest"} <= set(host))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in BENCH["end_to_end"]})
        for metric in result["metrics"].values():
            self.assertNotEqual(metric["value"], 0)

    def test_fails_without_sources(self):
        """A tree holding only BENCHMARK.json and perfbench/ cannot build."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, env=env, timeout=180,
                check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
