"""Self-tests of the benchmark at tiny size.

Usage (from the repository root)::

    python3 pipebench/selftest.py

Runs every workload on tiny inputs (``--tiny``) and checks that

* every metric ``BENCHMARK.json`` names is emitted, with its unit, and no
  other -- end-to-end metrics untraced, per-layer metrics traced;
* the count metrics repeat exactly across two runs;
* ``--workload all`` reports the same counts and peak memory as the
  workloads run one by one;
* a deliberately wrong expected verdict makes the run fail;
* without the ``src`` tree the command fails without printing a result;
* ``BENCHMARK.json`` keeps to the limits of its format.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".pipebench_work", "selftest")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [entry["name"] for entry in BENCH["workloads"]]
#: Per-layer metrics that count work and must not vary between runs.
COUNTS = [entry["name"] for entry in BENCH["per_layer"]
          if entry["unit"] == "count" and entry["name"] != "trace.spans"]


def run(workload, trace, *extra, cwd=ROOT):
    """``(returncode, parsed last line or None, stdout)`` of one tiny run."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "pipebench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, done.stdout


class MetricsTest(unittest.TestCase):
    traced = {}
    untraced = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            cls.traced[workload] = [run(workload, 1) for _ in range(2)]
            cls.untraced[workload] = run(workload, 0)
        cls.all_traced = run("all", 1)
        cls.all_untraced = run("all", 0)

    def test_end_to_end_metrics_with_units(self):
        wanted = {entry["name"]: entry["unit"]
                  for entry in BENCH["end_to_end"]}
        for workload in WORKLOADS:
            code, result, out = self.untraced[workload]
            self.assertEqual(code, 0, out)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual({name: entry["unit"] for name, entry
                              in result["metrics"].items()}, wanted)
            self.assertEqual(result["metrics"]["agreement_share"]["value"],
                             1.0)
            self.assertEqual(result["metrics"]["decided_share"]["value"],
                             1.0)

    def test_per_layer_metrics_with_units(self):
        wanted = {entry["name"]: entry["unit"]
                  for entry in BENCH["per_layer"]}
        for workload in WORKLOADS:
            for code, result, out in self.traced[workload]:
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assertEqual({name: entry["unit"] for name, entry
                                  in result["metrics"].items()}, wanted)

    def test_all_agrees_with_single_workloads(self):
        """``--workload all`` reports each workload's own figures."""
        code, result, out = self.all_traced
        self.assertEqual(code, 0, out)
        for workload in WORKLOADS:
            single = self.traced[workload][0][1]["metrics"]
            for name in COUNTS:
                self.assertEqual(
                    result["metrics"][f"{workload}.{name}"]["value"],
                    single[name]["value"], f"{workload} {name}")
        code, result, out = self.all_untraced
        self.assertEqual(code, 0, out)
        self.assertEqual(len(result["metrics"]),
                         len(WORKLOADS) * len(BENCH["end_to_end"]))
        for workload in WORKLOADS:
            single = self.untraced[workload][1]["metrics"]["peak_rss_mb"]
            merged = result["metrics"][f"{workload}.peak_rss_mb"]
            self.assertAlmostEqual(merged["value"] / single["value"], 1.0,
                                   delta=0.1, msg=workload)

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            first, second = (result["metrics"] for _, result, _
                             in self.traced[workload])
            for name in COUNTS:
                self.assertEqual(first[name]["value"],
                                 second[name]["value"],
                                 f"{workload} {name}")

    def test_self_times_reconcile(self):
        for workload in WORKLOADS:
            for _, result, _ in self.traced[workload]:
                metrics = result["metrics"]
                shares = sum(entry["value"] for name, entry
                             in metrics.items() if name.endswith("_share")
                             and name.split(".")[0] not in
                             ("portfolio", "trace"))
                self.assertAlmostEqual(shares, 1.0, delta=1e-3)
                self.assertAlmostEqual(
                    metrics["trace.reconcile_share"]["value"], 1.0,
                    delta=1e-3)

    def test_layers_move_where_predicted(self):
        """The zero/non-zero pattern of the prediction table."""
        def value(workload, name):
            return self.traced[workload][0][1]["metrics"][name]["value"]

        self.assertEqual(value("mesh4-sweep", "obligations.v1_calls"), 0)
        self.assertGreater(value("vcmesh4-sweep", "obligations.v1_calls"), 0)
        for workload in ("mesh4-sweep", "vcmesh4-sweep", "fuzz-crosscheck"):
            self.assertEqual(value(workload, "store.writes"), 0)
            self.assertEqual(value(workload, "store.hits"), 0)
        self.assertGreater(value("fault-sweep", "store.writes"), 0)
        self.assertEqual(value("fault-sweep", "store.hits"),
                         value("fault-sweep", "store.writes"))
        self.assertGreater(value("fuzz-crosscheck", "simulation.steps"), 0)
        self.assertGreater(value("fuzz-crosscheck", "fuzz.brute_force_share"),
                           0)


class FailureTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_wrong_expected_verdict_fails(self):
        expected = os.path.join(SCRATCH, "expected")
        shutil.copytree(os.path.join(HERE, "expected"), expected)
        path = os.path.join(expected, "mesh4-sweep.tiny.json")
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        data["scenarios"][0]["deadlock_free"] = \
            not data["scenarios"][0]["deadlock_free"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        code, result, out = run("mesh4-sweep", 0, "--expected", expected)
        self.assertNotEqual(code, 0, out)
        self.assertFalse(result["correct"])
        self.assertIn("wrong_verdicts = 1 count", out)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "pipebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, out = run("mesh4-sweep", 0, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result, out)


class FormatTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        self.assertTrue(1 <= len(BENCH["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(BENCH["per_layer"]) <= 128)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        names = [entry["name"] for key in ("workloads", "end_to_end",
                                           "per_layer")
                 for entry in BENCH[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for entry in BENCH["workloads"]:
            self.assertEqual(set(entry), {"name", "why"})
            self.assertLessEqual(len(entry["why"]), 200)
        for entry in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(entry["unit"], self.UNIT)
            self.assertIn(entry["better"], ("higher", "lower"))
        bounds = {entry["name"]: entry["bound"]
                  for entry in BENCH["end_to_end"]}
        self.assertTrue(all(0 < bound <= 0.25 for bound in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main(verbosity=2)
