"""Tests of the benchmark's metric declarations: BENCHMARK.json and run.py
declare the same workloads and metrics, and every name and unit is valid and
used once.

  python3 -B e2ebench/test_run.py
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class MetricDeclarationTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    def entries(self):
        return (self.spec["workloads"] + self.spec["end_to_end"]
                + self.spec["per_layer"])

    def test_names_and_units_are_valid(self):
        for entry in self.entries():
            self.assertTrue(NAME.fullmatch(entry["name"]), entry["name"])
            if "unit" in entry:
                self.assertTrue(UNIT.fullmatch(entry["unit"]), entry["unit"])

    def test_names_are_unique(self):
        names = [entry["name"] for entry in self.entries()]
        self.assertEqual(len(names), len(set(names)))

    def test_run_reports_the_declared_metrics(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_quantile(self):
        self.assertEqual(run.quantile([7.0], 90), 7.0)
        self.assertEqual(run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 50), 3.0)
        self.assertAlmostEqual(run.quantile(list(range(101)), 90), 90.0)


if __name__ == "__main__":
    unittest.main()
