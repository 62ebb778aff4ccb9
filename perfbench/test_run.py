#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json keeps to its format, the
program's metric catalogue matches it name for name, run.py rejects results
that do not match it, and the C++ harness tests pass.

    python3 perfbench/test_run.py
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.doc = run.load_spec()

    def test_top_level(self):
        self.assertEqual(set(self.doc), {"command", "paths", "run_seconds", "workloads",
                                         "end_to_end", "per_layer"})
        self.assertLessEqual(len((run.ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)
        self.assertTrue(1 <= len(self.doc["command"]) <= 32)
        for arg in self.doc["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(self.doc["paths"]) <= 16)
        for p in self.doc["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue((run.ROOT / p).is_dir())
        self.assertIsInstance(self.doc["run_seconds"], int)
        self.assertTrue(1 <= self.doc["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        wl = self.doc["workloads"]
        self.assertTrue(2 <= len(wl) <= 8)
        for w in wl:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        e2e, layer = self.doc["end_to_end"], self.doc["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [x["name"] for x in wl + e2e + layer]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for n in names:
            self.assertRegex(n, NAME)
        for m in e2e + layer:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))


class CatalogueTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build()
        if cls.out is None:
            raise unittest.SkipTest("build failed")

    def test_catalogue_matches_benchmark_json(self):
        rows = subprocess.run([str(self.out / "perfbench"), "--list-metrics"], check=True,
                              capture_output=True, text=True).stdout.splitlines()
        got = {"end_to_end": [], "per_layer": []}
        for row in rows:
            kind, name, unit, better, _target = row.split("\t")
            got[kind].append({"name": name, "unit": unit, "better": better})
        doc = run.load_spec()
        for kind in got:
            want = [{k: m[k] for k in ("name", "unit", "better")} for m in doc[kind]]
            self.assertEqual(got[kind], want, kind)

    def test_harness(self):
        r = subprocess.run([str(self.out / "perfbench_test")], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_unknown_workload_is_refused(self):
        r = subprocess.run([str(self.out / "perfbench"), "--workload", "nope", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], capture_output=True, text=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


class CheckResultTest(unittest.TestCase):
    def result(self, metrics):
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    def test_checks(self):
        doc = run.load_spec()
        good = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in doc["end_to_end"]}
        self.assertEqual(run.check_result(self.result(good), doc, 0), [])
        first = doc["end_to_end"][0]["name"]
        missing = dict(good)
        del missing[first]
        self.assertTrue(run.check_result(self.result(missing), doc, 0))
        zero = json.loads(json.dumps(good))
        zero[first]["value"] = 0
        self.assertTrue(run.check_result(self.result(zero), doc, 0))
        unit = json.loads(json.dumps(good))
        unit[first]["unit"] = "parsecs"
        self.assertTrue(run.check_result(self.result(unit), doc, 0))
        self.assertTrue(run.check_result(self.result(good), doc, 1), "per-layer set expected")


if __name__ == "__main__":
    unittest.main()
