"""Self-tests of the benchmark: seed plumbing, passive tracing, and the
metric names and units it prints.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the first run builds the pass runner.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Passes(unittest.TestCase):
    """Digests of single passes, two seeds, traced and untraced."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.work = tempfile.mkdtemp(dir=os.path.dirname(cls.binary))
        cls.digests = {}
        for workload in run.WORKLOADS:
            for seed, trace in ((1, False), (1, True), (2, False)):
                p = run.run_pass(cls.binary, workload,
                                 run.draw_inputs(workload, seed),
                                 os.path.join(cls.work, "pass"), trace=trace)
                assert p["ok"] and p["failed_runs"] == 0, p["errors"]
                cls.digests[workload, seed, trace] = p["digest"]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_seed_changes_drawn_inputs_only(self):
        for workload in run.WORKLOADS:
            same = (self.digests[workload, 1, False]
                    == self.digests[workload, 2, False])
            self.assertEqual(same, workload == "paper-report", workload)

    def test_tracing_is_passive(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.digests[workload, 1, False],
                             self.digests[workload, 1, True], workload)


class Metrics(unittest.TestCase):
    """Every metric BENCHMARK.json names is printed with its unit."""

    def test_names_and_units_are_well_formed(self):
        spec = bench_spec()
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for key in ("end_to_end", "per_layer"):
            for m in spec[key]:
                self.assertRegex(m["unit"], UNIT)

    def test_invocation_prints_every_metric(self):
        spec = bench_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", "pair-openloop", "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, check=True, cwd=run.ROOT)
            result = json.loads(out.stdout.splitlines()[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(printed,
                             {m["name"]: m["unit"] for m in spec[key]})


if __name__ == "__main__":
    unittest.main()
