#!/usr/bin/env python3
"""Tests of the benchmark itself (about a minute on 4 cores):

    python3 perfbench/test_perfbench.py

- equal seeds give byte-identical input streams, different seeds do not;
- the exact counts of traced runs repeat from run to run (and the hard
  cases' CP node counts match the ones recorded with the references);
- a corrupted reference verdict makes a run fail with a nonzero exit;
- the design check rejects a binding that breaks the spec's policy;
- the binary has no defaults of its own for run settings;
- without the source tree the command fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own entry point)

EXACT = ["arch.models_built", "synth.cp_nodes", "synth.cp_restarts",
         "synth.cp_nogood_hits", "synth.valves_kept", "opt.bb_nodes",
         "opt.lp_iterations", "opt.control_inlets", "sim.escalations",
         "serve.replayed"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build_dir()
        cls.binary = run.build(cls.out)
        if cls.binary is None:
            raise RuntimeError("perfbench did not build")
        cls.scratch = tempfile.mkdtemp(prefix="tests-", dir=cls.out)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def digest(self, workload, seed):
        got = subprocess.run([self.binary, "digest", "--workload", workload,
                              "--seed", str(seed)],
                             capture_output=True, text=True, check=True)
        return got.stdout.strip()

    def traced(self, workload, seed, seconds):
        code, result = run.run_one(self.binary, self.out, workload, seed,
                                   seconds, 1, "test", echo=False)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        return {k: m["value"] for k, m in result["metrics"].items()}

    def test_streams_are_pure_functions_of_the_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.digest(workload, 1)
                self.assertEqual(first, self.digest(workload, 1))
                self.assertNotEqual(first, self.digest(workload, 2))

    def test_exact_counts_repeat(self):
        for workload, seconds in (("fixed_sweep", 1), ("serve_zipf", 2)):
            with self.subTest(workload=workload):
                a = self.traced(workload, 3, seconds)
                b = self.traced(workload, 3, seconds)
                for name in EXACT:
                    self.assertEqual(a[name], b[name], name)
        a = self.traced("hard_cases", 3, 1)
        with open(os.path.join(run.BENCH, "reference", "hard_cases.json")) as f:
            recorded = json.load(f)["entries"]
        for entry in recorded:
            self.assertEqual(a["synth.cp_nodes." + entry["name"]],
                             entry["cp_nodes"], entry["name"])

    def test_corrupted_reference_fails_the_run(self):
        refs = os.path.join(self.scratch, "reference")
        shutil.copytree(os.path.join(run.BENCH, "reference"), refs)
        path = os.path.join(refs, "fixed_sweep.json")
        with open(path) as f:
            doc = json.load(f)
        entry = next(e for e in doc["entries"] if e["verdict"] == "optimal")
        entry["objective"] += 1
        with open(path, "w") as f:
            json.dump(doc, f)
        got = subprocess.run([self.binary, "run", "--workload", "fixed_sweep",
                              "--seed", "1", "--seconds", "1", "--trace", "0",
                              "--reference-dir", refs, "--out-dir", self.scratch],
                             capture_output=True, text=True)
        self.assertNotEqual(got.returncode, 0)
        result = json.loads(got.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_design_check_rejects_a_binding_the_policy_forbids(self):
        # A fixed-policy design checked against its spec with two fixed pins
        # swapped, and a clockwise design against its reversed order: only
        # the binding-policy check can reject these.
        got = subprocess.run([self.binary, "selftest"], capture_output=True,
                             text=True)
        self.assertEqual(got.returncode, 0, got.stdout + got.stderr)
        self.assertIn("is not on its fixed pin", got.stdout)
        self.assertIn("binding breaks the clockwise order", got.stdout)

    def test_settings_are_required(self):
        got = subprocess.run([self.binary, "run", "--workload", "fixed_sweep",
                              "--seed", "1", "--trace", "0"],
                             capture_output=True, text=True)
        self.assertEqual(got.returncode, 2)
        self.assertEqual(got.stdout, "")

    def test_fails_without_the_source_tree(self):
        alone = os.path.join(self.scratch, "alone")
        shutil.copytree(run.BENCH, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), alone)
        got = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                              "hard_cases", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=alone, capture_output=True,
                             text=True, timeout=180,
                             env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        self.assertNotEqual(got.returncode, 0)
        self.assertEqual(got.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
