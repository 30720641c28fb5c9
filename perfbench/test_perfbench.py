#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the runner through run.py (the first call takes about a
minute), then drive every workload at the tiny smoke scale.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
# Every workload the runner has; BENCHMARK.json lists the ones the
# regression gate runs.
WORKLOADS = ["flood", "damming", "mesh_storm"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def smoke(workload, seed=7, trace=0):
    proc = run_bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace),
                     "--scale", "smoke")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def records(stdout):
    """scenario index -> simulated record, from the det lines."""
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"det \S+ scenario=(\d+) (.*?) \|", line)
        if m:
            out[int(m.group(1))] = m.group(2)
    return out


class Smoke(unittest.TestCase):
    def check_result(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in expected})

    def test_untraced_metrics_match_benchmark_json(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, result = smoke(w)
                self.check_result(result, BENCH["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_metrics_match_benchmark_json(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                stdout, result = smoke(w, trace=1)
                self.check_result(result, BENCH["per_layer"])
                trace = ROOT / ".bench_build" / f"trace_{w}.json"
                spans = json.loads(trace.read_text())
                self.assertTrue(spans["traceEvents"])
                self.assertIn("by_name", spans["otherData"])
                self.assertIn("spans written to", stdout)

    def test_all_runs_every_workload(self):
        proc = run_bench("--workload", "all", "--seed", "3", "--seconds",
                         "1", "--scale", "smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        expected = {f"{w}.{m['name']}" for w in WORKLOADS
                    for m in BENCH["end_to_end"]}
        self.assertEqual(set(result["metrics"]), expected)


class Determinism(unittest.TestCase):
    def test_seed_changes_inputs_and_repeats_records(self):
        for w in ("damming", "flood"):
            with self.subTest(workload=w):
                a, _ = smoke(w, seed=7)
                b, _ = smoke(w, seed=7)
                c, _ = smoke(w, seed=8)
                ra, rb, rc = records(a), records(b), records(c)
                common = sorted(set(ra) & set(rb) & set(rc))
                self.assertTrue(common)
                self.assertEqual([ra[i] for i in common],
                                 [rb[i] for i in common])
                self.assertNotEqual([ra[i] for i in common],
                                    [rc[i] for i in common])

    def test_mesh_storm_jobs_reference_agrees(self):
        stdout, result = smoke("mesh_storm", seed=5)
        self.assertTrue(result["correct"])
        ref = re.search(r"det mesh_storm reference scenario=0 (.*)", stdout)
        self.assertIsNotNone(ref)
        self.assertEqual(ref.group(1), records(stdout)[0])


class Contract(unittest.TestCase):
    def test_layer_map_covers_benchmark_json(self):
        names = [m["name"] for m in BENCH["per_layer"]]
        self.assertEqual(sorted(names), sorted(LAYER_MAP["per_layer"]))
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        self.assertEqual(set(LAYER_MAP["workloads"]), set(WORKLOADS))
        self.assertLessEqual({w["name"] for w in BENCH["workloads"]},
                             set(WORKLOADS))
        for name, entry in LAYER_MAP["per_layer"].items():
            self.assertLessEqual(set(entry["moves"]), e2e, name)
            self.assertLessEqual(set(entry["on"]), set(WORKLOADS), name)

    def test_fails_without_simulator_sources(self):
        bare = ROOT / ".bench_build" / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
