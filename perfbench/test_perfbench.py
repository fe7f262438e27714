#!/usr/bin/env python3
"""Smoke tests of the repo benchmark.

Runs every workload in its smoke mode (tiny pinned scale) through
run.py, traced and untraced, and checks the result contract, the
pins, the traced-equals-untraced rule, the golden anchor, hermetic
environment handling and the failure exit outside a full checkout.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, seed=0, env=None, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cells(proc):
    """Cell lines keyed by (app, arch), scale and slot dropped."""
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith("cell\t"):
            f = line.split("\t")
            out[(f[3], f[4])] = f[5:]
    return out


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = spec()
        cls.runs = {(w["name"], t): run(w["name"], t)
                    for w in cls.spec["workloads"] for t in (0, 1)}

    def test_contract_and_correctness(self):
        units = {0: {m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                 1: {m["name"]: m["unit"] for m in self.spec["per_layer"]}}
        for (w, t), proc in self.runs.items():
            with self.subTest(workload=w, trace=t):
                r = result(proc)
                self.assertTrue(r["correct"], proc.stdout)
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in
                                  r["metrics"].items()}, units[t])
                self.assertIn("anchor: 27 cells", proc.stdout)
                self.assertIn(" ok\n", proc.stdout)

    def test_end_to_end_metrics_are_positive(self):
        for w in self.spec["workloads"]:
            r = result(self.runs[(w["name"], 0)])
            for name, m in r["metrics"].items():
                self.assertGreater(m["value"], 0, (w["name"], name))

    def test_traced_layers_fit_inside_run_time(self):
        for w in self.spec["workloads"]:
            m = result(self.runs[(w["name"], 1)])["metrics"]
            parts = (m["workloads.step_s"]["value"] +
                     m["core.enter_exit_s"]["value"])
            self.assertLessEqual(parts, m["sim.run_s"]["value"])
            self.assertGreaterEqual(m["cpu.engine_self_s"]["value"], 0)
            self.assertGreater(m["mem.accesses"]["value"], 0)
            self.assertGreater(m["workloads.steps"]["value"], 0)

    def test_parallel_grid_repeats_serial_cells(self):
        grid = cells(self.runs[("fig6_parallel", 0)])
        user = cells(self.runs[("user_serial", 0)])
        os_ = cells(self.runs[("os_serial", 0)])
        self.assertEqual(len(grid), len(user) + len(os_))
        for key, values in list(user.items()) + list(os_.items()):
            self.assertEqual(grid[key], values, key)

    def test_environment_knobs_are_cleared(self):
        env = dict(os.environ, IRONHIDE_ENGINE="weave", IRONHIDE_THREADS="3",
                   IRONHIDE_DOMAINS="2", IH_FAULT_INJECT="job:0:crash",
                   IRONHIDE_SCALE="0.5")
        proc = run("user_serial", env=env)
        self.assertTrue(result(proc)["correct"], proc.stdout)
        self.assertEqual(cells(proc), cells(self.runs[("user_serial", 0)]))
        # The driver clears them itself too, when started without run.py.
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        with open(os.path.join(ROOT, "bench", "perf_baseline.json")) as f:
            base = json.load(f)
        direct = subprocess.run(
            [os.path.join(ROOT, build, "perfbench", "ih_perfbench"),
             "--workload", "os_serial", "--seed", "0", "--seconds", "1",
             "--scale", "0.05", "--passes", "1",
             "--pins", os.path.join(HERE, "pins.tsv"),
             "--anchor-cycles", str(base["sim_completion_cycles_total"]),
             "--anchor-instructions", str(base["sim_instructions_total"])],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertIn("env: cleared IH_FAULT_INJECT", direct.stdout)
        self.assertIn("env: cleared IRONHIDE_ENGINE", direct.stdout)
        self.assertTrue(result(direct)["correct"], direct.stdout)
        self.assertEqual(cells(direct), cells(self.runs[("os_serial", 0)]))

    def test_other_seed_slot_is_pinned(self):
        proc = run("user_serial", seed=7)
        self.assertTrue(result(proc)["correct"], proc.stdout)
        self.assertNotEqual(cells(proc), cells(self.runs[("user_serial", 0)]))

    def test_fails_outside_a_full_checkout(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("user_serial", cwd=tmp,
                       script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
