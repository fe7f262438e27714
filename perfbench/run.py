#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark driver (perfbench/driver.cc, linked against the
simulator compiled from src/) and runs one workload:

    python3 perfbench/run.py --workload user_serial --seed 1 \
        --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root. The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
--smoke runs a tiny, pinned version of the workload for the tests.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("user_serial", "os_serial", "fig6_parallel")
SMOKE_SCALE = "0.05"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The environment without the simulator's IRONHIDE_*/IH_* knobs."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("IRONHIDE_", "IH_"))}


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.hh")):
        fail("simulator sources not found: run from a full checkout")
    out = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        try:
            r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            fail("build step %s failed" % " ".join(cmd[:3]))
    return os.path.join(out, "ih_perfbench")


def golden_anchor():
    """The repo's perf_smoke golden totals (27 cells at scale 0.1)."""
    path = os.path.join(ROOT, "bench", "perf_baseline.json")
    try:
        with open(path) as f:
            base = json.load(f)
        return (int(base["sim_completion_cycles_total"]),
                int(base["sim_instructions_total"]))
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read the golden totals in %s: %s" % (path, e))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=4,
                    help="host workers of fig6_parallel (default 4)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny pinned scale, one pass of each kind")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.workers < 1:
        fail("--seed must be >= 0, --seconds and --workers positive")

    env = clean_env()
    binary = build(env)
    cycles, insts = golden_anchor()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workers", str(args.workers),
           "--pins", os.path.join(HERE, "pins.tsv"),
           "--anchor-cycles", str(cycles),
           "--anchor-instructions", str(insts)]
    if args.smoke:
        cmd += ["--scale", SMOKE_SCALE, "--passes", str(1 + args.trace)]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %.0f s" % (args.seconds + 120))
    sys.stdout.write(r.stdout)
    if r.returncode != 0:
        fail("driver exited with code %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("driver printed no result line")
    print("perfbench: %s finished in %.1f s" % (args.workload,
                                               time.monotonic() - t0),
          file=sys.stderr)


if __name__ == "__main__":
    main()
