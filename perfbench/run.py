#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark program
(perfbench/pb.exe) and the daemon (bin/ccsched.exe) from source into
.bench_build, runs the workload, and prints its JSON result as the last
line of standard output.  Sockets, daemon logs and span files go to
.bench_run.
Exits non-zero, without a result, when the build or the run fails, or
when the result does not hold exactly the metrics BENCHMARK.json names
for the run's kind (end_to_end untraced, per_layer traced), each in its
unit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["compact-scale", "serve-hot", "simulate"]
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./bin/ccsched.exe", "./perfbench/pb.exe"]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def stop_group(pgid):
    """Kill whatever is left of pb.exe's process group and wait
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for path in ("dune-project", "lib", "bin", "perfbench/dune",
                 "BENCHMARK.json"):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the repository root")
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(RUN_DIR, exist_ok=True)
    # Keep every file the build and the run write inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build(env)

    exe = os.path.join(BUILD_DIR, "default")
    cmd = [os.path.join(exe, "perfbench", "pb.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ccsched", os.path.join(exe, "bin", "ccsched.exe"),
           "--run-dir", RUN_DIR]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("pb.exe printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in manifest[kind]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if got[n] != want[n])
        fail(f"{kind} metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")
    print(lines[-1])


if __name__ == "__main__":
    main()
