#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 2] [--workload NAME ...]

Run from the repository root.  Makes a short untraced and a short traced
run of every workload of BENCHMARK.json through perfbench/run.py and
checks that the untraced run prints exactly the end_to_end metrics and
the traced run exactly the per_layer metrics, each with its unit and a
finite value (end-to-end values also above 0), that no output check
failed, and that the traced run reports error_rate 0.  Exits non-zero on
the first problem.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

def die(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--seconds", default="2")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    for w in args.workload or []:
        if w not in workloads:
            die(f"unknown workload {w}; BENCHMARK.json has {workloads}")

    for workload in args.workload or workloads:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "7",
                   "--seconds", args.seconds, "--trace", str(trace)]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            what = f"{workload} --trace {trace}"
            if done.returncode != 0:
                die(f"{what} exited with code {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                die(f"{what}: {result['failed']} of {result['attempted']} "
                    "operations failed their checks")
            metrics = result["metrics"]
            kind = "per_layer" if trace else "end_to_end"
            units = {m["name"]: m["unit"] for m in bench[kind]}
            if sorted(metrics) != sorted(units):
                die(f"{what} reported {sorted(metrics)}, expected {sorted(units)}")
            for name, m in metrics.items():
                if m["unit"] != units[name]:
                    die(f"{what}: {name} in {m['unit']}, expected {units[name]}")
                if not math.isfinite(m["value"]):
                    die(f"{what}: {name} is {m['value']}")
                if not trace and m["value"] <= 0:
                    die(f"{what}: end-to-end {name} is {m['value']}")
            if trace == 1 and metrics["error_rate"]["value"] != 0:
                die(f"{what}: error_rate {metrics['error_rate']['value']}")
            print(f"selftest: ok  {what}  ({result['attempted']} checked operations)")
    print("selftest: all workloads passed")


if __name__ == "__main__":
    main()
