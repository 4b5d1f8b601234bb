#!/usr/bin/env python3
"""Build and run the sz14 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is field-codec, archive-ingest, serve-warm, serve-cold, or "all" (every
workload in turn).  The benchmark is built from the sources in this checkout
into .bench_build/perfbench (Release), then run; all scratch files stay
under .bench_build.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["field-codec", "archive-ingest", "serve-warm", "serve-cold"]
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "core" / "compressor.hpp").is_file():
        sys.exit("perfbench: library sources not found next to perfbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_one(workload, args):
    """Run one workload; returns (exit code, its last line or None)."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(BUILD / "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 2, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 2, None
    return proc.returncode, lines[-1]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in workloads:
        rc, line = run_one(w, args)
        if line is None:
            sys.exit(f"perfbench: {w} produced no result (exit {rc})")
        if len(workloads) == 1:
            print(line)
            return rc
        result = json.loads(line)
        print(json.dumps({"workload": w, **result}))
        code = max(code, rc)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
