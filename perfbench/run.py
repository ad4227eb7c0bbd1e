#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run configures and builds the
libraries under src/ and the benchmark program into .bench_build/ (Release);
later runs only rebuild what changed. Build output goes to stderr. The
program's output is passed through; its last line is one JSON object with
the keys correct, attempted, failed and metrics, which this script checks
against BENCHMARK.json before passing it on.

--workload all runs the three workloads one after another, each in its own
process, and ends with one JSON line whose metrics are prefixed by the
workload name. The exit code is 0 only when every run completed and every
output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["paper_stream", "wire_live", "weekly_retrain"]
# A workload run that takes longer is killed and reported as incomplete.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("src/ is missing: the benchmark builds the libraries from source")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else
                                               "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result line or None)."""
    out_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 3, None
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines:
        if stdout:
            print(stdout, end="")
        log(f"{workload}: exited with {proc.returncode}")
        return proc.returncode or 3, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(stdout, end="")
        log(f"{workload}: last line is not a JSON result")
        return 3, None
    expected = expected_metrics(trace == 1)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        print(stdout, end="")
        log(f"{workload}: metrics do not match BENCHMARK.json")
        return 3, None
    print("\n".join(lines[:-1]), flush=True)
    return proc.returncode, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if not build():
        log("build failed")
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in workloads:
        rc, line = run_one(workload, args.seed, args.seconds, args.trace)
        if line is None:
            return rc
        code = max(code, rc)
        print(line, flush=True)
        if len(workloads) == 1:
            return code
        result = json.loads(line)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
