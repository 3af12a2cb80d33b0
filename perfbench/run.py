#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload filter_hot --seed 1 --seconds 10 --trace 0

Run it from the repository root. The binary and its scratch files live
under .bench_build/ in the repository. The last line of stdout is the
JSON result: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end list (--trace 0) or its
per_layer list (--trace 1). The line before it stamps the environment
(SIMD dispatch, CPUs, compiler, build type, tree shape, sample counts).
The script exits non-zero, printing no result, if the build fails, the
run fails or times out, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the perfbench target; output to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
         "--target", "perfbench"],
        stdout=sys.stderr, check=True)


def check_result(result, spec, trace):
    """Returns a list of ways `result` breaks the BENCHMARK.json contract."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    for name in sorted(set(units) - set(got)):
        problems.append("missing metric %s" % name)
    for name in sorted(set(got) - set(units)):
        problems.append("unlisted metric %s" % name)
    for name in sorted(set(units) & set(got)):
        if got[name].get("unit") != units[name]:
            problems.append("metric %s has unit %r, not %r"
                            % (name, got[name].get("unit"), units[name]))
        if not isinstance(got[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--keys", type=int, default=None,
                        help="base keys (default: the workload's own size)")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit("unknown workload %r (have: %s)"
                 % (args.workload, ", ".join(names)))
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench build failed: %s" % e)

    command = [BINARY, "--workload=%s" % args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--dir=%s" % RUN_DIR]
    if args.keys is not None:
        command.append("--keys=%d" % args.keys)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(RUN_DIR, "db"), ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("perfbench printed no JSON result")
    problems = check_result(result, spec, args.trace)
    if problems:
        sys.exit("result breaks BENCHMARK.json: " + "; ".join(problems))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
