#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload bulk_uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seconds 5            # every workload in turn

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark program (Release) under $CARGO_TARGET_DIR, default
.bench_build; later runs only rebuild what changed.  The program's table
(every metric with its unit and sample count) goes to stdout, and the last
line of stdout is the result as one JSON object.  Exit codes: 0 all outputs
correct, 1 a wrong output, 2 build or usage error, 3 the result does not
match BENCHMARK.json.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    out = build_dir()
    log = sys.stderr
    if not (out / "CMakeCache.txt").exists():
        r = subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if r.returncode != 0:
            return None
    r = subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                        "perfbench_test", "-j", "4"], stdout=log, stderr=log)
    return out if r.returncode == 0 else None


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Problems with `result` against BENCHMARK.json; empty when it fits."""
    wanted = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("top-level keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    got = result["metrics"]
    for name in sorted(set(wanted) ^ set(got)):
        problems.append("metric %s is %s" % (name, "missing" if name in wanted else "unexpected"))
    for name in sorted(set(wanted) & set(got)):
        value, unit = got[name].get("value"), got[name].get("unit")
        if unit != wanted[name]["unit"]:
            problems.append("%s has unit %r, BENCHMARK.json says %r" % (name, unit, wanted[name]["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number: %r" % (name, value))
        elif not trace and value == 0:
            problems.append("end-to-end metric %s is 0" % name)
    return problems


def run_one(binary, spec, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(binary.parent / ("spans-%s-%d.json" % (workload, seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: %s printed no result (exit %d)" % (workload, proc.returncode),
              file=sys.stderr)
        return proc.returncode or 1, None
    problems = check_result(result, spec, trace)
    if problems:
        for p in problems:
            print("run.py: %s: %s" % (workload, p), file=sys.stderr)
        return 3, None
    if proc.returncode not in (0, 1):
        return proc.returncode, None
    return (0 if result["correct"] else 1), result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    out = build()
    if out is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    binary = out / "perfbench"

    if args.workload is not None:
        code, result = run_one(binary, spec, args.workload, args.seed, seconds, args.trace)
        if result is not None:
            print(json.dumps(result))
        return code

    worst, results = 0, {}
    for name in names:
        print("== %s" % name)
        code, result = run_one(binary, spec, name, args.seed, seconds, args.trace)
        worst = max(worst, code)
        results[name] = result
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
