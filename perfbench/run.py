#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a standalone CMake project over src/) into
.bench_build/perfbench, runs one workload in its own process, checks the
result line against BENCHMARK.json and prints it as the last line of
standard output. Build logs and notes go to standard error. A traced run
also writes its spans to .bench_build/traces/<workload>-seed<N>.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    if not (ROOT / "src").is_dir():
        sys.exit("perfbench: no src/ next to perfbench/ - run from a full checkout")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_error(line, trace):
    """Why the result line breaks the contract, or None when it keeps it."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        return "attempted must be a whole number >= 1"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"undeclared {extra}, wrong unit {units}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dump-inputs", action="store_true",
                    help="print the inputs the seed generates and exit")
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.dump_inputs:
        cmd.append("--dump-inputs")
    elif args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file",
                str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        sys.exit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {args.workload} exited with {proc.returncode}")
    if args.dump_inputs:
        sys.stdout.write(proc.stdout)
        return
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: no result line")
    error = result_error(lines[-1], args.trace)
    if error:
        sys.exit(f"perfbench: {error}")
    print(lines[-1])


if __name__ == "__main__":
    main()
