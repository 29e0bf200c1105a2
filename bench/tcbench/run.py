#!/usr/bin/env python3
"""Build tc_bench and run the tcbench workloads.

Run from the root of a checkout:

    python3 bench/tcbench/run.py                          # all four workloads
    python3 bench/tcbench/run.py --workload query_full --seed 1 --reps 5 \
        --out bench/tcbench/baseline/set1
    python3 bench/tcbench/run.py --workload mixed --trace 1 --out DIR
    python3 bench/tcbench/run.py --smoke                  # pre-flight, < 60 s
    python3 bench/tcbench/run.py --smoke --oracle-selftest   # must fail

Each run prints its metrics as `name value unit` lines and, with --out,
writes one JSON file per run. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics are the
end-to-end metrics of BENCHMARK.json for an untraced run (--trace 0) and
its per-layer metrics for a traced one (--trace 1). The exit code is 1 if
any op failed or any answer was wrong, 2 if the build or a run broke.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
WORKLOADS = ["ingest", "query_full", "query_resolution", "mixed"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring tc_bench up to date."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "tc_bench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: build step failed: " + " ".join(step))
            sys.exit(2)
    return BUILD / "tc_bench"


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def build_type():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def run_once(binary, args, workload, seed, spans_path):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--dir", str(BUILD / f"run-{os.getpid()}")]
    if args.trace:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    if args.oracle_selftest:
        cmd.append("--oracle-selftest")
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(2)
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode in (0, 1) and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    log(f"run.py: tc_bench exited with {done.returncode} on {workload}")
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="input seed (dev seed 1, holdout 2)")
    parser.add_argument("--seconds", type=float,
                        help="accepted only as BENCHMARK.json's run_seconds, which fixes the run length")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reps", type=int, default=1, help="runs per workload, same seed")
    parser.add_argument("--smoke", action="store_true", help="small prefill, 2 s per workload")
    parser.add_argument("--oracle-selftest", action="store_true",
                        help="expect one chunk sum off by one: every workload must fail")
    parser.add_argument("--out", type=Path, help="write one JSON per run (and traced spans) here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds not in (None, spec["run_seconds"]):
        parser.error(f"--seconds must be {spec['run_seconds']}, the run length BENCHMARK.json fixes")
    args.seconds = 2 if args.smoke else spec["run_seconds"]
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}

    binary = build()
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    sha = git_sha()
    kind = build_type()
    correct = True
    attempted = failed = 0
    last = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        for rep in range(args.reps):
            stem = f"{workload}-seed{args.seed}-{'trace' if args.trace else 'e2e'}-{rep}"
            spans = args.out / f"{stem}.spans.jsonl" if args.out and args.trace else None
            result = run_once(binary, args, workload, args.seed, spans)
            metrics = result["metrics"]
            wrong = sorted(n for n, unit in declared.items()
                           if metrics.get(n, {}).get("unit") != unit)
            if wrong:
                log(f"run.py: tc_bench did not report {', '.join(wrong)} as declared")
                sys.exit(2)
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            print(f"== {workload} seed {args.seed} rep {rep}: "
                  f"{'ok' if result['correct'] else 'WRONG ANSWERS'}, "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"host steal {result['host_steal_frac']:.1%}")
            for name, m in metrics.items():
                print(f"{name} {m['value']:.6g} {m['unit']}")
            if args.out:
                record = {
                    "workload": workload, "seed": args.seed, "git_sha": sha,
                    "build_type": kind, "metrics_on": result["metrics_on"],
                    "nproc": os.cpu_count(), "duration_s": result["duration_s"],
                    "setups_s": result["setups_s"], "writer_lag_ms": result["writer_lag_ms"],
                    "host_steal_frac": result["host_steal_frac"],
                    "layer": {n: m for n, m in metrics.items() if n not in end_to_end},
                    "ops_attempted": result["attempted"], "ops_failed": result["failed"],
                }
                if not args.trace:
                    record["e2e"] = {n: m for n, m in metrics.items() if n in end_to_end}
                (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
            last = {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in declared.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": last}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
