#!/usr/bin/env python3
"""Compare two sets of tcbench runs: a parent commit and a change.

    python3 bench/tcbench/compare.py PARENT_DIR CHANGE_DIR [--claim METRIC@WORKLOAD]

Each directory holds the per-run JSON files that `run.py --out DIR` writes
for untraced runs, ideally alternating parent and change runs. For every
(metric, workload) row present on both sides it prints each side's median
and quartiles and one verdict. An end-to-end metric is judged by its bound
in BENCHMARK.json:

  unchanged   the change's median is no worse than the parent's by more
              than the bound
  regressed   it is worse by more than the bound
  unresolved  a side's quartile spread (IQR / median) exceeds the bound,
              unless every change run beats every parent run

A per-layer metric that untraced runs report (throughput and latency) has
no bound: its row reads `no bound` and only informs, unless claimed.

A claimed row (--claim, repeatable) must also show a gain: the change wins
at least 9/10 of the run pairs (ties count for neither side) and the medians
differ by more than the parent's interquartile range. A rise in the share of
failed ops fails the comparison. The exit code is 0 only when no row
regressed or is unresolved, failed ops did not rise, and every claim holds.
It also prints the worst host CPU steal of any run on each side, and warns
when a run was measured while other guests took the host's CPUs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# Host CPU steal, as a share of all CPU time during a run's traffic, above
# which its timings no longer describe the code: 20% steal halved throughput.
STEAL_WARN = 0.02


def load_runs(directory):
    """Untraced runs per workload, in file-name (run) order."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        record = json.loads(path.read_text())
        if "e2e" in record:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def values(runs, name):
    """One metric's value in each run, from whichever block holds it."""
    return [r[block][name]["value"] for r in runs
            for block in ("e2e", "layer") if name in r.get(block, {})]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare_row(metric, parent, change, claimed):
    better = (lambda a, b: a < b) if metric["better"] == "lower" else (lambda a, b: a > b)
    bound = metric.get("bound")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse = (c_med - p_med) / p_med
    if metric["better"] == "higher":
        worse = -worse
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    all_better = all(better(c, p) for c in change for p in parent)
    if bound is None:
        verdict = "no bound"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    if claimed:
        pairs = list(zip(parent, change))
        wins = sum(better(c, p) for p, c in pairs)
        gain = wins >= 0.9 * len(pairs) and -worse * p_med > p_q3 - p_q1
        verdict = ("gain" if gain else "no gain") + f" ({wins}/{len(pairs)} pairs)"
        ok = gain
    else:
        ok = verdict in ("unchanged", "no bound")
    return (p_med, p_q1, p_q3, c_med, c_q1, c_q3, worse, spread, verdict), ok


def failed_share(runs):
    attempted = sum(r["ops_attempted"] for rs in runs.values() for r in rs)
    failed = sum(r["ops_failed"] for rs in runs.values() for r in rs)
    return failed / max(1, attempted)


def worst_steal(runs):
    return max((r.get("host_steal_frac", 0) for rs in runs.values() for r in rs), default=0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    claims = set(args.claim)
    ok = True
    print(f"{'workload':17} {'metric':12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'worse':>7} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            p, c = values(parent[workload], name), values(change[workload], name)
            if not p or not c:
                continue
            claimed = f"{name}@{workload}" in claims
            claims.discard(f"{name}@{workload}")
            row, row_ok = compare_row(metric, p, c, claimed)
            ok = ok and row_ok
            p_med, p_q1, p_q3, c_med, c_q1, c_q3, worse, spread, verdict = row
            bound = f"{metric['bound']:6.0%}" if "bound" in metric else f"{'-':>6}"
            print(f"{workload:17} {name:12} {p_med:12.5g} [{p_q1:8.5g}, {p_q3:8.5g}] "
                  f"{c_med:12.5g} [{c_q1:8.5g}, {c_q3:8.5g}] {worse:+7.1%} {spread:7.1%} "
                  f"{bound}  {verdict}")
    for claim in sorted(claims):
        print(f"claim {claim}: no such row on both sides")
        ok = False
    p_failed, c_failed = failed_share(parent), failed_share(change)
    print(f"failed ops: parent {p_failed:.2e}, change {c_failed:.2e}")
    if c_failed > p_failed:
        print("the change fails more ops than the parent")
        ok = False
    p_steal, c_steal = worst_steal(parent), worst_steal(change)
    print(f"worst host CPU steal in a run: parent {p_steal:.1%}, change {c_steal:.1%}")
    if max(p_steal, c_steal) > STEAL_WARN:
        print(f"warning: steal above {STEAL_WARN:.0%} slows every timing; "
              "re-run those runs on a quiet host")
    print("OK" if ok else "NOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
