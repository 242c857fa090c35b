#!/usr/bin/env python3
"""Compare two result files written by ``run.py --all --out``.

    python3 benchmarks/perf/compare.py A.json B.json [--append-trajectory]

A is the parent, B the change.  For every (workload, end-to-end metric)
pair it prints both medians and run-to-run spreads (distance between the
quartiles as a share of the median) and applies the metric's direction
and bound from ``BENCHMARK.json``:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread of either side exceeds the bound and the
  two sides' runs overlap, so the runs cannot tell; not "unchanged";
* ``improved`` / ``same`` otherwise.

It also reports whether each workload's fingerprint and the exact
per-layer counts of the traced runs moved (they must not, for a change
meant only to make the simulator faster).  Exit code 1 on a regression,
an incorrect run, or a larger failed share; 0 otherwise.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TRAJECTORY = HERE / "TRAJECTORY.md"

#: Workloads whose counts are a pure function of (seed, seconds).
DETERMINISTIC = ("steady_full", "idle_tick", "failed_full", "churn_95")


def is_exact(metric: str) -> bool:
    """Per-layer metrics that repeat exactly on a deterministic workload:
    counts and sim-time values, not host seconds or collector activity."""
    return not (
        metric.endswith("self_s")
        or metric.startswith(("trace.", "gc.", "node.", "driver."))
        or metric == "sim.x_realtime"
    )


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, middle, high = statistics.quantiles(values, n=4)
    return (high - low) / middle if middle else 0.0


def values_of(runs: List[Dict[str, Any]], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def failed_share(runs: List[Dict[str, Any]]) -> float:
    return max((run["failed"] / max(run["attempted"], 1) for run in runs), default=0.0)


def verdict(
    a: List[float], b: List[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, share by which B's median is worse than A's)``."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    if not median_a:
        return ("same" if not median_b else "unresolved", 0.0)
    worse = (median_b - median_a) / abs(median_a)
    if better == "higher":
        worse = -worse
    if better == "lower":
        b_all_better, b_all_worse = max(b) < min(a), min(b) > max(a)
    else:
        b_all_better, b_all_worse = min(b) > max(a), max(b) < min(a)
    if max(spread(a), spread(b)) > bound and not (b_all_better or b_all_worse):
        return ("unresolved", worse)
    if worse > bound:
        return ("REGRESSION", worse)
    if worse < -bound:
        return ("improved", worse)
    return ("same", worse)


def compare(a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]) -> int:
    bad = 0
    print(f"A: commit {a['env']['git_commit'][:12]} seed {a['seed']} "
          f"{'NOISY ' if a['env'].get('noisy') else ''}| "
          f"B: commit {b['env']['git_commit'][:12]} seed {b['seed']} "
          f"{'NOISY' if b['env'].get('noisy') else ''}")
    header = (f"{'workload':<12} {'metric':<18} {'A median':>14} {'A spread':>9} "
              f"{'B median':>14} {'B spread':>9} {'B worse by':>11} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    for row in contract["workloads"]:
        workload = row["name"]
        runs_a = a["runs"].get(workload, {}).get("timed", [])
        runs_b = b["runs"].get(workload, {}).get("timed", [])
        if not runs_a or not runs_b:
            print(f"{workload:<12} missing from {'A' if not runs_a else 'B'}")
            bad = 1
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            va, vb = values_of(runs_a, name), values_of(runs_b, name)
            word, worse = verdict(va, vb, metric["better"], metric["bound"])
            bad |= word == "REGRESSION"
            print(f"{workload:<12} {name:<18} {statistics.median(va):>14.4f} "
                  f"{spread(va):>8.1%} {statistics.median(vb):>14.4f} "
                  f"{spread(vb):>8.1%} {worse:>+10.1%} {metric['bound']:>6.0%}  {word}")
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        incorrect = [run for run in runs_a + runs_b if not run["correct"]]
        word = "same"
        if share_b > share_a:
            word, bad = "MORE FAILURES", 1
        if incorrect:
            word, bad = "INCORRECT RUN", 1
        print(f"{workload:<12} {'failed share':<18} {share_a:>14.6f} {'':>9} "
              f"{share_b:>14.6f} {'':>9} {'':>11} {'0%':>6}  {word}")

        prints_a = {run["detail"]["fingerprint"] for run in runs_a}
        prints_b = {run["detail"]["fingerprint"] for run in runs_b}
        if workload in DETERMINISTIC:
            state = "same" if prints_a == prints_b and len(prints_a) == 1 else "MOVED"
            print(f"{workload:<12} fingerprint {state}: "
                  f"A {sorted(p[:12] for p in prints_a)} B {sorted(p[:12] for p in prints_b)}")
            traced_a = a["runs"][workload].get("traced", [])
            traced_b = b["runs"][workload].get("traced", [])
            if traced_a and traced_b:
                moved = [
                    f"{name} {traced_a[0]['metrics'][name]['value']:g}->"
                    f"{traced_b[0]['metrics'][name]['value']:g}"
                    for name in traced_a[0]["metrics"]
                    if is_exact(name)
                    and traced_a[0]["metrics"][name]["value"]
                    != traced_b[0]["metrics"][name]["value"]
                ]
                exact = sum(1 for name in traced_a[0]["metrics"] if is_exact(name))
                print(f"{workload:<12} exact per-layer values: "
                      f"{exact - len(moved)} of {exact} equal"
                      + (f"; moved: {', '.join(moved)}" if moved else ""))
    return bad


def append_trajectory(document: Dict[str, Any], contract: Dict[str, Any]) -> None:
    """One line per workload, appended; the file is never rewritten."""
    if not TRAJECTORY.exists():
        names = " | ".join(metric["name"] for metric in contract["end_to_end"])
        TRAJECTORY.write_text(
            "# Benchmark trajectory\n\n"
            "One line per workload per recorded result (medians over the\n"
            "timed runs); appended by `compare.py --append-trajectory`,\n"
            "never edited.\n\n"
            f"| date | commit | seed | workload | runs | {names} | failed share "
            "| fingerprint |\n"
            "|---|---|---|---|---|" + "---|" * len(contract["end_to_end"]) + "---|---|\n",
            encoding="utf-8",
        )
    today = datetime.date.today().isoformat()
    with open(TRAJECTORY, "a", encoding="utf-8") as handle:
        for row in contract["workloads"]:
            runs = document["runs"].get(row["name"], {}).get("timed", [])
            if not runs:
                continue
            medians = " | ".join(
                f"{statistics.median(values_of(runs, metric['name'])):.4f}"
                for metric in contract["end_to_end"]
            )
            handle.write(
                f"| {today} | {document['env']['git_commit'][:12]} "
                f"| {document['seed']} | {row['name']} | {len(runs)} | {medians} "
                f"| {failed_share(runs):.6f} "
                f"| {runs[0]['detail']['fingerprint'][:12]} |\n"
            )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="result file of the parent commit")
    parser.add_argument("b", help="result file of the change")
    parser.add_argument("--append-trajectory", action="store_true",
                        help=f"append B's medians to {TRAJECTORY.name}")
    options = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    with open(options.a, "r", encoding="utf-8") as handle:
        a = json.load(handle)
    with open(options.b, "r", encoding="utf-8") as handle:
        b = json.load(handle)
    bad = compare(a, b, contract)
    if options.append_trajectory:
        append_trajectory(b, contract)
        print(f"appended {len(b['runs'])} line(s) to {TRAJECTORY}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
