#!/usr/bin/env python3
"""The repo's benchmark: one command, one workload, one JSON result.

    python3 benchmarks/perf/run.py --workload steady_full --seed 1 \
        --seconds 10 --trace 0

builds the workload from ``--seed``, measures for about ``--seconds``,
verifies the program's outputs, prints every metric by name with its
unit and, as the last line of standard output, one JSON object with
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``
— every end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``,
every per-layer metric with ``--trace 1``.  See README.md beside this
file for what each workload and metric is for.

``--all`` runs every workload (``--runs`` times each, each in its own
process) and writes one result file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch directories (node specs and logs, sub-run results) are made
#: here, inside the checkout, under this prefix (listed in .gitignore)
#: and removed after use.
WORK_PREFIX = ".work-"

sys.path.insert(0, str(ROOT / "src"))


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> Dict[str, Any]:
    """Where and under what load the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def close_environment(env: Dict[str, Any], echo: Callable[[str], None]) -> None:
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["noisy"] = max(env["loadavg_1m_start"], env["loadavg_1m_end"]) > env["nproc"]
    if env["noisy"]:
        echo(
            f"NOISY: 1-min load average {env['loadavg_1m_start']:.2f} -> "
            f"{env['loadavg_1m_end']:.2f} exceeds nproc={env['nproc']}; "
            "a slow number from this run is not a regression"
        )


def run_one(options: argparse.Namespace) -> int:
    """Measure one workload in this process; returns the exit code."""
    contract = load_contract()
    names = [row["name"] for row in contract["workloads"]]
    if options.workload not in names:
        print(f"error: unknown workload {options.workload!r}; "
              f"pick one of {', '.join(names)}", file=sys.stderr)
        return 2
    if options.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
              "missing (the benchmark runs from the root of a checkout)",
              file=sys.stderr)
        return 1

    from workloads import DES_WORKLOADS, measure_des

    echo = print
    traced = options.trace == 1
    env = environment()
    echo(f"{options.workload}: seed {options.seed}, {options.seconds:g} s, "
         f"{'traced' if traced else 'timed'}"
         f"{', smoke scale' if options.smoke else ''}")

    if options.workload in DES_WORKLOADS:
        parts = measure_des(
            DES_WORKLOADS[options.workload], options.seed, options.seconds,
            traced, options.smoke, options.trace_out, echo,
        )
    else:
        import live

        with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=HERE) as scratch:
            parts = live.LIVE_WORKLOADS[options.workload](
                options.seed, options.seconds, traced, options.smoke,
                options.trace_out, scratch, echo,
            )

    section = "per_layer" if traced else "end_to_end"
    values = dict(parts[section])
    declared = {row["name"]: row["unit"] for row in contract[section]}
    stray = sorted(set(values) - set(declared))
    if stray:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {stray}")
    # A layer a workload never enters did no work there: 0, by name.
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    close_environment(env, echo)

    detail = parts["detail"]
    for problem in detail.get("problems", ()):
        echo(f"  PROBLEM: {problem}")
    echo(f"  fingerprint {detail.get('fingerprint', '-')}")
    echo(f"  item = {detail['item']}; {detail['items']:g} items; "
         f"attempted {parts['attempted']}, failed {parts['failed']}")
    for name, row in metrics.items():
        echo(f"  {name:<34} {row['value']:>16.6f} {row['unit']}")
    result = {
        "correct": bool(parts["correct"]),
        "attempted": int(parts["attempted"]),
        "failed": int(parts["failed"]),
        "metrics": metrics,
    }
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"workload": options.workload, "seed": options.seed,
                 "seconds": options.seconds, "trace": options.trace,
                 "smoke": options.smoke, "env": env, "detail": detail,
                 **result},
                handle, indent=1, sort_keys=True,
            )
    print(json.dumps(result))
    return 0


def run_all(options: argparse.Namespace) -> int:
    """Every workload, ``--runs`` timed runs and one traced run each,
    one process per run; writes the result file ``compare.py`` reads."""
    contract = load_contract()
    wanted = (
        options.workloads.split(",") if options.workloads
        else [row["name"] for row in contract["workloads"]]
    )
    env = environment()
    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {}
    failed = False
    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=HERE) as scratch:
        for workload in wanted:
            runs[workload] = {"timed": [], "traced": []}
            plan = [("timed", 0)] * options.runs
            if options.traced:
                plan.append(("traced", 1))
            for index, (mode, trace) in enumerate(plan):
                out = os.path.join(scratch, f"{workload}-{index}.json")
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(options.seed),
                    "--seconds", str(options.seconds), "--trace", str(trace),
                    "--out", out,
                ] + (["--smoke"] if options.smoke else [])
                print(f"== {workload} {mode} run {index}", flush=True)
                done = subprocess.run(command, cwd=ROOT, check=False)
                if done.returncode != 0 or not os.path.exists(out):
                    print(f"   exit code {done.returncode}", flush=True)
                    failed = True
                    continue
                with open(out, "r", encoding="utf-8") as handle:
                    runs[workload][mode].append(json.load(handle))
    close_environment(env, print)
    document = {
        "seed": options.seed, "seconds": options.seconds,
        "smoke": options.smoke, "env": env, "runs": runs,
    }
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        print(f"wrote {options.out}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Tiger reproduction benchmark (see README.md here).")
    parser.add_argument("--workload", help="workload to measure in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: timed run, end-to-end metrics; "
                             "1: traced run, per-layer metrics")
    parser.add_argument("--trace-out", help="write the traced run's spans "
                        "here as a Chrome trace (with --trace 1)")
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--smoke", action="store_true",
                        help="small systems and short windows (self-test)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each run in its own process")
    parser.add_argument("--workloads", help="with --all: comma-separated subset")
    parser.add_argument("--runs", type=int, default=3,
                        help="with --all: timed runs per workload")
    parser.add_argument("--traced", action="store_true",
                        help="with --all: add one traced run per workload")
    options = parser.parse_args(argv)
    if options.all:
        return run_all(options)
    if not options.workload:
        parser.error("give --workload NAME, or --all")
    return run_one(options)


if __name__ == "__main__":
    sys.exit(main())
