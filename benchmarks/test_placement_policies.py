"""Fig-10-style start-order policy comparison (extension).

The paper's fig-10 shows startup latency degrading as schedule load
approaches capacity under first-fit slot claiming.  This benchmark
compares the two placement policies (start orders) under
:func:`repro.workloads.placement.run_policy_scenario` — 95% schedule
load, VCR churn, and a mid-run controller failover whose client
retries land requests at the cubs in retry-phase order rather than
request-age order — and asserts the deadline-greedy shape claim:
serving the oldest outstanding request first repairs the
failover-induced priority inversions and lowers the startup-latency
tail that first-fit's FIFO queues produce.

Two legs:

* DES leg: three seeds per policy on the discrete-event simulator,
  asserting deadline-greedy's p99 strictly beats first-fit's on every
  seed at equal (zero) block loss.
* Live leg: one real-socket cluster run per policy at 95% schedule
  load with seeded VCR churn, each ``--compare-sim`` checked (all
  seven protocol counters within the documented tolerance bands).
"""

from __future__ import annotations

import pytest

from repro.config import PLACEMENT_POLICIES
from repro.live.cluster import ClusterScenario, run_cluster
from repro.obs.registry import snapshot_total
from repro.workloads.placement import run_policy_scenario

from conftest import write_result

DES_SEEDS = (0, 1, 2)

#: Live leg: 30 streams on a 32-slot schedule (4 cubs x 2 disks x 4
#: streams/disk) is the same 95% the DES leg fills.
LIVE_CUBS = 4
LIVE_STREAMS = 30
LIVE_CHURN = 8
LIVE_DURATION_S = 20.0


def run_des_comparison():
    outcomes = {}
    for policy in PLACEMENT_POLICIES:
        outcomes[policy] = [
            run_policy_scenario(policy, seed=seed) for seed in DES_SEEDS
        ]
    return outcomes


def run_live_comparison():
    reports = {}
    for policy in PLACEMENT_POLICIES:
        scenario = ClusterScenario(
            cubs=LIVE_CUBS,
            duration=LIVE_DURATION_S,
            streams=LIVE_STREAMS,
            churn=LIVE_CHURN,
            placement=policy,
            seed=0,
        )
        reports[policy] = run_cluster(scenario, compare_sim=True)
    return reports


@pytest.mark.benchmark(group="placement")
def test_placement_policies(benchmark):
    outcomes = benchmark.pedantic(run_des_comparison, rounds=1, iterations=1)
    live_reports = run_live_comparison()

    lines = [
        "Slot-placement policy comparison — 95% load, VCR churn, "
        "controller failover (DES, 3 seeds)",
        f"{'policy':<16} {'seed':>4} {'starts':>6} {'p50':>7} {'p99':>7} "
        f"{'max':>7} {'loss':>5} {'pending':>7}",
    ]
    for policy in PLACEMENT_POLICIES:
        for seed, outcome in zip(DES_SEEDS, outcomes[policy]):
            lines.append(
                f"{policy:<16} {seed:>4} {outcome.streams:>6} "
                f"{outcome.p50_ms / 1000.0:>6.2f}s "
                f"{outcome.p99_ms / 1000.0:>6.2f}s "
                f"{outcome.max_ms / 1000.0:>6.2f}s "
                f"{outcome.loss_blocks:>5} {outcome.censored:>7}"
            )

    lines.append("")
    lines.append(
        "live leg — real sockets, 30 streams / 32 slots, churn 8, "
        "--compare-sim checked:"
    )
    for policy in PLACEMENT_POLICIES:
        report = live_reports[policy]
        violations = snapshot_total(
            report.merged, "invariant.violations"
        )
        in_band = sum(1 for row in report.comparison if row[4])
        lines.append(
            f"  {policy:<16} passed={report.passed}  "
            f"violations={violations:g}  "
            f"counters in band={in_band}/{len(report.comparison)}"
        )
    lines.append("")
    lines.append(
        "shape: deadline-greedy (oldest-request-first) beats first-fit's "
        "p99 on every seed by repairing failover-retry inversions; "
        "block loss identical (zero) for all policies"
    )
    write_result("placement_policies", lines)

    for seed_index, seed in enumerate(DES_SEEDS):
        first_fit = outcomes["first-fit"][seed_index]
        deadline = outcomes["deadline-greedy"][seed_index]
        assert deadline.p99_ms < first_fit.p99_ms, (
            f"seed {seed}: deadline-greedy p99 {deadline.p99_ms}ms not "
            f"below first-fit {first_fit.p99_ms}ms"
        )
        assert deadline.loss_blocks <= first_fit.loss_blocks
    for policy, report in live_reports.items():
        assert report.passed, f"live {policy} run failed its checks"
