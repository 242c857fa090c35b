"""Chaos soak: fault-mix sweep under the runtime invariant monitor.

The acceptance drill for the fault-injection subsystem: run the system
at 50% load while a :class:`~repro.faults.plan.FaultPlan` perturbs the
network, the disks, and the processes, with the
:class:`~repro.faults.monitor.InvariantMonitor` sweeping every second.
Any violation (schedule/oracle divergence, double slot ownership,
delivery-ledger leak, orphaned viewer chain, non-converged deadman
beliefs) raises and fails the benchmark.

Three mixes are swept:

* ``standard``   — ~1% data loss + one cub crash-restart + one
                   controller kill/failback + a transient slow disk;
* ``net-heavy``  — loss, duplication, reordering and jitter on data
                   traffic, plus a full 10 s cub isolation (long enough
                   for deadman detection, so bridging covers it — the
                   cubs' control plane is TCP in the paper, so silent
                   sub-timeout link cuts are outside the model);
* ``disk-heavy`` — slow zone + stuck I/O + one full disk death and
                   recovery (mirrors carry the dead window).

A second same-seed run of the standard mix must reproduce the SHA-256
outcome fingerprint bit-identically — the determinism half of the
acceptance criteria.
"""

from __future__ import annotations

import pytest

from repro import small_config
from repro.faults.harness import ChaosHarness, standard_chaos_plan
from repro.faults.plan import FaultPlan

from conftest import write_result

DURATION = 90.0
LOAD = 0.5
SEEDS = (0, 1, 2)


def net_heavy_plan(duration: float = DURATION) -> FaultPlan:
    plan = FaultPlan(name="net-heavy")
    window = duration - 30.0
    plan.drop_messages(0.01, start=10.0, duration=window, kind="data")
    plan.duplicate_messages(0.02, start=10.0, duration=window)
    plan.reorder_messages(0.05, shift=0.2, start=10.0, duration=window, kind="data")
    plan.delay_messages(0.002, start=20.0, duration=30.0, jitter=0.003, kind="data")
    plan.isolate_node("cub:1", start=30.0, duration=10.0)
    return plan


def disk_heavy_plan(duration: float = DURATION) -> FaultPlan:
    plan = FaultPlan(name="disk-heavy")
    plan.slow_disk(2, factor=3.0, start=10.0, duration=15.0)
    plan.stick_disk(5, start=30.0, duration=2.0)
    plan.fail_disk(6, at=45.0, recover_after=20.0)
    return plan


MIXES = (
    ("standard", lambda: standard_chaos_plan(DURATION)),
    ("net-heavy", net_heavy_plan),
    ("disk-heavy", disk_heavy_plan),
)


def run_soak():
    rows = []
    reports = {}
    for name, make_plan in MIXES:
        for seed in SEEDS:
            harness = ChaosHarness(
                small_config(),
                make_plan(),
                seed=seed,
                load=LOAD,
                duration=DURATION,
            )
            report = harness.run()  # raises InvariantViolation on failure
            reports[(name, seed)] = report
            rows.append(
                f"{name:<10s} seed={seed} checks={report.checks_run} "
                f"received={report.totals['client_received']} "
                f"missed={report.totals['client_missed']} "
                f"dropped={report.totals['messages_dropped']} "
                f"fp={report.fingerprint[:12]}"
            )
    # Determinism: replay the standard mix at seed 0 and compare.
    replay = ChaosHarness(
        small_config(),
        standard_chaos_plan(DURATION),
        seed=SEEDS[0],
        load=LOAD,
        duration=DURATION,
    ).run()
    return rows, reports, replay


@pytest.mark.benchmark(group="chaos")
def test_chaos_soak(benchmark):
    rows, reports, replay = benchmark.pedantic(run_soak, rounds=1, iterations=1)

    for (name, seed), report in reports.items():
        # The monitor raising is the primary check; belt and braces:
        assert report.checks_run > DURATION / 2, (name, seed)
        # Blocks flowed throughout — the run did not quietly stall.
        assert report.totals["client_received"] > 1000, (name, seed)
        # Undelivered-block leak: every accounted block was received,
        # missed, or late — never silently lost from the ledger.
        totals = report.totals
        assert totals["client_corrupt"] == 0, (name, seed)
        # Fabric accounting identity: every send attempt is either
        # dropped or scheduled, duplicates add scheduled copies, and
        # whatever was scheduled but not delivered is still in flight.
        # Holds exactly even under duplicate-then-drop fault mixes.
        assert (
            totals["messages_sent"]
            - totals["messages_dropped"]
            + totals["messages_duplicated"]
            == totals["messages_scheduled"]
        ), (name, seed, totals)
        assert (
            totals["messages_scheduled"] - totals["messages_delivered"]
            == totals["messages_in_flight"]
        ), (name, seed, totals)
        assert totals["messages_in_flight"] >= 0, (name, seed, totals)

    first = reports[("standard", SEEDS[0])]
    assert replay.fingerprint == first.fingerprint, (
        "same (config, seed, plan, load, duration) must replay "
        "bit-identically"
    )
    distinct = {r.fingerprint for (n, s), r in reports.items() if n == "standard"}
    assert len(distinct) == len(SEEDS), "different seeds must diverge"

    write_result(
        "chaos_soak",
        [
            f"Chaos soak at {LOAD:.0%} load, {DURATION:g}s per run, "
            f"{len(MIXES)} fault mixes x {len(SEEDS)} seeds",
            "invariant monitor: 1 Hz sweeps, zero violations in all runs",
            "",
            *rows,
            "",
            f"replay check: standard/seed={SEEDS[0]} fingerprint "
            f"reproduced bit-identically ({first.fingerprint[:16]}...)",
        ],
    )
