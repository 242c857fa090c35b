"""Ablation: the admission guard §5 mentions and disabled.

"Tiger contains code to prevent schedule insertions beyond a certain
level, which we disabled for this test.  At very high schedule loads,
some insertions took about as long as the entire 56 s schedule ...
For that reason, we do not recommend running Tiger systems at greater
than 90% load."

We run the same overload offer with the guard disabled (the paper's
experiment) and enabled at 0.9 (the paper's recommendation), and show
the tradeoff: the guard trades admission (queued viewers) for bounded
startup latency.
"""

from __future__ import annotations

import pytest

from repro import TigerSystem, paper_config
from repro.sim.stats import percentile
from repro.workloads import ContinuousWorkload

from conftest import write_result

OFFERED = 602  # offer full capacity either way


def run_offered_overload(limit):
    config = paper_config(admission_load_limit=limit)
    system = TigerSystem(config, seed=909)
    system.add_standard_content(num_files=64, duration_s=420)
    workload = ContinuousWorkload(system)
    for _ in range(10):
        workload.add_streams(OFFERED // 10)
        system.run_for(4.0)
    system.run_for(60.0)
    latencies = workload.startup_latencies()
    admitted = system.oracle.num_occupied
    queued = sum(cub.owner.queued() for cub in system.cubs)
    return latencies, admitted, queued, system.oracle.load


@pytest.mark.benchmark(group="ablation")
def test_ablation_admission_guard(benchmark):
    def run_both():
        return run_offered_overload(None), run_offered_overload(0.9)

    unguarded, guarded = benchmark.pedantic(run_both, rounds=1, iterations=1)
    u_lat, u_admitted, u_queued, u_load = unguarded
    g_lat, g_admitted, g_queued, g_load = guarded

    def row(label, latencies, admitted, queued, load):
        p95 = percentile(latencies, 0.95)
        worst = max(latencies) if latencies else 0.0
        return (
            f"{label:>10} {admitted:>9} {load:>6.2f} {queued:>7} "
            f"{p95:>8.2f} {worst:>8.2f}"
        )

    lines = [
        "Ablation — §5's admission guard, offered the full 602 streams",
        f"{'policy':>10} {'admitted':>9} {'load':>6} {'queued':>7} "
        f"{'p95 lat':>8} {'max lat':>8}",
        row("disabled", u_lat, u_admitted, u_queued, u_load),
        row("limit=0.9", g_lat, g_admitted, g_queued, g_load),
        "",
        "paper: with the guard disabled, near-100% insertions can wait "
        "~the whole 56 s schedule; the guard caps load (and delay) at "
        "the recommended 90%",
    ]
    write_result("ablation_admission", lines)

    # Unguarded admits (nearly) everything, including the painful tail.
    assert u_admitted >= 0.95 * OFFERED
    assert max(u_lat) > 10.0

    # Guarded: load capped near the limit, excess queued, and the
    # admitted viewers' startup latencies stay modest.
    assert g_load < 0.97
    assert g_queued > 0
    assert percentile(g_lat, 0.95) < percentile(u_lat, 0.95)