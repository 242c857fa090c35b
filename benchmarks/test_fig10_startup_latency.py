"""Figure 10: stream startup latency vs schedule load.

The paper plots 4050 stream starts against the schedule load at start
time.  Shape claims reproduced here:

* below ~50% load every start clusters around a ~1.8 s floor — one
  block play time of transmission plus network latency and scheduling
  lead (which covers the first disk read);
* "Even at schedule loads of 95%, the mean time to start a viewer is
  less than 5 seconds";
* "there are a reasonable number of outliers that took over 20
  seconds ... some insertions took about as long as the entire 56 s
  schedule" near 100% load — the wait for a free slot to come around
  under the one disk holding the viewer's first block.
"""

from __future__ import annotations

import pytest

from repro import TigerSystem, paper_config
from repro.obs.registry import percentile
from repro.workloads import ContinuousWorkload, StartupLatencyProbe

from conftest import write_result


def run_startup_sweep():
    system = TigerSystem(paper_config(), seed=303)
    system.add_standard_content(num_files=64, duration_s=420)
    workload = ContinuousWorkload(system)
    probe = StartupLatencyProbe(system, workload, probe_timeout=90.0)
    result = probe.run_ramp(step=30, target=602, settle=6.0)
    system.finalize_clients()
    return system, result


@pytest.mark.benchmark(group="fig10")
def test_fig10_startup_latency(benchmark):
    system, result = benchmark.pedantic(run_startup_sweep, rounds=1, iterations=1)

    bands = [(0.0, 0.5), (0.5, 0.8), (0.8, 0.9), (0.9, 0.95), (0.95, 1.01)]
    lines = [
        "Figure 10 — stream startup latency vs schedule load "
        f"({len(result.samples)} starts)",
        f"{'load band':>12} {'n':>5} {'mean':>7} {'p95':>7} {'max':>7}",
    ]
    band_stats = {}
    for low, high in bands:
        latencies = [
            sample.latency
            for sample in result.samples
            if low <= sample.schedule_load < high
        ]
        if not latencies:
            band_stats[(low, high)] = None
            lines.append(f"{f'{low:.2f}-{high:.2f}':>12} {0:>5}")
            continue
        mean = sum(latencies) / len(latencies)
        band_stats[(low, high)] = {
            "n": len(latencies),
            "mean": mean,
            "p95": percentile(latencies, 0.95),
            "max": max(latencies),
        }
        lines.append(
            f"{f'{low:.2f}-{high:.2f}':>12} {len(latencies):>5} "
            f"{mean:>7.2f} {band_stats[(low, high)]['p95']:>7.2f} "
            f"{max(latencies):>7.2f}"
        )
    lines.append("")
    lines.append("paper shape: ~1.8 s floor at low load; mean < 5 s at 95% "
                 "load; >20 s outliers near 100%; worst case ~ one 56 s "
                 "schedule revolution")
    write_result("fig10_startup_latency", lines)

    assert len(result.samples) > 500

    # The low-load floor: around one block play time + leads.
    low_band = band_stats[(0.0, 0.5)]
    assert low_band is not None
    assert 1.0 < low_band["mean"] < 3.0
    floor = min(sample.latency for sample in result.samples)
    assert floor > system.config.block_play_time

    # Mean under 5 s even at 90-95% load.
    high_band = band_stats[(0.9, 0.95)]
    if high_band is not None:
        assert high_band["mean"] < 5.0

    # Outliers appear near full load; the worst is bounded by roughly
    # one full schedule revolution (56 s) plus the floor.
    top = [
        sample.latency
        for sample in result.samples
        if sample.schedule_load >= 0.9
    ]
    assert top, "no starts observed at high load"
    assert max(top) > 10.0, "expected long-wait outliers near full load"
    assert max(sample.latency for sample in result.samples) < (
        system.config.schedule_duration + 10.0
    )

    # Latency grows with load: the top band's mean dominates the floor.
    busiest = band_stats[(0.95, 1.01)] or band_stats[(0.9, 0.95)]
    assert busiest["mean"] > low_band["mean"]
