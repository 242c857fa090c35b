"""Ablation: double vs single forwarding of viewer states (§4.1.1).

The paper chose to forward every viewer state to the successor AND the
second successor, paying 2x control traffic, because "under the single
forwarding model any time a cub failed the other cubs would have to go
back, figure out what schedule information had been lost and recreate
it.  Furthermore, between the failure and the detection, not only
would the data stored on the failed cub be lost, but so also would the
data from the subsequent cubs that never received the viewer states."

We run the same failure drill with forward_copies = 1 and 2 (our
single-forwarding cubs do NOT implement the recovery machinery the
paper deemed too hard — that is the point) and compare:

* client-visible block losses around the failure;
* viewers permanently starved (their chains died with the cub);
* per-cub control traffic (the price of the redundancy).
"""

from __future__ import annotations

import pytest

from repro import TigerSystem, paper_config
from repro.workloads import ContinuousWorkload

from conftest import write_result

STREAMS = 300


def run_drill(forward_copies: int):
    system = TigerSystem(paper_config(), seed=700, forward_copies=forward_copies)
    system.add_standard_content(num_files=32, duration_s=300)
    workload = ContinuousWorkload(system)
    for _ in range(5):
        workload.add_streams(STREAMS // 5)
        system.run_for(3.0)
    system.run_for(10.0)

    probe = system.cubs[9]
    system.network.control_bytes_from[probe.address].snapshot(system.sim.now)
    system.run_for(10.0)
    control_rate = system.network.control_bytes_from[probe.address].snapshot(
        system.sim.now
    )

    system.fail_cub(4)
    system.run_for(40.0)

    # A viewer is starved if it received nothing in the last window
    # although its play should still be running.
    starving = 0
    received_recently = 0
    checkpoint = {
        monitor.instance: monitor.blocks_received
        for client in system.clients
        for monitor in client.all_monitors()
        if not monitor.finished and not monitor.stopped
    }
    system.run_for(20.0)
    for client in system.clients:
        for monitor in client.all_monitors():
            if monitor.instance not in checkpoint:
                continue
            if monitor.blocks_received == checkpoint[monitor.instance]:
                starving += 1
            else:
                received_recently += 1
    system.finalize_clients()
    missed = system.total_client_missed()
    return control_rate, missed, starving, received_recently


@pytest.mark.benchmark(group="ablation")
def test_ablation_forwarding(benchmark):
    def run_both():
        return run_drill(1), run_drill(2)

    single, double = benchmark.pedantic(run_both, rounds=1, iterations=1)
    s_control, s_missed, s_starving, s_alive = single
    d_control, d_missed, d_starving, d_alive = double

    lines = [
        "Ablation — single vs double forwarding of viewer states (§4.1.1)",
        f"({STREAMS} streams; cub 4 failed mid-run)",
        f"{'policy':>8} {'ctrl B/s':>9} {'client losses':>14} "
        f"{'starved viewers':>16}",
        f"{'single':>8} {s_control:>9.0f} {s_missed:>14} {s_starving:>16}",
        f"{'double':>8} {d_control:>9.0f} {d_missed:>14} {d_starving:>16}",
        "",
        "paper shape: single forwarding halves control traffic but loses "
        "the schedule information in flight to the dead cub — viewers "
        "starve until someone recreates it; double forwarding confines "
        "losses to the detection window.",
    ]
    write_result("ablation_forwarding", lines)

    # The cost: double forwarding roughly doubles control traffic.
    assert 1.5 * s_control < d_control < 3.0 * s_control

    # The benefit: with double forwarding nobody starves after
    # takeover; with single forwarding the dead cub's in-flight chains
    # are simply gone.
    assert d_starving == 0
    assert s_starving > 10
    # And single forwarding loses more blocks around the failure.
    assert s_missed > d_missed
