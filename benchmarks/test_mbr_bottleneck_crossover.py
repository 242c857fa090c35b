"""§3.2's bottleneck claim, made quantitative (extension).

"The time to read a block from a disk includes a constant seek
overhead, while the time to send one to the network does not, so small
blocks use proportionally more disk than network.  Consequently, in a
multiple bitrate Tiger system whether the network or disk limits
performance may depend on the current set of playing files.  Different
parts of the same schedule may have different limiting factors."

We admit uniform-rate mixes to saturation across a sweep of bitrates
and record which resource binds, plus a mixed-rate row showing both
resources loaded at once.  A second sweep with the paper's own NIC
(OC-3, 155 Mbit/s vs 4 x ~42 Mbit/s disks) confirms §5's observation
that *that* configuration is always disk-limited.

Every admitted set must also meet its deadlines.  Striping rotates each
stream over the cub's drives, so over one rotation (``num_disks`` block
play times) each drive reads one block per admitted stream: that is
:func:`periodic_stream_feasible` with period ``num_disks x
block_play_time``, the argument the admission's pooled disk budget
rests on.  It holds for all eight mixes.  Revolution by revolution it
does not: in the 0.5M+8M mix the 8 Mbit streams are every other offer,
so when stream i reads from drive (i + revolution) mod 4, two drives
each draw six 1 MB reads — 1.23 s of expected service — in a 1 s
revolution.  A server that reads a full revolution ahead of the network
(as the simulator this row was once measured on did, with no misses)
carries the surplus into the next revolution; one that reads only
within the revolution would miss.
"""

from __future__ import annotations

import pytest

from repro.disk.model import DiskParameters
from repro.disk.zones import ZONE_OUTER
from repro.mbr.admission import periodic_stream_feasible, run_mix_experiment

from conftest import write_result

#: A NIC small enough relative to 4 drives that large blocks flip the
#: bottleneck (see the benchmark docstring).
CROSSOVER_NIC = 100e6
RATES = [0.25e6, 0.5e6, 1e6, 2e6, 4e6, 8e6]
MIXED = [0.5e6, 8e6]
PAPER_MIX = [2e6]
NUM_DISKS = 4
BLOCK_PLAY_TIME = 1.0


def run_sweep():
    by_rate = {
        rate: run_mix_experiment([rate], nic_bps=CROSSOVER_NIC)
        for rate in RATES
    }
    mixed = run_mix_experiment(MIXED, nic_bps=CROSSOVER_NIC)
    paper_nic = run_mix_experiment(PAPER_MIX, nic_bps=155e6)
    return by_rate, mixed, paper_nic


def rotation_feasible(rates, row):
    """One drive, one full rotation: a block of every admitted stream.

    The admitted set is the first ``streams`` offers, made round-robin
    over ``rates``; each block holds one block play time of its rate.
    """
    blocks = [
        int(round(rates[index % len(rates)] * BLOCK_PLAY_TIME / 8.0))
        for index in range(int(row["streams"]))
    ]
    return periodic_stream_feasible(
        DiskParameters(), blocks, ZONE_OUTER, NUM_DISKS * BLOCK_PLAY_TIME
    )


@pytest.mark.benchmark(group="mbr")
def test_mbr_bottleneck_crossover(benchmark):
    by_rate, mixed, paper_nic = benchmark.pedantic(
        run_sweep, rounds=1, iterations=1
    )

    lines = [
        "§3.2 — which resource limits a multiple-bitrate cub "
        f"(4 disks, {CROSSOVER_NIC/1e6:.0f} Mbit NIC)",
        f"{'bitrate':>9} {'streams':>8} {'disk util':>10} {'net util':>9} "
        f"{'limiting':>9}",
    ]
    for rate, row in by_rate.items():
        lines.append(
            f"{rate/1e6:>7.2f}M {row['streams']:>8.0f} "
            f"{row['disk_utilization']:>10.2f} "
            f"{row['network_utilization']:>9.2f} {row['limiting']:>9}"
        )
    lines.append("")
    lines.append(
        f"mixed 0.5M+8M rates: disk {mixed['disk_utilization']:.2f}, "
        f"net {mixed['network_utilization']:.2f} — both loaded at once"
    )
    lines.append(
        f"paper's own NIC (155 Mbit): disk util "
        f"{paper_nic['disk_utilization']:.2f} vs net "
        f"{paper_nic['network_utilization']:.2f} -> disk-limited, "
        f"matching §5 ('the disks are the limiting factor')"
    )
    write_result("mbr_bottleneck_crossover", lines)

    # Small blocks: seek-dominated, disk binds.
    assert by_rate[0.25e6]["limiting"] == "disk"
    assert by_rate[0.5e6]["limiting"] == "disk"
    # Large blocks: the NIC binds.
    assert by_rate[4e6]["limiting"] == "network"
    assert by_rate[8e6]["limiting"] == "network"
    # There IS a crossover (monotone flip somewhere in between).
    flips = sum(
        1
        for earlier, later in zip(RATES, RATES[1:])
        if by_rate[earlier]["limiting"] != by_rate[later]["limiting"]
    )
    assert flips == 1, "expected exactly one disk->network crossover"

    # Every admitted mix fits each drive over one rotation.
    mixes = [([rate], row) for rate, row in by_rate.items()]
    for rates, row in [*mixes, (MIXED, mixed), (PAPER_MIX, paper_nic)]:
        assert rotation_feasible(rates, row), rates

    # Streams admitted fall as the per-stream footprint grows.
    streams = [row["streams"] for row in by_rate.values()]
    assert streams == sorted(streams, reverse=True)

    # The paper's own configuration is disk-limited.
    assert paper_nic["disk_utilization"] > paper_nic["network_utilization"]
