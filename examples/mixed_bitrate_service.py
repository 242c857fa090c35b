#!/usr/bin/env python
"""Serving a mixed-bitrate catalog (§3.2, completed as an extension).

The 1997 Tiger shipped single-bitrate; the paper designed — but never
finished — the multiple-bitrate system.  This example runs our
completion of it: joint disk+network admission over a 2-D network
schedule, the earliest-deadline-first feasibility that admission
guarantees ("entries in the disk schedule are free to move around, as
long as they're completed before they're due at the network"), and the
bottleneck flip the paper predicts.

Run:  python examples/mixed_bitrate_service.py
"""

import _bootstrap  # noqa: F401  (path shim; keep before repro imports)

from repro.disk.model import DiskParameters
from repro.disk.zones import ZONE_OUTER
from repro.mbr import MbrAdmission, periodic_stream_feasible, run_mix_experiment


def admission_walkthrough() -> None:
    print("=== Joint admission on one cub (4 disks, 100 Mbit NIC) ===")
    admission = MbrAdmission(
        disk_params=DiskParameters(),
        num_disks=4,
        nic_bps=100e6,
        block_play_time=1.0,
        schedule_length=1.0,
        start_quantum=0.25,
        disk_headroom=0.95,
    )
    catalog = [
        ("audiobook", 0.25e6), ("newscast", 1e6), ("movie", 2e6),
        ("sports-hd", 4e6), ("premiere-uhd", 8e6),
    ]
    count = 0
    while True:
        name, rate = catalog[count % len(catalog)]
        stream = admission.try_admit(f"{name}-{count}", rate)
        if stream is None:
            break
        count += 1
    summary = admission.summary()
    print(f"  admitted {count} mixed-rate streams before "
          f"{admission.limiting_resource()} bound")
    print(f"  disk budget used {summary['disk_utilization']:.0%}, "
          f"NIC plane used {summary['network_utilization']:.0%}")

    # Striping rotates every stream over the 4 drives, so over one
    # rotation each drive reads one block of every admitted stream.
    blocks = [stream.block_bytes for stream in admission.streams.values()]
    fits = periodic_stream_feasible(
        admission.disk_params, blocks, ZONE_OUTER,
        admission.num_disks * admission.block_play_time,
    )
    print(f"  each drive meets every deadline over a rotation: {fits}\n")


def crossover_table() -> None:
    print("=== §3.2: the limiting resource depends on the playing mix ===")
    print(f"  {'bitrate':>9} {'streams':>8} {'disk':>6} {'net':>6} {'limit':>8}")
    for rate in (0.25e6, 0.5e6, 1e6, 2e6, 4e6, 8e6):
        row = run_mix_experiment([rate], nic_bps=100e6)
        print(f"  {rate/1e6:>7.2f}M {row['streams']:>8.0f} "
              f"{row['disk_utilization']:>6.2f} "
              f"{row['network_utilization']:>6.2f} {row['limiting']:>8}")
    print("  (small blocks pay the same seek for less data -> disk-bound;\n"
          "   large blocks saturate the NIC first -> network-bound)")


if __name__ == "__main__":
    admission_walkthrough()
    crossover_table()
