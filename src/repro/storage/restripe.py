"""Re-striping: migrating content between system configurations (§2.2).

Adding or removing cubs/disks changes every file's layout, so Tiger
ships software to move blocks from the old placement to the new one.
The key scalability claim — which the T-restripe benchmark reproduces —
is that *restripe time does not depend on system size*: every cub
streams roughly its own disks' worth of data in and out regardless of
how many peers exist, because the switched network's aggregate
bandwidth grows with the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.storage.catalog import TigerFile
from repro.storage.layout import StripeLayout


@dataclass(frozen=True)
class BlockMove:
    """One block relocation in a restripe plan."""

    file_id: int
    block_index: int
    src_disk: int
    dst_disk: int
    size_bytes: int


@dataclass
class RestripePlan:
    """All moves required to go from one layout to another."""

    old_layout: StripeLayout
    new_layout: StripeLayout
    moves: List[BlockMove] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return sum(move.size_bytes for move in self.moves)

    def bytes_out_of_disk(self) -> Dict[int, int]:
        """Bytes each old disk must read and ship."""
        out: Dict[int, int] = {}
        for move in self.moves:
            out[move.src_disk] = out.get(move.src_disk, 0) + move.size_bytes
        return out

    def bytes_into_disk(self) -> Dict[int, int]:
        """Bytes each new disk must receive and write."""
        into: Dict[int, int] = {}
        for move in self.moves:
            into[move.dst_disk] = into.get(move.dst_disk, 0) + move.size_bytes
        return into

    def bytes_out_of_cub(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for move in self.moves:
            cub = self.old_layout.cub_of_disk(move.src_disk)
            out[cub] = out.get(cub, 0) + move.size_bytes
        return out

    def bytes_into_cub(self) -> Dict[int, int]:
        """Bytes each *destination* cub's NIC must receive.

        Destinations live in the new layout, so cub membership is
        resolved there — a disk id can map to a different cub once the
        geometry changes.
        """
        into: Dict[int, int] = {}
        for move in self.moves:
            cub = self.new_layout.cub_of_disk(move.dst_disk)
            into[cub] = into.get(cub, 0) + move.size_bytes
        return into


def plan_restripe(
    old_layout: StripeLayout,
    new_layout: StripeLayout,
    files: Sequence[TigerFile],
    block_bytes_for: Dict[int, int],
    new_start_disks: Optional[Dict[int, int]] = None,
) -> RestripePlan:
    """Compute the block moves for a configuration change.

    ``block_bytes_for`` maps file_id -> stored block size.  Files keep
    their start disk when it exists in the new layout (capped by
    ``new_layout.num_disks``); ``new_start_disks`` overrides per file
    and must name disks that exist in the new layout.  A block's new
    disk is the new layout's capacity-aware placement (plain striping
    when it has no weights).  Blocks already on the right disk do not
    move.
    """
    plan = RestripePlan(old_layout, new_layout)
    overrides = new_start_disks or {}
    for file_id, disk in overrides.items():
        if not 0 <= disk < new_layout.num_disks:
            raise ValueError(
                f"start-disk override for file {file_id} names disk "
                f"{disk}, outside the new layout [0, {new_layout.num_disks})"
            )
    for entry in files:
        size = block_bytes_for[entry.file_id]
        new_start = overrides.get(
            entry.file_id, entry.start_disk % new_layout.num_disks
        )
        for block in range(entry.num_blocks):
            src = old_layout.disk_of_block(entry.start_disk, block)
            dst = new_layout.placement_disk_of_block(new_start, block)
            if src != dst:
                plan.moves.append(
                    BlockMove(entry.file_id, block, src, dst, size)
                )
    return plan


def estimate_restripe_time(
    plan: RestripePlan,
    disk_read_rate: float,
    disk_write_rate: float,
    cub_network_rate: float,
) -> float:
    """Wall-clock restripe estimate: the slowest single resource.

    Each disk reads its outgoing bytes and writes its incoming bytes;
    each cub ships its outgoing bytes *and* receives its incoming
    bytes through its NIC.  All resources work in parallel, so the
    restripe finishes when the most loaded one does — which is a
    per-cub/per-disk quantity, independent of the number of peers
    (§2.2's scalability claim).  Charging only the source NICs would
    under-estimate whenever a few cubs receive most of the bytes
    (e.g. a capacity-weighted rebalance toward new disks).
    """
    if min(disk_read_rate, disk_write_rate, cub_network_rate) <= 0:
        raise ValueError("rates must be positive")
    read_times = [
        total / disk_read_rate for total in plan.bytes_out_of_disk().values()
    ]
    write_times = [
        total / disk_write_rate for total in plan.bytes_into_disk().values()
    ]
    net_times = [
        total / cub_network_rate for total in plan.bytes_out_of_cub().values()
    ]
    net_in_times = [
        total / cub_network_rate for total in plan.bytes_into_cub().values()
    ]
    candidates = read_times + write_times + net_times + net_in_times
    return max(candidates) if candidates else 0.0
