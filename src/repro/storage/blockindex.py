"""Per-cub in-memory block index (paper §4.1.1).

A schedule entry tells a cub to send "block *b* of file *f*" — not
where that block lives on its disks.  Each cub therefore keeps an
in-memory index of the primary region of its disks, keyed by (file,
block), with 64-bit entries.  The paper keeps this in RAM rather than
on disk because blocks are large (little metadata), a metadata seek is
unacceptably expensive, and a metadata read would serialize in front
of the block read.

We also index the secondary (mirror) pieces a cub hosts, which the
mirror-coverage path uses when a neighbour dies, and an online
restripe's committed migrations, which never replace a primary entry
(dual presence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.disk.zones import ZONE_INNER, ZONE_OUTER

#: Size of one index entry, per the paper.
INDEX_ENTRY_BYTES = 8


@dataclass(frozen=True)
class BlockLocation:
    """Where one block (or piece) lives on a cub."""

    disk_id: int
    zone: str
    offset_bytes: int
    size_bytes: int


class BlockIndex:
    """The in-memory metadata of one cub's disks."""

    def __init__(self, cub_id: int) -> None:
        self.cub_id = cub_id
        self._primary: Dict[Tuple[int, int], BlockLocation] = {}
        self._secondary: Dict[Tuple[int, int, int], BlockLocation] = {}
        self._disk_used_primary: Dict[int, int] = {}
        self._disk_used_secondary: Dict[int, int] = {}
        #: Committed migrations: (file, block) -> new location.
        self.migrations: Dict[Tuple[int, int], BlockLocation] = {}

    # ------------------------------------------------------------------
    # Population (done at file-creation / restripe time)
    # ------------------------------------------------------------------
    def add_primary(
        self, file_id: int, block_index: int, disk_id: int, size_bytes: int
    ) -> BlockLocation:
        """Record a primary block; primaries occupy the fast outer zone."""
        key = (file_id, block_index)
        if key in self._primary:
            raise ValueError(f"duplicate primary entry for {key}")
        offset = self._disk_used_primary.get(disk_id, 0)
        location = BlockLocation(disk_id, ZONE_OUTER, offset, size_bytes)
        self._primary[key] = location
        self._disk_used_primary[disk_id] = offset + size_bytes
        return location

    def add_secondary(
        self,
        file_id: int,
        block_index: int,
        piece: int,
        disk_id: int,
        size_bytes: int,
    ) -> BlockLocation:
        """Record a mirror piece; secondaries occupy the slow inner zone."""
        key = (file_id, block_index, piece)
        if key in self._secondary:
            raise ValueError(f"duplicate secondary entry for {key}")
        offset = self._disk_used_secondary.get(disk_id, 0)
        location = BlockLocation(disk_id, ZONE_INNER, offset, size_bytes)
        self._secondary[key] = location
        self._disk_used_secondary[disk_id] = offset + size_bytes
        return location

    # ------------------------------------------------------------------
    # Lookup (hot path, no disk I/O by design)
    # ------------------------------------------------------------------
    def lookup_primary(self, file_id: int, block_index: int) -> Optional[BlockLocation]:
        return self._primary.get((file_id, block_index))

    def locate(
        self, file_id: int, block_index: int, disks: Dict[int, Any]
    ) -> Optional[BlockLocation]:
        """Where a scheduled read of a primary block goes: its committed
        migration while ``disks`` (this cub's drives, by id) has the
        disk it moved to up, else the original copy."""
        key = (file_id, block_index)
        if self.migrations:
            moved = self.migrations.get(key)
            if moved is not None:
                disk = disks.get(moved.disk_id)
                if disk is not None and not disk.failed:
                    return moved
        return self._primary.get(key)

    def lookup_secondary(
        self, file_id: int, block_index: int, piece: int
    ) -> Optional[BlockLocation]:
        return self._secondary.get((file_id, block_index, piece))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def num_primary_entries(self) -> int:
        return len(self._primary)

    @property
    def num_secondary_entries(self) -> int:
        return len(self._secondary)

    def memory_bytes(self) -> int:
        """Modelled RAM footprint at 64 bits per entry (paper §4.1.1)."""
        return (len(self._primary) + len(self._secondary)) * INDEX_ENTRY_BYTES

    def primary_bytes_on_disk(self, disk_id: int) -> int:
        return self._disk_used_primary.get(disk_id, 0)

    def secondary_bytes_on_disk(self, disk_id: int) -> int:
        return self._disk_used_secondary.get(disk_id, 0)
