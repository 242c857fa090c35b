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

Entries are kept in one map per file, keyed by an int — the block for a
primary, the block and piece (:data:`PIECE_BITS`) for a secondary — so
the index holds no key tuple per entry and a lookup builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.disk.zones import ZONE_INNER, ZONE_OUTER

#: Size of one index entry, per the paper.
INDEX_ENTRY_BYTES = 8
#: Bits of a secondary entry's key below its block: the piece.
PIECE_BITS = 8


@dataclass(frozen=True, slots=True)
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
        #: file -> block -> location.
        self._primary: Dict[int, Dict[int, BlockLocation]] = {}
        #: file -> (block << PIECE_BITS | piece) -> location.
        self._secondary: Dict[int, Dict[int, BlockLocation]] = {}
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
        blocks = self._primary.setdefault(file_id, {})
        if block_index in blocks:
            raise ValueError(
                f"duplicate primary entry for {(file_id, block_index)}"
            )
        offset = self._disk_used_primary.get(disk_id, 0)
        location = BlockLocation(disk_id, ZONE_OUTER, offset, size_bytes)
        blocks[block_index] = location
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
        if not 0 <= piece < 1 << PIECE_BITS:
            raise ValueError(f"piece {piece} outside [0, {1 << PIECE_BITS})")
        pieces = self._secondary.setdefault(file_id, {})
        key = block_index << PIECE_BITS | piece
        if key in pieces:
            raise ValueError(
                f"duplicate secondary entry for {(file_id, block_index, piece)}"
            )
        offset = self._disk_used_secondary.get(disk_id, 0)
        location = BlockLocation(disk_id, ZONE_INNER, offset, size_bytes)
        pieces[key] = location
        self._disk_used_secondary[disk_id] = offset + size_bytes
        return location

    # ------------------------------------------------------------------
    # Lookup (hot path, no disk I/O by design)
    # ------------------------------------------------------------------
    def lookup_primary(self, file_id: int, block_index: int) -> Optional[BlockLocation]:
        blocks = self._primary.get(file_id)
        return None if blocks is None else blocks.get(block_index)

    def locate(
        self, file_id: int, block_index: int, disks: Dict[int, Any]
    ) -> Optional[BlockLocation]:
        """Where a scheduled read of a primary block goes: its committed
        migration while ``disks`` (this cub's drives, by id) has the
        disk it moved to up, else the original copy."""
        if self.migrations:
            moved = self.migrations.get((file_id, block_index))
            if moved is not None:
                disk = disks.get(moved.disk_id)
                if disk is not None and not disk.failed:
                    return moved
        blocks = self._primary.get(file_id)
        return None if blocks is None else blocks.get(block_index)

    def lookup_secondary(
        self, file_id: int, block_index: int, piece: int
    ) -> Optional[BlockLocation]:
        pieces = self._secondary.get(file_id)
        if pieces is None:
            return None
        return pieces.get(block_index << PIECE_BITS | piece)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def num_primary_entries(self) -> int:
        return sum(map(len, self._primary.values()))

    @property
    def num_secondary_entries(self) -> int:
        return sum(map(len, self._secondary.values()))

    def memory_bytes(self) -> int:
        """Modelled RAM footprint at 64 bits per entry (paper §4.1.1)."""
        return (
            self.num_primary_entries + self.num_secondary_entries
        ) * INDEX_ENTRY_BYTES

    def primary_bytes_on_disk(self, disk_id: int) -> int:
        return self._disk_used_primary.get(disk_id, 0)

    def secondary_bytes_on_disk(self, disk_id: int) -> int:
        return self._disk_used_secondary.get(disk_id, 0)
