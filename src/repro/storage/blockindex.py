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

Where a block lives is a pure function of its file's start disk
(§2.2, §2.3), so the entries are kept once per file, not once per cub:
a :class:`PlacementTable` holds one :class:`FilePlacement` per file —
the primary location of each block, a flat list of pieces indexed by
``block * decluster + piece``, and the packed ``array('q')`` of byte
offsets that is the paper's 64-bit entry — and every cub's
:class:`BlockIndex` reads it.  The lists hold interned
:class:`BlockLocation` records, one per distinct (disk, zone, size), so
an entry is two list slots and one offset, not an object.  A cub's
index answers only for its own disks: a lookup of a block another cub
holds is ``None``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.disk.zones import ZONE_INNER, ZONE_OUTER
from repro.storage.mirror import MirrorScheme

#: Size of one index entry, per the paper.
INDEX_ENTRY_BYTES = 8


@dataclass(frozen=True, slots=True)
class BlockLocation:
    """Where one block (or piece) lives on a cub."""

    disk_id: int
    zone: str
    size_bytes: int


@dataclass(frozen=True, slots=True)
class FilePlacement:
    """Where every block and every piece of one file lives."""

    #: The primary location of each block.
    primary: List[BlockLocation]
    #: Piece ``p`` of block ``b`` at ``b * decluster + p``.
    pieces: List[BlockLocation]
    #: Each entry's byte offset on its disk: the primaries by block,
    #: then the pieces in the order of :attr:`pieces`.
    offsets: array


def _rounds(first: List[int], step: int, count: int) -> List[int]:
    """``count`` values running through ``first`` round after round,
    each round ``step`` higher than the last."""
    rounds = -(-count // len(first))
    values = [value + turn * step for turn in range(rounds) for value in first]
    return values[:count]


class PlacementTable:
    """Every file's placement, built once per world and read by every
    cub's :class:`BlockIndex`."""

    def __init__(self, mirror: MirrorScheme) -> None:
        self.layout = mirror.layout
        self.decluster = mirror.decluster
        self.files: Dict[int, FilePlacement] = {}
        num_disks = self.layout.num_disks
        #: Per disk: bytes and entries of the primary (outer) region,
        #: then of the secondary (inner) region.
        self.primary_bytes = [0] * num_disks
        self.primary_entries = [0] * num_disks
        self.secondary_bytes = [0] * num_disks
        self.secondary_entries = [0] * num_disks
        self._interned: Dict[Tuple[int, str, int], BlockLocation] = {}

    def _locations(self, zone: str, size_bytes: int) -> List[BlockLocation]:
        """The one record per disk for entries of ``size_bytes`` in ``zone``."""
        records = []
        for disk_id in range(self.layout.num_disks):
            key = (disk_id, zone, size_bytes)
            record = self._interned.get(key)
            if record is None:
                record = self._interned[key] = BlockLocation(*key)
            records.append(record)
        return records

    def add_file(
        self,
        file_id: int,
        start_disk: int,
        num_blocks: int,
        block_bytes: int,
        piece_bytes: int,
    ) -> FilePlacement:
        """Place a file's blocks and their pieces after what each disk
        already holds.

        Block ``b``'s primary is on disk ``(start_disk + b) % num_disks``
        (:meth:`StripeLayout.disk_of_block`) and its piece ``p`` on the
        ``1 + p``-th disk after it (:meth:`MirrorScheme.piece_location`),
        so the first ``num_disks`` blocks are worked out one by one and
        every later round repeats them: a disk gains one primary and
        ``decluster`` pieces per round.
        """
        if file_id in self.files:
            raise ValueError(f"file {file_id} is already placed")
        num_disks, decluster = self.layout.num_disks, self.decluster
        period = min(num_blocks, num_disks)
        # How many of the file's blocks share each first-round block's disk.
        column = [-(-(num_blocks - block) // num_disks) for block in range(period)]

        primary_disks = [(start_disk + block) % num_disks for block in range(period)]
        primary_offsets = [self.primary_bytes[disk] for disk in primary_disks]
        for disk, blocks in zip(primary_disks, column):
            self.primary_bytes[disk] += blocks * block_bytes
            self.primary_entries[disk] += blocks

        piece_disks: List[int] = []
        piece_offsets: List[int] = []
        used, entries = self.secondary_bytes, self.secondary_entries
        for disk in primary_disks:
            for hop in range(1, decluster + 1):
                piece_disk = (disk + hop) % num_disks
                piece_disks.append(piece_disk)
                piece_offsets.append(used[piece_disk])
                used[piece_disk] += piece_bytes
        # Every later round's pieces come after all of the first round's.
        for position, piece_disk in enumerate(piece_disks):
            blocks = column[position // decluster]
            used[piece_disk] += (blocks - 1) * piece_bytes
            entries[piece_disk] += blocks

        rounds = -(-num_blocks // num_disks)
        num_pieces = num_blocks * decluster
        offsets = array("q", _rounds(primary_offsets, block_bytes, num_blocks))
        offsets.extend(
            _rounds(piece_offsets, decluster * piece_bytes, num_pieces)
        )
        outer = self._locations(ZONE_OUTER, block_bytes)
        inner = self._locations(ZONE_INNER, piece_bytes)
        placement = FilePlacement(
            primary=([outer[disk] for disk in primary_disks] * rounds)[:num_blocks],
            pieces=([inner[disk] for disk in piece_disks] * rounds)[:num_pieces],
            offsets=offsets,
        )
        self.files[file_id] = placement
        return placement


class BlockIndex:
    """The in-memory metadata of one cub's disks: its share of the
    :class:`PlacementTable`, and its committed migrations."""

    def __init__(self, table: PlacementTable, cub_id: int) -> None:
        self.cub_id = cub_id
        self._table = table
        self._files = table.files
        self._decluster = table.decluster
        self._disks = frozenset(table.layout.disks_of_cub(cub_id))
        #: Committed migrations: (file, block) -> new location.
        self.migrations: Dict[Tuple[int, int], BlockLocation] = {}

    # ------------------------------------------------------------------
    # Lookup (hot path, no disk I/O by design)
    # ------------------------------------------------------------------
    def lookup_primary(self, file_id: int, block_index: int) -> Optional[BlockLocation]:
        placement = self._files.get(file_id)
        if placement is None or not 0 <= block_index < len(placement.primary):
            return None
        location = placement.primary[block_index]
        return location if location.disk_id in self._disks else None

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
        placement = self._files.get(file_id)
        if placement is None or not 0 <= block_index < len(placement.primary):
            return None
        location = placement.primary[block_index]
        return location if location.disk_id in self._disks else None

    def lookup_secondary(
        self, file_id: int, block_index: int, piece: int
    ) -> Optional[BlockLocation]:
        placement = self._files.get(file_id)
        decluster = self._decluster
        if (
            placement is None
            or not 0 <= piece < decluster
            or not 0 <= block_index < len(placement.primary)
        ):
            return None
        location = placement.pieces[block_index * decluster + piece]
        return location if location.disk_id in self._disks else None

    def offset_bytes(
        self, file_id: int, block_index: int, piece: Optional[int] = None
    ) -> Optional[int]:
        """Byte offset on its disk of a primary block (``piece`` None) or
        of one of its pieces — the paper's 64-bit entry; ``None`` where
        the lookup is."""
        if piece is None:
            if self.lookup_primary(file_id, block_index) is None:
                return None
            return self._files[file_id].offsets[block_index]
        if self.lookup_secondary(file_id, block_index, piece) is None:
            return None
        placement = self._files[file_id]
        return placement.offsets[
            len(placement.primary) + block_index * self._decluster + piece
        ]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def num_primary_entries(self) -> int:
        entries = self._table.primary_entries
        return sum(entries[disk] for disk in self._disks)

    @property
    def num_secondary_entries(self) -> int:
        entries = self._table.secondary_entries
        return sum(entries[disk] for disk in self._disks)

    def memory_bytes(self) -> int:
        """Modelled RAM footprint at 64 bits per entry (paper §4.1.1)."""
        return (
            self.num_primary_entries + self.num_secondary_entries
        ) * INDEX_ENTRY_BYTES

    def primary_bytes_on_disk(self, disk_id: int) -> int:
        if disk_id not in self._disks:
            return 0
        return self._table.primary_bytes[disk_id]

    def secondary_bytes_on_disk(self, disk_id: int) -> int:
        if disk_id not in self._disks:
            return 0
        return self._table.secondary_bytes[disk_id]
