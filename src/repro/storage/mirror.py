"""Declustered mirroring (paper §2.3).

Every primary block stored on disk ``p`` has its secondary copy split
into ``decluster`` pieces spread over the ``decluster`` disks
immediately following ``p`` in stripe order: piece ``k`` lives on disk
``p + 1 + k``.  Because disks are numbered cub-minor, those disks are
on the cubs following ``p``'s cub around the ring, so a failed cub's
work is shared by its ``decluster`` successors.

Primaries occupy the fast outer half of each disk; secondaries the
slow inner half (see :mod:`repro.disk.zones`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

from repro.storage.layout import StripeLayout


@dataclass(frozen=True)
class MirrorScheme:
    """Placement arithmetic for declustered secondaries."""

    layout: StripeLayout
    decluster: int

    def __post_init__(self) -> None:
        if self.decluster < 1:
            raise ValueError("decluster factor must be >= 1")
        if self.decluster >= self.layout.num_disks:
            raise ValueError(
                "decluster factor must be smaller than the number of disks"
            )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def secondary_disks(self, primary_disk: int) -> Tuple[int, ...]:
        """Disks holding the pieces of ``primary_disk``'s secondaries.

        Piece ``k`` of every block on ``primary_disk`` is at index ``k``
        of the returned tuple.
        """
        return tuple(
            self.layout.next_disk(primary_disk, 1 + piece)
            for piece in range(self.decluster)
        )

    def piece_location(self, primary_disk: int, piece: int) -> int:
        """Disk holding one specific secondary piece."""
        if not 0 <= piece < self.decluster:
            raise ValueError(f"piece {piece} out of range [0, {self.decluster})")
        return self.layout.next_disk(primary_disk, 1 + piece)

    def primaries_mirrored_on(self, disk_id: int) -> Tuple[Tuple[int, int], ...]:
        """(primary_disk, piece) pairs whose secondary data is on ``disk_id``."""
        return tuple(
            (self.layout.next_disk(disk_id, -(1 + piece)), piece)
            for piece in range(self.decluster)
        )

    def covering_cubs(self, failed_cub: int) -> Tuple[int, ...]:
        """Cubs that take on mirror reads when ``failed_cub`` dies.

        With cub-minor numbering the ``decluster`` disks following any
        disk of the failed cub sit on the next ``min(decluster,
        num_cubs-1)`` cubs around the ring.
        """
        hops = min(self.decluster, self.layout.num_cubs - 1)
        return tuple(
            self.layout.next_cub(failed_cub, 1 + step) for step in range(hops)
        )

    def piece_size(self, block_bytes: int) -> int:
        """Bytes in one secondary piece of a ``block_bytes`` block."""
        if block_bytes <= 0:
            raise ValueError("block size must be positive")
        return -(-block_bytes // self.decluster)  # ceil division

    # ------------------------------------------------------------------
    # Capacity accounting (§2.3 tradeoff)
    # ------------------------------------------------------------------
    def bandwidth_reserved_fraction(self) -> float:
        """Fraction of disk/network bandwidth reserved for failed mode.

        "With a decluster factor of 4, only a fifth of total disk and
        network bandwidth needs to be reserved ... a decluster factor of
        2 consumes a third of system bandwidth."
        """
        return 1.0 / (self.decluster + 1)

    def second_failure_vulnerable_cubs(self, failed_cub: int) -> Tuple[int, ...]:
        """Cubs whose additional failure would lose data (§2.3).

        A second failure within ``decluster`` cubs on *either* side of
        an existing failure makes some block's primary and one of its
        secondary pieces simultaneously unavailable: 8 machines for
        decluster 4, 4 for decluster 2 (on a large enough ring).
        """
        vulnerable: List[int] = []
        for step in range(1, self.decluster + 1):
            ahead = self.layout.next_cub(failed_cub, step)
            behind = self.layout.next_cub(failed_cub, -step)
            for cub in (ahead, behind):
                if cub != failed_cub and cub not in vulnerable:
                    vulnerable.append(cub)
        return tuple(sorted(vulnerable))

    def data_available(self, failed_disks: Iterable[int]) -> bool:
        """True if every block is readable from primary or full secondary.

        A block is lost when its primary disk is failed *and* at least
        one disk holding a piece of its secondary is also failed.
        """
        failed = set(failed_disks)
        for disk in failed:
            if any(piece_disk in failed for piece_disk in self.secondary_disks(disk)):
                return False
        return True

    def lost_block_fraction(self, failed_disks: Iterable[int]) -> float:
        """Fraction of each failed disk's blocks that are unreadable.

        With one piece disk also failed, ``1/decluster`` of every block
        on the failed primary cannot be fully reconstructed; we count a
        block lost if any piece is missing.
        """
        failed: Set[int] = set(failed_disks)
        if not failed:
            return 0.0
        lost = 0
        for disk in failed:
            if any(piece_disk in failed for piece_disk in self.secondary_disks(disk)):
                lost += 1
        return lost / self.layout.num_disks

    def survivable_failure_pairs(self) -> int:
        """Count of unordered cub pairs whose joint failure loses no data."""
        count = 0
        cubs = self.layout.num_cubs
        for first in range(cubs):
            vulnerable = set(self.second_failure_vulnerable_cubs(first))
            for second in range(first + 1, cubs):
                if second not in vulnerable:
                    count += 1
        return count
