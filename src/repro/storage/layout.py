"""Striped data layout (paper §2.2).

Every file is striped across every disk and every cub.  Disks are
numbered in *cub-minor* order: disk 0 on cub 0, disk 1 on cub 1, ...,
disk n on cub 0 again (for n cubs).  A file's first block lands on its
chosen starting disk; successive blocks land on successive disks,
wrapping at the highest-numbered disk.

Consecutive disk numbers therefore live on consecutive cubs, which is
what makes viewers (and mirror pieces) flow around the *ring of cubs*
— the property the whole distributed schedule design leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class StripeLayout:
    """Geometry of a Tiger system's striping.

    ``disk_weights`` (optional, one positive integer per disk) models
    mixed-generation fleets: a disk with weight 2 holds twice the
    blocks of a weight-1 disk.  Weights change *capacity-aware
    placement* (:meth:`placement_disk_of_block`) only — the schedule
    ring (:meth:`disk_of_block`, cub ownership, mirror chains) is
    untouched, so a weighted layout is a planning-side view that maps
    each ring position onto a concrete disk within the owning cub.
    """

    num_cubs: int
    disks_per_cub: int
    disk_weights: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.num_cubs < 1:
            raise ValueError("need at least one cub")
        if self.disks_per_cub < 1:
            raise ValueError("need at least one disk per cub")
        if self.disk_weights is not None:
            if len(self.disk_weights) != self.num_disks:
                raise ValueError(
                    f"disk_weights needs {self.num_disks} entries, "
                    f"got {len(self.disk_weights)}"
                )
            if any(
                not isinstance(w, int) or w < 1 for w in self.disk_weights
            ):
                raise ValueError("disk weights must be positive integers")
        # Per-cub weighted visit sequences, built lazily.  Not a
        # dataclass field: equality/hash stay geometry+weights only.
        object.__setattr__(self, "_placement_cache", {})

    @property
    def num_disks(self) -> int:
        return self.num_cubs * self.disks_per_cub

    # ------------------------------------------------------------------
    # Cub-minor disk numbering
    # ------------------------------------------------------------------
    def cub_of_disk(self, disk_id: int) -> int:
        """The cub hosting ``disk_id`` (cub-minor order)."""
        if not 0 <= disk_id < self.num_cubs * self.disks_per_cub:
            self._check_disk(disk_id)  # raises
        return disk_id % self.num_cubs

    def disks_of_cub(self, cub_id: int) -> Tuple[int, ...]:
        """All disk ids hosted by ``cub_id``, ascending."""
        self._check_cub(cub_id)
        return tuple(
            cub_id + stripe * self.num_cubs for stripe in range(self.disks_per_cub)
        )

    def local_index(self, disk_id: int) -> int:
        """Position of ``disk_id`` within its cub's disk list."""
        self._check_disk(disk_id)
        return disk_id // self.num_cubs

    # ------------------------------------------------------------------
    # Block placement
    # ------------------------------------------------------------------
    def disk_of_block(self, start_disk: int, block_index: int) -> int:
        """Disk holding the primary copy of a file's ``block_index``."""
        self._check_disk(start_disk)
        if block_index < 0:
            raise ValueError("negative block index")
        return (start_disk + block_index) % self.num_disks

    def cub_of_block(self, start_disk: int, block_index: int) -> int:
        return self.cub_of_disk(self.disk_of_block(start_disk, block_index))

    # ------------------------------------------------------------------
    # Capacity-weighted placement
    # ------------------------------------------------------------------
    def weight_of_disk(self, disk_id: int) -> int:
        """Capacity weight of ``disk_id`` (1 when unweighted)."""
        self._check_disk(disk_id)
        if self.disk_weights is None:
            return 1
        return self.disk_weights[disk_id]

    def with_weights(self, disk_weights: Tuple[int, ...]) -> "StripeLayout":
        """Same geometry with per-disk capacity weights applied."""
        return StripeLayout(
            self.num_cubs, self.disks_per_cub, tuple(disk_weights)
        )

    def _weight_sequence(self, cub_id: int) -> Tuple[int, ...]:
        """Local-stripe visit order for ``cub_id``'s ring slots.

        A smooth interleave: each round admits every local disk whose
        weight exceeds the round number, so a weight-2 disk appears
        twice as often as a weight-1 disk without long same-disk runs.
        With equal weights this is ``(0, 1, ..., disks_per_cub-1)``,
        which makes :meth:`placement_disk_of_block` reduce exactly to
        :meth:`disk_of_block`.
        """
        cached = self._placement_cache.get(cub_id)
        if cached is not None:
            return cached
        weights = [
            self.weight_of_disk(cub_id + local * self.num_cubs)
            for local in range(self.disks_per_cub)
        ]
        sequence: Tuple[int, ...] = tuple(
            local
            for round_no in range(max(weights))
            for local, weight in enumerate(weights)
            if weight > round_no
        )
        self._placement_cache[cub_id] = sequence
        return sequence

    def placement_disk_of_block(
        self, start_disk: int, block_index: int
    ) -> int:
        """Disk holding ``block_index`` under capacity-aware placement.

        The ring walk still visits cubs in stripe order — cub
        ownership (and therefore the distributed schedule) is
        identical to :meth:`disk_of_block` — but *within* the owning
        cub the block lands on a local disk chosen by the cub's
        weighted visit sequence, so higher-weight disks hold
        proportionally more blocks.
        """
        self._check_disk(start_disk)
        if block_index < 0:
            raise ValueError("negative block index")
        position = start_disk + block_index
        cub_id = position % self.num_cubs
        sequence = self._weight_sequence(cub_id)
        local = sequence[(position // self.num_cubs) % len(sequence)]
        return cub_id + local * self.num_cubs

    def next_disk(self, disk_id: int, step: int = 1) -> int:
        """The disk ``step`` places after ``disk_id`` in stripe order."""
        self._check_disk(disk_id)
        return (disk_id + step) % self.num_disks

    def next_cub(self, cub_id: int, step: int = 1) -> int:
        """The cub ``step`` places after ``cub_id`` around the ring."""
        self._check_cub(cub_id)
        return (cub_id + step) % self.num_cubs

    def ring_distance(self, from_cub: int, to_cub: int) -> int:
        """Forward hops from ``from_cub`` to ``to_cub`` around the ring."""
        self._check_cub(from_cub)
        self._check_cub(to_cub)
        return (to_cub - from_cub) % self.num_cubs

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_disk(self, disk_id: int) -> None:
        if not 0 <= disk_id < self.num_disks:
            raise ValueError(f"disk {disk_id} out of range [0, {self.num_disks})")

    def _check_cub(self, cub_id: int) -> None:
        if not 0 <= cub_id < self.num_cubs:
            raise ValueError(f"cub {cub_id} out of range [0, {self.num_cubs})")
