"""Slot-schedule timing arithmetic (paper §3.1).

The disk schedule is a ring of ``num_slots`` slots, each one block
service time wide; the whole ring is ``block_play_time * num_disks``
seconds long.  Each disk owns a pointer that moves through the ring in
real time, with disk *d*'s pointer one block play time behind disk
*d-1*'s.  When disk *d*'s pointer reaches the start of slot *s*, the
cub hosting *d* sends that slot's viewer its next block.

This module is pure arithmetic — no simulation state — so it can be
exercised exhaustively by property-based tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

#: Tolerance for float comparisons on the schedule ring.  One nanosecond
#: of schedule time is far below every protocol constant.
_EPS = 1e-9


@dataclass(frozen=True)
class SlotClock:
    """Deterministic mapping between wall time and schedule positions."""

    num_disks: int
    num_slots: int
    block_play_time: float
    #: Ring length in seconds: block play time x number of disks.
    #: Derived once here, like :attr:`block_service_time`; neither takes
    #: part in construction, comparison or ``repr``.
    duration: float = field(init=False, repr=False, compare=False)
    #: Slot width; by construction the ring holds a whole number.
    block_service_time: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_disks < 1 or self.num_slots < 1:
            raise ValueError("need at least one disk and one slot")
        if not self.block_play_time > 0:  # also rejects NaN
            raise ValueError("block play time must be positive")
        duration = self.block_play_time * self.num_disks
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "block_service_time", duration / self.num_slots)

    # ------------------------------------------------------------------
    # Pointer motion
    # ------------------------------------------------------------------
    def pointer_offset(self, disk: int, time: float) -> float:
        """Disk ``disk``'s pointer position in [0, duration) at ``time``.

        Disk *d* trails disk *d-1* by one block play time, so disk 0's
        pointer equals wall time modulo the ring.
        """
        self._check_disk(disk)
        return (time - disk * self.block_play_time) % self.duration

    def slot_under_pointer(self, disk: int, time: float) -> int:
        """The slot disk ``disk`` is currently servicing."""
        offset = self.pointer_offset(disk, time)
        slot = int((offset + _EPS) / self.block_service_time)
        return slot % self.num_slots

    # ------------------------------------------------------------------
    # Visit times
    # ------------------------------------------------------------------
    def visit_time(self, disk: int, slot: int, after: float) -> float:
        """First time >= ``after`` at which ``disk`` reaches ``slot``'s start.

        The ring runs for all time, so for ``after`` below the visit's
        base phase this returns the cycle straddling ``after`` — not
        the base itself, which could be up to one revolution late.
        """
        self._check_disk(disk)
        self._check_slot(slot)
        base = disk * self.block_play_time + slot * self.block_service_time
        cycles = math.ceil((after - base - _EPS) / self.duration)
        return base + cycles * self.duration

    def next_slot_visit(self, disk: int, after: float) -> Tuple[int, float]:
        """The next (slot, time) boundary ``disk``'s pointer crosses."""
        self._check_disk(disk)
        offset = self.pointer_offset(disk, after)
        slot_pos = offset / self.block_service_time
        next_index = math.floor(slot_pos + _EPS) + 1
        wait = next_index * self.block_service_time - offset
        slot = next_index % self.num_slots
        return slot, after + wait

    def serving_disk(self, slot: int, time: float) -> int:
        """The disk that most recently crossed ``slot``'s start.

        Exactly one disk visits a slot within any block-play-time
        window (pointers are spaced one block play time apart and the
        ring is num_disks block play times long).
        """
        self._check_slot(slot)
        # Disk d visits slot at time t iff (t - d*bpt) mod L == slot*bst.
        # A crossing happening exactly at `time` counts as crossed; the
        # relative epsilon absorbs the float-modulo case where the
        # offset lands at duration-minus-ulp instead of zero.
        offset = (time - slot * self.block_service_time) % self.duration
        index = math.floor(offset / self.block_play_time + 1e-6)
        return int(index) % self.num_disks

    def visits_per_block_play_time(self) -> float:
        """Slots a single disk's pointer crosses per block play time."""
        return self.block_play_time / self.block_service_time

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_disk(self, disk: int) -> None:
        if not 0 <= disk < self.num_disks:
            raise ValueError(f"disk {disk} out of range [0, {self.num_disks})")

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
