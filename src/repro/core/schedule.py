"""The global schedule — the *hallucination* itself (paper §3, §4).

In a running distributed Tiger no machine holds this object; each cub
has only a bounded view.  We implement it anyway, for two purposes the
paper's methodology implies but cannot execute:

* as the **coherence oracle** for tests: :class:`SlotAudit` books the
  schedule from outside the cubs, off the messages they send, and the
  distributed implementation must never commit an insert that would be
  illegal against the single global schedule, and
* as the working data structure of the **centralized baseline**
  (§3.3), which really does keep the whole schedule on the controller.

The invariant checks here are the executable form of the paper's
correctness argument: a slot holds at most one viewer instance, and an
insert is legal only into a free slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.protocol import (
    CONTROLLER_ADDRESS, DescheduleForward, PlayEnded, StartCommitted,
)
from repro.net.message import Message


class SlotConflictError(RuntimeError):
    """An insert targeted a slot that already holds a viewer."""


@dataclass(frozen=True)
class SlotEntry:
    """The occupant of one schedule slot."""

    viewer_id: str
    instance: int
    inserted_at: float


class GlobalSchedule:
    """A single, consistent array of slots — one per stream of capacity."""

    def __init__(self, num_slots: int) -> None:
        if num_slots < 1:
            raise ValueError("need at least one slot")
        self.num_slots = num_slots
        self._slots: Dict[int, SlotEntry] = {}
        self.inserts = 0
        self.removes = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_free(self, slot: int) -> bool:
        self._check(slot)
        return slot not in self._slots

    def occupant(self, slot: int) -> Optional[SlotEntry]:
        self._check(slot)
        return self._slots.get(slot)

    def free_slots(self) -> Tuple[int, ...]:
        return tuple(
            slot for slot in range(self.num_slots) if slot not in self._slots
        )

    def occupied_slots(self) -> Tuple[int, ...]:
        return tuple(sorted(self._slots))

    @property
    def load(self) -> float:
        """Schedule load as a fraction of capacity."""
        return len(self._slots) / self.num_slots

    @property
    def num_occupied(self) -> int:
        return len(self._slots)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, slot: int, viewer_id: str, instance: int, now: float) -> SlotEntry:
        """Place a viewer into a free slot; conflict is an error.

        In the distributed system a conflict here means the ownership
        protocol was violated — tests treat it as a hard failure.
        """
        self._check(slot)
        existing = self._slots.get(slot)
        if existing is not None:
            raise SlotConflictError(
                f"slot {slot} already holds {existing.viewer_id}#{existing.instance}; "
                f"refused insert of {viewer_id}#{instance}"
            )
        entry = SlotEntry(viewer_id, instance, now)
        self._slots[slot] = entry
        self.inserts += 1
        return entry

    def remove(self, slot: int, viewer_id: str, instance: int) -> bool:
        """Conditional removal with deschedule semantics (§4.1.2).

        "If this instance of viewer is in this schedule slot, remove
        the viewer" — a mismatch does nothing and returns False.
        """
        self._check(slot)
        entry = self._slots.get(slot)
        if entry is None or entry.viewer_id != viewer_id or entry.instance != instance:
            return False
        del self._slots[slot]
        self.removes += 1
        return True

    def remove_unconditional(self, slot: int) -> Optional[SlotEntry]:
        """Clear a slot regardless of occupant (EOF handling)."""
        self._check(slot)
        entry = self._slots.pop(slot, None)
        if entry is not None:
            self.removes += 1
        return entry

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def assert_consistent(self) -> None:
        """Every occupied slot holds exactly one entry in range."""
        for slot in self._slots:
            if not 0 <= slot < self.num_slots:
                raise AssertionError(f"slot {slot} out of range")
        instances = [
            (entry.viewer_id, entry.instance) for entry in self._slots.values()
        ]
        if len(instances) != len(set(instances)):
            raise AssertionError("one play instance occupies multiple slots")

    def _check(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")


class SlotAudit(GlobalSchedule):
    """The global schedule booked from the fabric, never by a cub.

    An insert joins the hallucination "when a message to that effect
    makes it to at least one other machine" (§4.3): the audit books it
    when a cub *sends* ``StartCommitted`` to the controller — before any
    drop, so a lost message does not hide it — and ignores the backup's
    copy.  A play leaves when its cub sends ``PlayEnded``, or when its
    deschedule is delivered to a living cub (where the first cub applies
    it).  Both removals are conditional on the occupant.

    A conflicting commit raises :class:`SlotConflictError` when
    ``strict``; otherwise ``cub.insert_conflicts`` counts it for the
    committer, the slot keeps its first occupant and the protocol runs on.
    """

    def __init__(self, num_slots: int, network, registry, strict: bool = True) -> None:
        super().__init__(num_slots)
        self.strict = strict
        self._network = network
        self._registry = registry
        network.add_send_hook(StartCommitted, self._on_commit)
        network.add_send_hook(PlayEnded, self._on_end)
        network.add_delivery_hook(DescheduleForward, self._on_deschedule)

    def _on_commit(self, message: Message, now: float) -> None:
        if message.dst != CONTROLLER_ADDRESS:
            return
        committed = message.payload
        try:
            self.insert(committed.slot, committed.viewer_id, committed.instance, now)
        except SlotConflictError:
            if self.strict:
                raise
            self._registry.counter(
                "cub.insert_conflicts",
                help="Commits into a booked slot, counted by the slot audit",
                unit="inserts",
                cub=int(message.src.rpartition(":")[2]),
            ).increment()

    def _on_end(self, message: Message, _now: float) -> None:
        if message.dst == CONTROLLER_ADDRESS:
            ended = message.payload
            self.remove(ended.slot, ended.viewer_id, ended.instance)

    def _on_deschedule(self, message: Message, _now: float) -> None:
        if not self._network.node(message.dst).failed:
            request = message.payload.request
            self.remove(request.slot, request.viewer_id, request.instance)
