"""A cub's bounded, possibly stale view of the schedule (paper §4.1).

Each cub tracks only the part of the schedule near its own disks: the
viewer states it has received for upcoming visits (its own and, for
redundancy, its predecessors'), deschedule tombstones, and an
idempotence set of recently seen record keys (ints: see
:mod:`repro.core.viewerstate`).  Everything expires, so
the view's size is bounded by the lead-time constants — the paper's
"necessary but insufficient condition for scalability".
"""

from __future__ import annotations

from math import floor
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.viewerstate import (
    DescheduleRequest,
    MirrorViewerState,
    ViewerState,
)

#: Dispositions returned by :meth:`ScheduleView.admit`.
ADMIT_NEW = "new"
ADMIT_DUPLICATE = "duplicate"
ADMIT_DESCHEDULED = "descheduled"
ADMIT_TOO_LATE = "too-late"

_EPS = 1e-9


def view_size_bound(num_slots: int) -> int:
    """Most records a cub's view may hold: O(leads x capacity), never
    O(schedule history).  Both backends' invariant checks enforce it."""
    return 40 * num_slots + 1000


class ExpiryIndex:
    """Which records of a store fall due when, without walking the store.

    Keys (never records) are listed under the whole second their
    record's due time falls in, so expiring costs what expired plus one
    boundary second — not the size of the store.  The listing is a
    superset: a key stays listed after its record is dropped or
    replaced, so the caller checks each candidate against its store,
    and that check, not this index, is the exact cut.  What must hold
    is the converse — every record is listed under its own due time
    (:meth:`unlisted` is the invariant monitor's check) — or it could
    never expire.  One list per second of due times: nothing here is
    allocated per record.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: Dict[int, List[int]] = {}

    def note(self, key: int, due_time: float) -> None:
        """List ``key`` under ``due_time``; call on every store write."""
        second = floor(due_time)
        try:
            self._buckets[second].append(key)
        except KeyError:
            self._buckets[second] = [key]

    def due_before(self, cutoff: float) -> List[int]:
        """Every key listed under a due time that may lie before
        ``cutoff``: the whole seconds before it, forgotten here as they
        are returned, and the second ``cutoff`` falls in, which stays
        listed because part of it is still to come."""
        boundary = floor(cutoff)
        buckets = self._buckets
        keys: List[int] = []
        for second in [s for s in buckets if s <= boundary]:
            keys += buckets[second] if second == boundary else buckets.pop(second)
        return keys

    def unlisted(self, records: Iterable[Tuple[int, float]]) -> List[int]:
        """The keys among ``(key, due_time)`` records not listed under
        their due time — records no expiry would ever reach."""
        listed = {second: set(keys) for second, keys in self._buckets.items()}
        return [
            key for key, due_time in records
            if key not in listed.get(floor(due_time), ())
        ]


class ScheduleView:
    """The per-cub window onto the hallucinated global schedule."""

    def __init__(
        self,
        cub_id: int,
        block_play_time: float,
        hold_time: float,
        is_final: Optional[Callable[[ViewerState], bool]] = None,
    ) -> None:
        self.cub_id = cub_id
        self.block_play_time = block_play_time
        #: How long records linger past their due time before pruning.
        self.hold_time = hold_time
        #: Predicate: does this state describe a file's last block?  Used
        #: so an end-of-play state frees its slot for the next visit.
        self._is_final = is_final if is_final is not None else (lambda state: False)
        #: Latest-due viewer state seen per slot (occupancy knowledge).
        self._slot_states: Dict[int, ViewerState] = {}
        #: Idempotence: record key (an int) -> due time (for expiry).
        self._seen: Dict[int, float] = {}
        #: The two stores' keys by due time: what :meth:`prune` visits.
        self._seen_expiry = ExpiryIndex()
        self._slot_expiry = ExpiryIndex()
        #: Deschedule tombstones: (viewer, instance, slot) -> expiry time.
        self._tombstones: Dict[Tuple[str, int, int], float] = {}
        self.states_discarded_late = 0

    # ------------------------------------------------------------------
    # Admission of viewer states
    # ------------------------------------------------------------------
    def admit(
        self, state: ViewerState, now: float, key: Optional[int] = None
    ) -> str:
        """Apply one incoming viewer state; returns its disposition.

        Implements the §4.1.2 receive rules: duplicates are ignored, a
        matching tombstone kills the state, and a state arriving later
        than tombstones are held is discarded outright (the paper's
        "spontaneous deschedule" corner — never observed, but handled).
        ``key`` is ``state.key()`` for a caller that already made it.
        """
        if key is None:
            key = state.key()
        if key in self._seen:
            return ADMIT_DUPLICATE
        due_time = state.due_time
        if self._tombstones and (
            (state.viewer_id, state.instance, state.slot) in self._tombstones
        ):
            self._note_seen(key, due_time)
            return ADMIT_DESCHEDULED
        if due_time < now - self.hold_time:
            # Later than any tombstone could still be held: drop it so a
            # dead deschedule can never be outrun (§4.1.2).
            self.states_discarded_late += 1
            return ADMIT_TOO_LATE
        self._seen[key] = due_time
        self._seen_expiry.note(key, due_time)
        slot = state.slot
        current = self._slot_states.get(slot)
        if current is None or due_time > current.due_time + _EPS:
            self._slot_states[slot] = state
            self._slot_expiry.note(slot, due_time)
        return ADMIT_NEW

    def admit_mirror(self, state: MirrorViewerState, now: float) -> str:
        """Idempotence/tombstone filtering for mirror viewer states."""
        key = state.key()
        if key in self._seen:
            return ADMIT_DUPLICATE
        if self._tombstones and (
            (state.viewer_id, state.instance, state.slot) in self._tombstones
        ):
            self._note_seen(key, state.due_time)
            return ADMIT_DESCHEDULED
        if state.due_time < now - self.hold_time:
            self.states_discarded_late += 1
            return ADMIT_TOO_LATE
        self._note_seen(key, state.due_time)
        return ADMIT_NEW

    def _note_seen(self, key: int, due_time: float) -> None:
        """Remember a record key until its due time is ``hold_time`` past."""
        self._seen[key] = due_time
        self._seen_expiry.note(key, due_time)

    # ------------------------------------------------------------------
    # Deschedules
    # ------------------------------------------------------------------
    def apply_deschedule(self, request: DescheduleRequest, expiry: float) -> bool:
        """Install a tombstone; returns False if already held (duplicate)."""
        key = request.key()
        if key in self._tombstones:
            return False
        self._tombstones[key] = expiry
        current = self._slot_states.get(request.slot)
        if current is not None and request.matches(current):
            del self._slot_states[request.slot]
        return True

    def has_tombstone(self, viewer_id: str, instance: int, slot: int) -> bool:
        """Is this play descheduled here?  Asked several times per block;
        with no tombstone held it answers before building a key."""
        tombstones = self._tombstones
        if not tombstones:
            return False
        return (viewer_id, instance, slot) in tombstones

    # ------------------------------------------------------------------
    # Occupancy queries (insertion safety, §4.1.3)
    # ------------------------------------------------------------------
    def occupied_at(self, slot: int, visit_time: float) -> bool:
        """Would ``slot`` hold a viewer at ``visit_time``?

        Three cases on the latest state known for the slot:

        * due at or after ``visit_time`` — the occupant will be served
          at (or beyond) this visit: occupied.
        * due exactly one block play time earlier — the previous visit's
          state (e.g. a redundant copy); the viewer continues unless
          that was its final block: occupied iff non-final.
        * older — the play ended somewhere upstream (its chain stopped):
          free.

        The safety of treating "no state" as free rests on
        minVStateLead >> scheduling lead (§4.1.3): any real occupant's
        state arrived seconds before the ownership window opened.
        """
        state = self._slot_states.get(slot)
        if state is None:
            return False
        if state.due_time >= visit_time - _EPS:
            return True
        if state.due_time >= visit_time - self.block_play_time - _EPS:
            return not self._is_final(state)
        return False

    def state_for_slot(self, slot: int) -> Optional[ViewerState]:
        return self._slot_states.get(slot)

    # ------------------------------------------------------------------
    # Size management — the scalability condition of §4
    # ------------------------------------------------------------------
    def prune(self, now: float) -> None:
        """Expire stale records; keeps the view size load-bounded."""
        horizon = now - self.hold_time
        seen = self._seen
        for key in self._seen_expiry.due_before(horizon):
            due = seen.get(key)
            if due is not None and due < horizon:
                del seen[key]
        # A slot's latest state lingers one visit longer: it is what
        # says the slot's viewer continues (see occupied_at).
        slot_horizon = horizon - self.block_play_time
        slot_states = self._slot_states
        for slot in self._slot_expiry.due_before(slot_horizon):
            state = slot_states.get(slot)
            if state is not None and state.due_time < slot_horizon:
                del slot_states[slot]
        expired = [key for key, expiry in self._tombstones.items() if expiry < now]
        for key in expired:
            del self._tombstones[key]

    def size(self) -> int:
        """Total records held — must stay O(leads), not O(system)."""
        return len(self._seen) + len(self._slot_states) + len(self._tombstones)

    def known_slots(self) -> Tuple[int, ...]:
        return tuple(sorted(self._slot_states))

    def unexpirable(self) -> int:
        """Records :meth:`prune` could never reach — zero, or the view
        would grow without bound (the invariant monitor's check)."""
        return len(self._seen_expiry.unlisted(self._seen.items())) + len(
            self._slot_expiry.unlisted(
                (slot, state.due_time)
                for slot, state in self._slot_states.items()
            )
        )
