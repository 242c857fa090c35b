"""A cub's admission state and decisions (paper §4.1.3), with no I/O.

A cub may insert a viewer only at its own ownership instant of a
(slot, visit), and only into a slot its view says is free.  What decides
such an insert lives here: the per-disk wait queues, the redundant
requests held for a live predecessor, duplicate and cancel suppression,
and the placement policy.  A :class:`ScheduleOwner` holds only pure
objects and no simulator, runtime, network, tracer or registry.  Each
input is one method that takes the time and returns what the cub must
do; the cub keeps the timers and the effects (DESIGN.md §5.2).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.core.deadman import DeadmanMonitor
from repro.core.placement import PlacementPolicy, SlotCandidate, neighbor_offsets
from repro.core.protocol import StartRequest
from repro.core.slots import SlotClock
from repro.core.view import ScheduleView
from repro.core.viewerstate import ViewerState, make_initial_state
from repro.storage.layout import StripeLayout

#: :meth:`ScheduleOwner.ownership_instant`'s answer when the guard says no.
REJECT = "reject"


class ScheduleOwner:
    """One cub's waiting start requests and the inserts it decides."""

    def __init__(
        self,
        view: ScheduleView,
        deadman: DeadmanMonitor,
        clock: SlotClock,
        layout: StripeLayout,
        policy: PlacementPolicy,
        scheduling_lead: float,
    ) -> None:
        self.view = view
        self.deadman = deadman
        self.clock = clock
        self.layout = layout
        self.policy = policy
        self.scheduling_lead = scheduling_lead
        #: Start requests waiting for a free slot, per target disk.
        #: May include a dead predecessor's disks when covering for it.
        self._wait_queues: Dict[int, Deque[StartRequest]] = {}
        #: Instance -> its request in ``_wait_queues``, so a stop or
        #: cancel goes to the one queue that holds it.  Exactly the queued.
        self._queued_requests: Dict[int, StartRequest] = {}
        self._cancelled_instances: Set[int] = set()
        #: Start-request instances already routed to this cub (duplicate
        #: suppression for controller-failover client retries).
        self._seen_start_instances: Set[int] = set()
        #: Redundant starts held for a live predecessor.  The cub reads
        #: it to skip :meth:`state_admitted` (two states a block) if empty.
        self.redundant_requests: Dict[int, StartRequest] = {}
        #: When each queued start first reached an ownership instant:
        #: a deferring policy's patience counts from here, not from the
        #: request time, so a long queue does not eat the whole budget.
        self._first_considered: Dict[int, float] = {}

    def start_request(self, now: float, request: StartRequest) -> Optional[int]:
        """A start routed here; returns the disk whose scan to arm."""
        instance = request.instance
        if instance in self._cancelled_instances or instance in self._seen_start_instances:
            return None  # withdrawn, or routed twice (a client retried via the backup)
        self._seen_start_instances.add(instance)
        if request.redundant and not self.deadman.believes_failed(
            self.layout.cub_of_disk(request.target_disk)
        ):
            self.redundant_requests[instance] = request
            return None
        return self._enqueue(request)

    def cancel_start(self, now: float, instance: int) -> None:
        """The client withdrew a start: never queue it again."""
        self._cancelled_instances.add(instance)
        self.deschedule(now, instance)

    def deschedule(self, now: float, instance: int) -> None:
        """A stop or pause: forget the play's start wherever it is held."""
        self.redundant_requests.pop(instance, None)
        self._remove_queued(instance)

    def state_admitted(self, now: float, instance: int) -> None:
        """A new viewer state for ``instance`` proves its primary target
        scheduled it: drop the redundant copy of its request."""
        self.redundant_requests.pop(instance, None)

    def neighbour_failed(self, now: float) -> List[int]:
        """Queue every redundant start this cub now adopts (see
        :meth:`DeadmanMonitor.adopts`); returns the disks to scan."""
        armed = []
        for instance in list(self.redundant_requests):
            request = self.redundant_requests[instance]
            if self.deadman.adopts(self.layout.cub_of_disk(request.target_disk)):
                del self.redundant_requests[instance]
                armed.append(self._enqueue(request))
        return armed

    def next_instant(
        self, now: float, disk_id: int
    ) -> Optional[Tuple[float, int, float]]:
        """``disk_id``'s next ownership instant as (instant, slot,
        visit), or None when nothing waits for it."""
        if not self._wait_queues.get(disk_id):
            return None
        lead = self.scheduling_lead
        slot, visit = self.clock.next_slot_visit(disk_id, now + lead)
        return visit - lead, slot, visit

    def ownership_instant(
        self,
        now: float,
        disk_id: int,
        slot: int,
        visit: float,
        blocked: Callable[[], bool],
    ) -> Union[ViewerState, str, None]:
        """This cub owns (slot, visit) of ``disk_id`` right now.

        Returns the initial state of the request to insert there (taken
        off its queue); :data:`REJECT` when the slot is free but
        ``blocked()``, the cub's admission guard asked only then, says
        no; or None: the slot is occupied, nothing waits, or the policy
        defers to a later free visit, which gets its own instant.
        """
        queue = self._wait_queues.get(disk_id)
        if not queue or self.view.occupied_at(slot, visit):
            return None
        if blocked():
            return REJECT
        policy = self.policy
        request = queue[policy.select_request(queue, now)]
        candidates = self._candidates(slot, visit)
        first_seen = self._first_considered.setdefault(request.instance, now)
        chosen = policy.choose(
            candidates,
            waited=max(0.0, now - first_seen),
            patience=self.clock.block_play_time,
        )
        if chosen.rank > 0:
            policy.record_deferral()
            return None
        del self._first_considered[request.instance]
        queue.remove(request)
        del self._queued_requests[request.instance]
        return make_initial_state(
            viewer_id=request.viewer_id,
            instance=request.instance,
            slot=slot,
            file_id=request.file_id,
            first_block=request.first_block,
            disk_id=disk_id,
            due_time=visit,
        )

    def queued(self, disk_id: Optional[int] = None) -> int:
        """Start requests waiting, for ``disk_id`` or for every disk."""
        if disk_id is None:
            return len(self._queued_requests)
        return len(self._wait_queues.get(disk_id, ()))

    def _enqueue(self, request: StartRequest) -> int:
        disk_id = request.target_disk
        self._wait_queues.setdefault(disk_id, deque()).append(request)
        self._queued_requests[request.instance] = request
        return disk_id

    def _remove_queued(self, instance: int) -> None:
        self._first_considered.pop(instance, None)
        request = self._queued_requests.pop(instance, None)
        if request is not None:
            self._wait_queues[request.target_disk].remove(request)

    def _candidates(self, slot: int, visit: float) -> List[SlotCandidate]:
        """The disk's free visits a policy may rank, soonest first.
        Rank 0 is the owned (slot, visit) — the first-fit choice, free
        whenever this is called; a look-ahead policy also sees the free
        ones among the next ``lookahead - 1`` visits."""
        policy = self.policy
        service_time = self.clock.block_service_time
        num_slots = self.clock.num_slots
        candidates = []
        for rank in range(policy.lookahead):
            c_slot = (slot + rank) % num_slots
            c_visit = visit + rank * service_time
            if rank and self.view.occupied_at(c_slot, c_visit):
                continue
            crowding = (
                self._crowding(c_slot, c_visit) if policy.needs_crowding else 0.0
            )
            candidates.append(SlotCandidate(c_slot, c_visit, rank, crowding))
        return candidates

    def _crowding(self, slot: int, visit: float) -> float:
        """Occupied slots this disk services adjacently to ``slot`` —
        the consecutive-service pressure load-spread penalizes."""
        service_time = self.clock.block_service_time
        num_slots = self.clock.num_slots
        return float(sum(
            self.view.occupied_at((slot + delta) % num_slots, visit + delta * service_time)
            for delta in neighbor_offsets()
        ))
