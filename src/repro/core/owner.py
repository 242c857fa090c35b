"""A cub's per-play records and the decisions they drive (paper §4.1),
with no I/O: the states held for its predecessors, the states waiting
for their forward window, its tombstones (in the view), its waiting
starts, what decides an insert at an ownership instant, and where each
arriving state goes — served, held, bridged across dead cubs or relayed
(§2.3, §4.1.1).  A :class:`ScheduleOwner` holds only pure objects and no
simulator, runtime, network, tracer or registry.  Each input is one
method that takes the time and returns what the cub must do; the cub
keeps the timers and carries out the records (DESIGN.md §5.2).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.config import TigerConfig
from repro.core.deadman import DeadmanMonitor
from repro.core.protocol import StartRequest
from repro.core.slots import SlotClock
from repro.core.view import ADMIT_NEW, ExpiryIndex, ScheduleView
from repro.core.viewerstate import (
    DescheduleRequest, MirrorViewerState, ViewerState, make_initial_state,
    mirror_states_for,
)
from repro.storage.catalog import Catalog
from repro.storage.layout import StripeLayout

_EPS = 1e-9

#: :meth:`ScheduleOwner.ownership_instant`'s answer when the guard says no.
REJECT = "reject"

# What the chain inputs return: records ``(verb, state)`` for the cub to
# carry out in order, or ``(cub, state)``: hand the state to that cub.
SERVE = "serve"          # the block or piece goes out from a local disk
COVERED = "covered"      # the pieces that follow stand in for the block
LOST = "lost"            # nobody can send this block or piece any more
FINISHED = "finished"    # the play has ended: retire its slot
Record = Tuple[Union[str, int], Union[ViewerState, MirrorViewerState]]


class ScheduleOwner:
    """One cub's per-play records, and the inserts and chains it decides."""

    def __init__(
        self,
        view: ScheduleView,
        deadman: DeadmanMonitor,
        clock: SlotClock,
        layout: StripeLayout,
        config: TigerConfig,
        catalog: Catalog,
    ) -> None:
        self.view = view
        self.cub_id = view.cub_id
        self.deadman = deadman
        self.clock = clock
        self.layout = layout
        self.config = config
        self.catalog = catalog
        #: Viewer states held for predecessors (§4.1.1) by their keys, in
        #: arrival order — the order a neighbour's death bridges them.
        self._redundant_states: Dict[int, ViewerState] = {}
        #: The same records by play: instance -> the one key it holds, or
        #: a tuple of keys only while it holds several, so a deschedule
        #: finds them without a search.  Exactly the store's keys.
        self._redundant_index: Dict[int, Union[int, Tuple[int, ...]]] = {}
        #: And by due time: what :meth:`prune` visits.
        self._redundant_expiry = ExpiryIndex()
        #: States this cub served, awaiting their forward window.
        self.forward_queue: List[ViewerState] = []
        #: Mirror states bound for downstream piece holders: one hop a
        #: pump, single copy (the primary chain can re-derive each).
        self.mirror_forward_queue: List[MirrorViewerState] = []
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
        #: Redundant starts held for a live predecessor; :meth:`receive`
        #: tests it before dropping one (two states a block).
        self.redundant_requests: Dict[int, StartRequest] = {}

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
        self._forget_start(instance)

    def deschedule(self, now: float, request: DescheduleRequest, expiry: float) -> bool:
        """A stop or pause: tombstone the play until ``expiry``, release
        its held states and forget its start; False for a duplicate.  It
        searches nothing: queued forwards and pending service check the
        tombstone when their turn comes (DESIGN.md §5.1)."""
        if not self.view.apply_deschedule(request, expiry):
            return False  # duplicate — idempotent
        instance = request.instance
        held = self._redundant_index.get(instance)
        if held is not None:
            for key in (held,) if type(held) is int else held:
                if request.matches(self._redundant_states[key]):
                    self._release(key)
        self._forget_start(instance)
        return True

    def _forget_start(self, instance: int) -> None:
        """Drop the play's start wherever it is held."""
        self.redundant_requests.pop(instance, None)
        self._remove_queued(instance)

    def receive(self, now: float, state: ViewerState) -> Union[str, List[Record], None]:
        """A viewer state arrived (§4.1.1): None when it is held or
        dropped (a duplicate, descheduled, or too late to keep), :data:`SERVE`
        when a disk of this cub serves it (nearly every state's fate;
        neither allocates), or the records of its bridge or relay."""
        # The state's key is made here, once per visit, and handed to
        # whichever of the view and the held-state store this visit
        # reaches.
        key = state.key()
        disposition = self.view.admit(state, now, key)
        if disposition != ADMIT_NEW:
            return None
        if self.redundant_requests:
            # A new state proves its primary target scheduled the play:
            # drop the redundant copy of its start.
            self.redundant_requests.pop(state.instance, None)
        owner_cub = self.layout.cub_of_disk(state.disk_id)
        if owner_cub == self.cub_id:
            return SERVE
        if self.deadman.adopts(owner_cub):
            return self._bridge(now, state)
        self.hold(state, key)
        if self.deadman.recently_resurrected(owner_cub, now):
            # Restart race: the sender routed around the owner while
            # believing it dead, but our belief already flipped back to
            # alive (its first heartbeat overtook the state batch on the
            # wire).  Held passively, this state would orphan the viewer
            # — the rebooted owner was never a destination.  Relay it;
            # duplicate chains self-merge through the idempotence set.
            return [(owner_cub, state)]
        return None

    def receive_piece(self, now: float, piece: MirrorViewerState) -> Optional[str]:
        """A mirror piece arrived or was made here: :data:`SERVE` when a
        disk of this cub holds it, :data:`LOST` when its holder is
        believed dead (§2.3's second-failure data loss), else None — a
        duplicate, or queued to hop on toward its holder."""
        if self.view.admit_mirror(piece, now) != ADMIT_NEW:
            return None
        target_cub = self.layout.cub_of_disk(piece.disk_id)
        if target_cub == self.cub_id:
            return SERVE
        if self.deadman.believes_failed(target_cub):
            return LOST
        self.mirror_forward_queue.append(piece)
        return None

    def cover(self, now: float, state: ViewerState) -> List[Record]:
        """Mirror pieces for a block on a dead disk, each routed as if it
        had arrived."""
        records: List[Record] = [(COVERED, state)]
        config = self.config
        for piece in mirror_states_for(
            state, config.decluster, self.layout.num_disks, config.block_play_time
        ):
            verb = self.receive_piece(now, piece)
            if verb is not None:
                records.append((verb, piece))
        return records

    def reroute(self, now: float, state: ViewerState) -> List[Record]:
        """A state this cub cannot read itself (its own disk is dead, or
        it inserted on a dead predecessor's disk): mirrors cover the
        block, whatever its due time, and the chain moves on."""
        return self.cover(now, state) + self._advance(now, state)

    def membership(
        self, now: float, cub: int, alive: bool
    ) -> Tuple[Iterable[Record], List[int]]:
        """A deadman verdict on ``cub``: (records, disks whose scans to
        arm).  A return changes nothing yet.  A death releases every held
        state whose dead target this cub now adopts
        (:meth:`DeadmanMonitor.adopts`) and returns their bridges, in
        arrival order, and queues the redundant starts it adopts.  With
        two consecutive failures that includes a cub that died *earlier*,
        whose chains the intermediate (now dead) cub had been bridging."""
        if alive:
            return (), []
        adopts, cub_of_disk = self.deadman.adopts, self.layout.cub_of_disk
        held = self._redundant_states.values()
        states = [state for state in held if adopts(cub_of_disk(state.disk_id))]
        for state in states:
            self._release(state.key())
        disks = []
        for instance, request in list(self.redundant_requests.items()):
            if adopts(cub_of_disk(request.target_disk)):
                del self.redundant_requests[instance]
                disks.append(self._enqueue(request))
        # Lazy, one chain at a time: a chain is decided only once the cub
        # has carried out the one before, so a serve it hands back (its
        # disk has died) is rerouted before the next chain is decided.
        return (record for state in states for record in self._bridge(now, state)), disks

    def _bridge(self, now: float, state: ViewerState) -> List[Record]:
        """A state for a dead cub's disk: mirrors cover its block unless
        it is past due, and the chain moves on to the next living disk —
        across several dead cubs if need be (§2.3)."""
        if state.due_time > now + _EPS:
            records = self.cover(now, state)
        else:
            records = [(LOST, state)]
        return records + self._advance(now, state)

    def _advance(self, now: float, state: ViewerState) -> List[Record]:
        """Route the state's successor as if it had arrived.  Hops already
        past due after slow failure detection are lost, and the chain
        re-enters the schedule at its first future visit: discarded as
        too late, it would kill the viewer (§4.1.2's worst case)."""
        bpt = self.config.block_play_time
        num_disks = self.layout.num_disks
        num_blocks = self.catalog.get(state.file_id).num_blocks
        records: List[Record] = []
        advanced = state.advanced(1, num_disks, bpt)
        while advanced.block_index < num_blocks and advanced.due_time <= now + _EPS:
            records.append((LOST, advanced))
            advanced = advanced.advanced(1, num_disks, bpt)
        if advanced.block_index >= num_blocks:
            records.append((FINISHED, state))
            return records
        owner_cub = self.layout.cub_of_disk(advanced.disk_id)
        if owner_cub != self.cub_id and not self.deadman.believes_failed(owner_cub):
            # The chain re-enters living territory (e.g. the hop after a
            # locally failed disk).  Routed as an arrival, the state
            # would sit in the passive held store and orphan the viewer:
            # the owner never received a copy.  So it is held and handed
            # over, whatever the view made of it.
            key = advanced.key()
            self.view.admit(advanced, now, key)
            self.hold(advanced, key)
            records.append((owner_cub, advanced))
            return records
        decision = self.receive(now, advanced)
        if decision is SERVE:
            records.append((SERVE, advanced))
        elif decision is not None:
            records += decision
        return records

    def hold(self, state: ViewerState, key: int) -> None:
        """Keep a state (``key`` is its ``key()``) targeted at another
        cub's disk, indexed by play and by due time."""
        if key not in self._redundant_states:
            index = self._redundant_index
            instance = state.instance
            held = index.get(instance)
            if held is None:
                index[instance] = key
            else:
                index[instance] = (held, key) if type(held) is int else held + (key,)
        self._redundant_states[key] = state
        self._redundant_expiry.note(key, state.due_time)

    def _release(self, key: int) -> None:
        """Take one held state out of the store and the index."""
        instance = self._redundant_states.pop(key).instance
        index = self._redundant_index
        held = index[instance]
        if held == key:
            del index[instance]
        else:
            rest = tuple(k for k in held if k != key)
            index[instance] = rest[0] if len(rest) == 1 else rest

    def prune(self, now: float) -> None:
        """Expire the view, and the held states no death could still need."""
        self.view.prune(now)
        horizon = now - (self.config.deadman_timeout + 2.0)
        held = self._redundant_states
        for key in self._redundant_expiry.due_before(horizon):
            state = held.get(key)
            if state is not None and state.due_time < horizon:
                self._release(key)

    def take_forwards(
        self, now: float
    ) -> Tuple[List[ViewerState], List[MirrorViewerState], List[MirrorViewerState]]:
        """(next visits' states to send, mirror pieces to send, mirror
        pieces past due).  A state waits until its next visit is within
        ``max_vstate_lead``, and is dropped on a tombstone or at the end
        of its file (§4.1.2); every queued mirror piece leaves."""
        config = self.config
        bpt = config.block_play_time
        max_lead = config.max_vstate_lead
        has_tombstone = self.view.has_tombstone
        num_disks = self.layout.num_disks
        get_file = self.catalog.get
        outgoing: List[ViewerState] = []
        keep: List[ViewerState] = []
        for state in self.forward_queue:
            next_due = state.due_time + bpt
            if now < next_due - max_lead - _EPS:
                keep.append(state)
                continue
            if has_tombstone(state.viewer_id, state.instance, state.slot):
                continue
            advanced = state.advanced(1, num_disks, bpt)
            if advanced.block_index >= get_file(state.file_id).num_blocks:
                continue  # end of file: the chain simply stops (§4.1.2)
            outgoing.append(advanced)
        self.forward_queue = keep

        mirrors_out: List[MirrorViewerState] = []
        missed: List[MirrorViewerState] = []
        for mirror_state in self.mirror_forward_queue:
            # Tombstone first: a descheduled play's piece still queued
            # here was cancelled, not missed.
            if has_tombstone(
                mirror_state.viewer_id, mirror_state.instance, mirror_state.slot
            ):
                continue
            if mirror_state.due_time <= now + _EPS:
                missed.append(mirror_state)
                continue
            mirrors_out.append(mirror_state)
        self.mirror_forward_queue = []
        return outgoing, mirrors_out, missed

    def next_instant(
        self, now: float, disk_id: int
    ) -> Optional[Tuple[float, int, float]]:
        """``disk_id``'s next ownership instant as (instant, slot,
        visit), or None when nothing waits for it."""
        if not self._wait_queues.get(disk_id):
            return None
        lead = self.config.scheduling_lead
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

        Returns the initial state of the longest-waiting request, to
        insert there (taken off its queue); :data:`REJECT` when the
        slot is free but ``blocked()``, the cub's admission guard asked
        only then, says no; or None: the slot is occupied or nothing
        waits.
        """
        queue = self._wait_queues.get(disk_id)
        if not queue or self.view.occupied_at(slot, visit):
            return None
        if blocked():
            return REJECT
        request = _oldest(queue)
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
        request = self._queued_requests.pop(instance, None)
        if request is not None:
            self._wait_queues[request.target_disk].remove(request)


def _oldest(queue: Deque[StartRequest]) -> StartRequest:
    """The queued start with the earliest ``request_time``; the one
    nearer the head on a tie.  Queues fill in request order, so this is
    the head unless a controller failover landed starts in inverted age
    order (clients retry against the backup on an ack-timeout phase):
    the longest-waiting viewer still goes first (§4.1.3)."""
    best = queue[0]
    for request in queue:
        if request.request_time < best.request_time - 1e-12:
            best = request
    return best
