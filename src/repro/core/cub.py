"""The cub: Tiger's distributed schedule-management engine (paper §4).

Each cub owns a handful of disks, a bounded :class:`ScheduleView`, a
:class:`DeadmanMonitor`, and a :class:`ScheduleOwner` holding its
per-play records: held states, forward queues and waiting start
requests.  All of §4's machinery runs here:

* steady-state viewer-state propagation to the successor *and second
  successor*, batched by a periodic pump within the
  [minVStateLead, maxVStateLead] window (§4.1.1);
* idempotent deschedule flooding with tombstones (§4.1.2);
* slot-ownership-based insertion (§4.1.3);
* mirror viewer states and gap bridging when neighbours die (§4.1.1,
  §2.3).

The :class:`ScheduleOwner` decides where every state, piece and chain
goes and what a deadman verdict adopts; the cub carries its records
out — service, sends, counters and traces.

A cub never consults the global schedule, and never books one: a
commit or an end is a message to the controller, and the DES's slot
audit reads those off the fabric.

Nothing else lives here.  The optional tiers (online restriping, helper
fills) keep the cub-side half of their protocols in their own modules
and add their payloads to the dispatch table, :attr:`Cub.handlers`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import TigerConfig
from repro.core.deadman import DeadmanMonitor
from repro.core.protocol import (
    CONTROLLER_ADDRESS,
    BlockData,
    block_pattern,
    CancelStart,
    DescheduleForward,
    Heartbeat,
    PlayEnded,
    StartCommitted,
    StartRequest,
    ViewerStateBatch,
    cub_address,
)
from repro.core.owner import (
    COVERED, FINISHED, LOST, REJECT, SERVE, Record, ScheduleOwner,
)
from repro.core.slots import SlotClock
from repro.core.view import ScheduleView
from repro.core.viewerstate import MirrorViewerState, ViewerState
from repro.disk.drive import Read, SimDisk
from repro.net.message import (
    BATCH_HEADER_BYTES,
    DESCHEDULE_BYTES,
    HEARTBEAT_BYTES,
    KIND_DATA,
    VIEWER_STATE_BYTES,
    Message,
)
from repro.net.node import NetworkNode
from repro.net.switch import SwitchedNetwork
from repro.obs.registry import MetricsRegistry
from repro.sim.core import Simulator
from repro.sim.events import Event
from repro.sim.rng import RngRegistry
from repro.sim.stats import BusyMeter
from repro.sim.trace import Tracer
from repro.storage.blockindex import BlockIndex, BlockLocation
from repro.storage.catalog import Catalog
from repro.storage.layout import StripeLayout

_EPS = 1e-9


class _Service:
    """One accepted state's block service: everything its read and its
    send share.  Built once, appended to the read bucket and the send
    bucket of the pending table, dead when the send bucket pops."""

    __slots__ = ("state", "aborted", "disk", "location", "read")

    def __init__(self, state: Any, disk: SimDisk, location: BlockLocation) -> None:
        self.state = state
        #: Set by a disk death before the send; mirror pieces cover it.
        self.aborted = False
        self.disk = disk
        self.location = location
        #: The drive's handle once the read is issued; None if a
        #: tombstone stopped it.
        self.read: Optional[Read] = None


class Cub(NetworkNode):
    """One content-holding machine of a Tiger system."""

    def __init__(
        self,
        sim: Simulator,
        cub_id: int,
        config: TigerConfig,
        layout: StripeLayout,
        catalog: Catalog,
        clock: SlotClock,
        network: SwitchedNetwork,
        rngs: RngRegistry,
        block_index: BlockIndex,
        tracer: Optional[Tracer] = None,
        forward_copies: int = 2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(sim, cub_address(cub_id), tracer)
        self.cub_id = cub_id
        self.config = config
        self.layout = layout
        self.catalog = catalog
        self.clock = clock
        self.network = network
        self.block_index = block_index
        #: Number of successors each record is forwarded to; the paper
        #: uses 2 ("successor and second successor"), the ablation 1.
        self.forward_copies = forward_copies
        #: Where commit/end notifications go; the controller-failover
        #: extension adds the backup's address.
        self.controller_addresses = (CONTROLLER_ADDRESS,)

        self.view = ScheduleView(
            cub_id,
            config.block_play_time,
            hold_time=config.deschedule_hold,
            is_final=self._state_is_final,
        )
        #: The cub's disks, keyed by global disk id.
        self.disks: Dict[int, SimDisk] = {
            disk_id: SimDisk(sim, f"{self.name}.disk{disk_id}", config.disk, rngs, tracer)
            for disk_id in layout.disks_of_cub(cub_id)
        }

        #: The armed ownership-instant timer per disk with waiting starts.
        self._scan_events: Dict[int, Event] = {}
        #: The pending table: fire time -> (drain event, records whose
        #: read is due then, records whose send is due then, each in
        #: scheduling order).  One kernel event per distinct deadline;
        #: a bucket is popped when it fires, so the table holds only
        #: service still ahead — at most viewers x max_vstate_lead /
        #: block_play_time records cluster-wide, each listed twice.
        self._service_buckets: Dict[
            float, Tuple[Event, List[_Service], List[_Service]]
        ] = {}
        #: The latest deadline ever put in the table.  A bucket leaves
        #: only at its own fire time, so this is the table's maximum
        #: whenever that lies in the future.
        self._latest_service_deadline = 0.0
        #: The drain callback, bound once for every bucket's event.
        self._drain_service_bucket = self._drain_service_bucket

        #: Modelled CPU (packetization dominates; see DESIGN.md).
        self.cpu = BusyMeter(sim.now)
        #: Sliding window of recent block sends for the local schedule-
        #: load estimate behind the admission guard.
        self._recent_send_times: Deque[float] = deque()
        #: Pump ticks since construction; every fourth one prunes.  Not
        #: reset by a reboot, so a rebooted cub prunes in the same phase.
        self._pump_ticks = 0
        #: How far back the sends behind the load estimate reach.
        self._send_window = 4.0 * config.block_play_time

        # Counters registered as per-cub metric series (the registry
        # handles subclass the plain stats counters, so increments cost
        # exactly what they did before the observability refactor).
        self.registry = registry if registry is not None else MetricsRegistry()
        metric = self.registry.counter
        self.blocks_sent = metric(
            "cub.blocks_sent", help="Primary blocks placed on the wire",
            unit="blocks", cub=cub_id)
        self.mirror_pieces_sent = metric(
            "cub.mirror_pieces_sent", help="Declustered mirror pieces sent",
            unit="pieces", cub=cub_id)
        self.server_missed_blocks = metric(
            "cub.server_missed_blocks",
            help="Blocks the server failed to place on the network in time",
            unit="blocks", cub=cub_id)
        self.mirror_pieces_missed = metric(
            "cub.mirror_pieces_missed",
            help="Mirror pieces that missed their transmit deadline",
            unit="pieces", cub=cub_id)
        self.blocks_lost_in_failover = metric(
            "cub.blocks_lost_in_failover",
            help="Blocks lost inside a failure-detection window",
            unit="blocks", cub=cub_id)
        self.pieces_lost_to_second_failure = metric(
            "cub.pieces_lost_to_second_failure",
            help="Mirror pieces unrecoverable after a second failure",
            unit="pieces", cub=cub_id)
        self.viewer_states_forwarded = metric(
            "cub.viewer_states_forwarded",
            help="Viewer-state records forwarded to ring successors",
            unit="records", cub=cub_id)
        self.deschedules_forwarded = metric(
            "cub.deschedules_forwarded",
            help="Deschedule requests re-forwarded along the ring",
            unit="requests", cub=cub_id)
        self.inserts_performed = metric(
            "cub.inserts_performed",
            help="Slot insertions performed at owned ownership instants",
            unit="inserts", cub=cub_id)
        self.admission_rejects = metric(
            "cub.admission_rejects",
            help="Ownership instants skipped by the admission guard",
            unit="instants", cub=cub_id)
        self.mirror_covers = metric(
            "cub.mirror_covers",
            help="Lost blocks covered by declustered mirror states",
            unit="blocks", cub=cub_id)
        self.deadman_resurrections = metric(
            "cub.deadman_resurrections",
            help="Believed-dead neighbours heard from again",
            unit="events", cub=cub_id)

        self._boot()
        #: The neighbours the deadman beat goes to, built once: the
        #: watched set is fixed by ``cub_id`` and ``num_cubs``, so a
        #: rebooted cub's fresh monitor watches the same cubs.
        self._heartbeat_to = tuple(
            cub_address(neighbour) for neighbour in self.deadman.watched
        )

        #: Payload type -> ``handler(payload, sender)``: the one dispatch
        #: path.  These four and the heartbeat, which
        #: :meth:`handle_message` hands the deadman before any lookup,
        #: are §4's whole vocabulary; an optional tier's cub-side service
        #: adds its own when the host that built the cub attaches it, so
        #: the cub never names a tier's messages.
        self.handlers: Dict[type, Callable[[Any, str], None]] = {
            ViewerStateBatch: self._on_state_batch,
            DescheduleForward: self._on_deschedule,
            StartRequest: self._on_start_request,
            CancelStart: self._on_cancel_start,
        }
        #: Run on reboot, for state a served tier must forget with it.
        self.on_recover: List[Callable[[], None]] = []

        self._started = False

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def _boot(self) -> None:
        """What a cub believes at power-on: a deadman seeded now, which
        grants every neighbour a full timeout of grace, a heartbeat
        whose epoch is now, and an empty owner — a crash loses every
        held state, queued forward and queued start, and the duplicate
        and cancel memory with them."""
        self.deadman = DeadmanMonitor(
            self.cub_id,
            self.config.num_cubs,
            timeout=self.config.deadman_timeout,
            now=self.sim.now,
        )
        self._heartbeat = Heartbeat(self.cub_id, self.sim.now)
        self.owner = ScheduleOwner(
            self.view,
            self.deadman,
            self.clock,
            self.layout,
            self.config,
            self.catalog,
        )

    def start(self) -> None:
        """Begin heartbeating, pumping, and deadman checking."""
        if self._started:
            return
        self._started = True
        self.every(self.config.heartbeat_interval, self._send_heartbeats)
        self.every(self.config.forward_pump_interval, self._pump)
        self.every(self.config.heartbeat_interval, self._deadman_check)

    def fail(self) -> None:
        """Power-off: drop messages, stop timers, disks unreachable."""
        super().fail()
        self._started = False
        # Drain events are held by the pending table, not the process
        # timer list, so power-off cancels them from there.
        for drain, _reads, _sends in self._service_buckets.values():
            drain.cancel()

    def recover(self) -> None:
        """Power back on with empty protocol state (a rebooted machine)."""
        super().recover()
        self._boot()
        self._scan_events.clear()
        # fail() cancelled the drain events; their buckets go too, or a
        # re-used fire time would run pre-crash service.  A read already
        # issued goes with its record: nothing else keeps it.
        self._service_buckets.clear()
        self._latest_service_deadline = 0.0
        self._recent_send_times.clear()
        # Served tiers forget their volatile state too.  The block
        # index is on-disk metadata and stays.
        for forget in self.on_recover:
            forget()
        self.start()

    # ==================================================================
    # Message dispatch
    # ==================================================================
    def handle_message(self, message: Message) -> None:
        payload = message.payload
        kind = type(payload)
        if kind is Heartbeat:
            # Eight of every cub-second's messages; a liveness beat is
            # not charged CPU and goes straight to the deadman.
            alive = self.deadman.note_heartbeat(payload.cub_id, self.sim.now, payload.epoch)
            if alive is not None:
                self._on_verdict(payload.cub_id, alive)
            return
        handler = self.handlers.get(kind)
        if handler is None:
            raise TypeError(f"{self.name}: unexpected payload {kind.__name__}")
        self.cpu.add_busy(self.sim.now, self.config.cpu_per_control_msg)
        handler(payload, message.src)

    def _on_state_batch(self, batch: ViewerStateBatch, _sender: str) -> None:
        """Route each state and piece through the owner and carry out
        its answer.  Serve and hold, nearly every state's fate, cost no
        record: the owner answers :data:`SERVE` or None."""
        owner = self.owner
        now = self.sim.now
        for state in batch.states:
            decision = owner.receive(now, state)
            if decision is SERVE:
                self._accept_own_state(state)
            elif decision is not None:
                self._carry_out(decision)
        for piece in batch.mirrors:
            verb = owner.receive_piece(now, piece)
            if verb is SERVE:
                self._serve_mirror_piece(piece)
            elif verb is LOST:
                self.pieces_lost_to_second_failure.increment()

    def _carry_out(self, records: Iterable[Record]) -> None:
        """Do what an owner input decided, record by record, in its
        order (the verbs are :mod:`repro.core.owner`'s)."""
        for verb, state in records:
            if verb is SERVE:
                if type(state) is ViewerState:
                    self._accept_own_state(state)
                else:
                    self._serve_mirror_piece(state)
            elif verb is COVERED:
                self.mirror_covers.increment()
                if self.tracer.enabled:
                    self.trace("mirror.cover", "covering lost block with mirror pieces",
                               viewer=state.viewer_id, block=state.block_index,
                               disk=state.disk_id)
            elif verb is LOST:
                if type(state) is ViewerState:
                    self.blocks_lost_in_failover.increment()
                else:
                    self.pieces_lost_to_second_failure.increment()
            elif verb is FINISHED:
                self._finish_play(state)
            else:  # a relay: ``verb`` is the cub the state goes to
                self.trace("failover.relay", f"relaying state to resurrected cub {verb}",
                           viewer=state.viewer_id, seqno=state.play_seqno)
                self._send_states((verb,), (state,), ())

    def _accept_own_state(self, state: ViewerState) -> None:
        """Serve and later forward a state targeted at one of my disks,
        reading the block wherever the block index locates it."""
        location = self.block_index.locate(
            state.file_id, state.block_index, self.disks
        )
        disk = self.disks[location.disk_id]
        if disk.failed:
            # Local disk death: this cub is alive and knows immediately
            # (I/O errors), so mirrors cover the block and the chain
            # moves on (§4.1.1) without waiting for a deadman.
            self._carry_out(self.owner.reroute(self.sim.now, state))
            return
        if state.due_time <= self.sim.now + _EPS:
            # Arrived behind its deadline (e.g. a chain catching up
            # after a failover gap): the block cannot be sent on time.
            self.server_missed_blocks.increment()
        else:
            self._schedule_block_service(state, disk, location)
        self.owner.forward_queue.append(state)

    def _queue_service(self, record: _Service) -> None:
        """One record, two appends: the bucket of its read's issue time
        and the bucket of its due time.

        All service sharing a fire time rides one kernel event (the
        bucket drain), so a loaded cub schedules one heap entry per
        distinct deadline instead of one per viewer.  Nothing here can
        be cancelled: a deschedule leaves the records in place and the
        read and the send consult the tombstone when they fire (see
        :meth:`_on_deschedule` for why it is still there).  A disk death
        marks its unsent records aborted in place.

        The read is issued ``disk_read_lead`` ahead, floored to the
        cub's slot-period grid — a read may run *early* (it has the
        whole lead of slack; a send never may, its exact due time is
        the protocol's service discipline) — which batches the
        1-per-disk-per-period reads into a single per-slot-period tick.
        """
        buckets = self._service_buckets
        config = self.config
        now = self.sim.now
        due_time = record.state.due_time
        read_time = due_time - config.disk_read_lead
        if not read_time > now:
            read_time = now
        period = config.block_service_time
        floored = int(read_time / period) * period
        if floored > read_time:  # float-division rounding guard
            floored -= period
        read_time = floored if floored > now else now
        bucket = buckets.get(read_time) or self._open_bucket(read_time)
        bucket[1].append(record)
        bucket = buckets.get(due_time) or self._open_bucket(due_time)
        bucket[2].append(record)

    def _open_bucket(
        self, when: float
    ) -> Tuple[Event, List[_Service], List[_Service]]:
        """A new, empty bucket for fire time ``when`` and its drain event."""
        drain = self.sim.call_at(when, self._drain_service_bucket, when)
        bucket = self._service_buckets[when] = (drain, [], [])
        if when > self._latest_service_deadline:
            self._latest_service_deadline = when
        return bucket

    def _drain_service_bucket(self, when: float) -> None:
        """The batched tick: issue every read, then make every send, due
        at ``when``.  A state's read is always strictly earlier than its
        send, and the reads and sends of different states share nothing
        but the tombstones they only look at, so draining by kind keeps
        the order that matters: reads among reads (the drives' queues
        and random streams), sends among sends (the wire)."""
        _drain, reads, sends = self._service_buckets.pop(when)
        for record in reads:
            self._issue_read(record)
        for record in sends:
            if type(record.state) is ViewerState:
                self._transmit_block(record)
            else:
                self._transmit_mirror_piece(record)

    def pending_service_records(self) -> Iterator[Tuple[float, str, Any]]:
        """Read-only walk of the pending table: ``(fire time, "read" |
        "send", state)`` for every read not yet issued and every send
        not yet made, less the sends a disk death aborted.  For tests
        and monitors; the service path never walks the table."""
        for when, (_drain, reads, sends) in self._service_buckets.items():
            for record in reads:
                yield when, "read", record.state
            for record in sends:
                if not record.aborted:
                    yield when, "send", record.state

    def _schedule_block_service(
        self, state: ViewerState, disk: SimDisk, location: BlockLocation
    ) -> None:
        """Issue the read ahead of time; transmit exactly at the due time.

        ``location`` is where the block index located the read (see
        :meth:`BlockIndex.locate`).
        """
        self._queue_service(_Service(state, disk, location))

    def _issue_read(self, record: _Service) -> None:
        """Start the disk read for a viewer state or mirror piece."""
        state = record.state
        if self.view.has_tombstone(state.viewer_id, state.instance, state.slot):
            return  # descheduled since it was accepted: nothing to read
        location = record.location
        record.read = record.disk.read(location.size_bytes, location.zone)

    def _transmit_block(self, record: _Service) -> None:
        """The disk pointer reached the slot: put the block on the wire."""
        if record.aborted:
            # The disk died after this send was scheduled; mirror
            # coverage already replaced it.
            return
        state = record.state
        if self.view.has_tombstone(state.viewer_id, state.instance, state.slot):
            return
        entry = self.catalog.get(state.file_id)
        final = state.block_index >= entry.num_blocks - 1
        read = record.read
        # A drive that died with the read in flight says "not finished":
        # that is how a disk dying mid-read reaches the miss counter.
        if read is None or not record.disk.finished(read):
            # The read missed its deadline — the paper's server-side
            # "failed to place a block on the network" event.
            self.server_missed_blocks.increment()
            self.trace(
                "block.miss",
                "read not complete at due time",
                viewer=state.viewer_id,
                block=state.block_index,
            )
        else:
            if self.tracer.enabled:
                # Span covering the service window: read lead to wire.
                self.trace_span(
                    max(0.0, state.due_time - self.config.disk_read_lead),
                    "block.service",
                    "served block",
                    viewer=state.viewer_id,
                    block=state.block_index,
                    slot=state.slot,
                    disk=state.disk_id,
                )
            payload = BlockData(
                viewer_id=state.viewer_id,
                instance=state.instance,
                file_id=state.file_id,
                block_index=state.block_index,
                play_seqno=state.play_seqno,
                final=final,
                pattern=block_pattern(state.file_id, state.block_index),
            )
            size = entry.content_bytes_per_block
            config = self.config
            now = self.sim.now
            self.network.send_paced(
                Message(
                    self.address,
                    _client_address(state.viewer_id),
                    payload,
                    size,
                    kind=KIND_DATA,
                ),
                pacing_duration=config.block_play_time,
            )
            self.cpu.add_busy(now, size * config.cpu_per_data_byte)
            self.blocks_sent.increment()
            # The load estimate's window, trimmed here as it slides (see
            # local_load_estimate): the send just appended is never older
            # than the horizon, so the loop stops at it at the latest.
            sends = self._recent_send_times
            sends.append(now)
            horizon = now - self._send_window
            while sends[0] < horizon:
                sends.popleft()
        if final:
            self._finish_play(state)

    def _pump(self) -> None:
        """Forward every state whose window opened; prune old records."""
        self._pump_ticks += 1
        if self._pump_ticks % 4 == 0:
            self.owner.prune(self.sim.now)
        self._pump_forward()

    def _pump_forward(self) -> None:
        owner = self.owner
        if not owner.forward_queue and not owner.mirror_forward_queue:
            return  # an idle cub's every pump tick
        outgoing, mirrors_out, missed = owner.take_forwards(self.sim.now)
        for _piece in missed:
            self.mirror_pieces_missed.increment()
        if not outgoing and not mirrors_out:
            return
        # Batched forwarding: viewer states go to the successor *and*
        # second successor (§4.1.1's double forwarding); mirror states
        # ride only the first copy — each hop re-forwards what is still
        # downstream, so per-cub control traffic roughly doubles in
        # failed mode, as the paper measured.
        destinations = self.deadman.living_successors(self.forward_copies)
        self._send_states(destinations, outgoing, mirrors_out)
        self.viewer_states_forwarded.increment(len(outgoing))
        if self.tracer.enabled:
            # One record per batch; `to` lists successor and (when the
            # ring allows) second successor — the §4.1.1 double forward.
            self.trace("vstate.forward", f"forwarded {len(outgoing)} states, "
                       f"{len(mirrors_out)} mirrors", count=len(outgoing),
                       mirrors=len(mirrors_out), to=list(destinations))

    def _send_states(self, destinations, states, mirrors) -> None:
        """The one batch send: ``states`` to every cub of
        ``destinations``, ``mirrors`` with the first copy only."""
        for index, destination in enumerate(destinations):
            batch = ViewerStateBatch(tuple(states), tuple(mirrors) if index == 0 else ())
            if not len(batch):
                continue
            size = BATCH_HEADER_BYTES + VIEWER_STATE_BYTES * len(batch)
            self.network.send(Message(self.address, cub_address(destination), batch, size))
            self.cpu.add_busy(self.sim.now, self.config.cpu_per_control_msg)

    # ==================================================================
    # Mirror pieces (§2.3, §4.1.1)
    # ==================================================================
    def _serve_mirror_piece(self, mirror_state: MirrorViewerState) -> None:
        disk = self.disks[mirror_state.disk_id]
        if disk.failed:
            self.pieces_lost_to_second_failure.increment()
            return
        if mirror_state.due_time <= self.sim.now + _EPS:
            self.mirror_pieces_missed.increment()
            return
        location = self.block_index.lookup_secondary(
            mirror_state.file_id, mirror_state.block_index, mirror_state.piece
        )
        if location is None:
            raise RuntimeError(
                f"{self.name}: no secondary index entry for file "
                f"{mirror_state.file_id} block {mirror_state.block_index} "
                f"piece {mirror_state.piece}"
            )
        self._queue_service(_Service(mirror_state, disk, location))

    def _transmit_mirror_piece(self, record: _Service) -> None:
        mirror_state = record.state
        if self.view.has_tombstone(
            mirror_state.viewer_id, mirror_state.instance, mirror_state.slot
        ):
            return
        read = record.read
        if read is None or not record.disk.finished(read):
            self.mirror_pieces_missed.increment()
            return
        entry = self.catalog.get(mirror_state.file_id)
        piece_bytes = -(-entry.content_bytes_per_block // mirror_state.decluster)
        payload = BlockData(
            viewer_id=mirror_state.viewer_id,
            instance=mirror_state.instance,
            file_id=mirror_state.file_id,
            block_index=mirror_state.block_index,
            play_seqno=mirror_state.play_seqno,
            piece=mirror_state.piece,
            total_pieces=mirror_state.decluster,
            final=mirror_state.block_index >= entry.num_blocks - 1,
            pattern=block_pattern(
                mirror_state.file_id, mirror_state.block_index
            ),
        )
        self.network.send_paced(
            Message(
                self.address,
                _client_address(mirror_state.viewer_id),
                payload,
                piece_bytes,
                kind=KIND_DATA,
            ),
            pacing_duration=self.config.block_play_time / mirror_state.decluster,
        )
        self.cpu.add_busy(self.sim.now, piece_bytes * self.config.cpu_per_data_byte)
        self.mirror_pieces_sent.increment()

    def on_local_disk_failed(self, disk_id: int) -> None:
        """One of my disks died while the cub survives.

        Unlike a cub death, no deadman latency applies: the cub sees
        the I/O errors immediately and takes the mirror decision itself
        for every block already scheduled on the dead drive, in due-time
        order.  A send due now is already being transmitted (or missed).
        """
        buckets = self._service_buckets
        now = self.sim.now
        for when in sorted(when for when in buckets if when > now + _EPS):
            for record in buckets[when][2]:
                state = record.state
                if (
                    type(state) is ViewerState
                    and state.disk_id == disk_id
                    and not record.aborted
                ):
                    record.aborted = True
                    self._carry_out(self.owner.cover(now, state))

    # ==================================================================
    # Deschedule handling (§4.1.2)
    # ==================================================================
    def _on_deschedule(self, forward: DescheduleForward, _sender: str) -> None:
        """Apply one deschedule (:meth:`ScheduleOwner.deschedule`), then
        pass it on while it can still outrun a viewer state."""
        request = forward.request
        # The tombstone cancels the play's pending service and queued
        # forwards, so it must outlive them.  The protocol's hold covers
        # a state accepted max_vstate_lead ahead (plus a block play time
        # per dead cub bridged); the table's latest deadline makes it
        # true by construction (DESIGN.md §5.1).
        config = self.config
        expiry = self.sim.now + config.max_vstate_lead + config.deschedule_hold
        if not self.owner.deschedule(
            self.sim.now, request, max(expiry, self._latest_service_deadline)
        ):
            return  # duplicate — idempotent
        if self.tracer.enabled:
            self.trace(
                "deschedule",
                "applied deschedule tombstone",
                viewer=request.viewer_id,
                slot=request.slot,
            )

        # Forward until the tombstone has outrun every possible viewer
        # state: stop once our own visit is > maxVStateLead away.
        my_next_visit = min(
            self.clock.visit_time(disk_id, request.slot, self.sim.now)
            for disk_id in self.disks
        )
        if my_next_visit - self.sim.now <= self.config.max_vstate_lead:
            size = DESCHEDULE_BYTES
            for destination in self.deadman.living_successors(self.forward_copies):
                self.network.send(
                    Message(
                        self.address,
                        cub_address(destination),
                        DescheduleForward(request),
                        size,
                    )
                )
                self.cpu.add_busy(self.sim.now, self.config.cpu_per_control_msg)
            self.deschedules_forwarded.increment()

    # ==================================================================
    # Insertion (§4.1.3)
    # ==================================================================
    def _on_start_request(self, request: StartRequest, _sender: str) -> None:
        disk_id = self.owner.start_request(self.sim.now, request)
        if disk_id is not None:
            self._arm_scan(disk_id)

    def _on_cancel_start(self, cancel: CancelStart, _sender: str) -> None:
        self.owner.cancel_start(self.sim.now, cancel.instance)

    def _arm_scan(self, disk_id: int) -> None:
        """Schedule the next ownership instant for ``disk_id``'s queue."""
        pending = self._scan_events.get(disk_id)
        if pending is not None and pending.active:
            return
        instant = self.owner.next_instant(self.sim.now, disk_id)
        if instant is not None:
            when, slot, visit = instant
            self._scan_events[disk_id] = self.at(
                when, self._ownership_instant, disk_id, slot, visit
            )

    def local_load_estimate(self) -> float:
        """Schedule load inferred from this cub's own recent sends.

        At load rho each of our disks serves ``rho x visits/s`` blocks,
        so the send rate over the last few seconds, normalized by our
        disks' total visit rate, estimates rho with no global state —
        a view-local quantity, in the spirit of §4.
        """
        window = self._send_window
        horizon = self.sim.now - window
        sends = self._recent_send_times
        while sends and sends[0] < horizon:
            sends.popleft()
        if self.sim.now < window:  # not enough history yet
            return 0.0
        visits_per_second = (
            len(self.disks)
            * self.clock.visits_per_block_play_time()
            / self.config.block_play_time
        )
        return len(sends) / (window * visits_per_second)

    def _admission_blocked(self) -> bool:
        limit = self.config.admission_load_limit
        return limit is not None and self.local_load_estimate() >= limit

    def _ownership_instant(self, disk_id: int, slot: int, visit: float) -> None:
        """This cub now owns (slot, visit): insert what the owner picks."""
        self._scan_events.pop(disk_id, None)
        state = self.owner.ownership_instant(
            self.sim.now, disk_id, slot, visit, self._admission_blocked
        )
        if state is REJECT:
            self.admission_rejects.increment()
            if self.tracer.enabled:
                self.trace(
                    "admission.reject",
                    "ownership instant skipped by admission guard",
                    slot=slot,
                    disk=disk_id,
                    queued=self.owner.queued(disk_id),
                )
        elif state is not None:
            self._insert_viewer(state)
        self._arm_scan(disk_id)

    def _insert_viewer(self, state: ViewerState) -> None:
        """Carry out an insert the owner decided: admit it to the view,
        commit it, then serve its first block and push its state on."""
        viewer_id, slot, disk_id = state.viewer_id, state.slot, state.disk_id
        self.view.admit(state, self.sim.now)
        self.inserts_performed.increment()
        self.trace(
            "insert",
            "scheduled viewer",
            viewer=viewer_id,
            slot=slot,
            disk=disk_id,
            due=state.due_time,
        )
        # Commit: the insertion joins the hallucination once another
        # machine knows about it (§4.3).  Told before the first block is
        # dispatched, so a play that ends inside it ends after its commit.
        self._tell_controllers(
            StartCommitted(viewer_id, state.instance, slot, state.due_time)
        )

        if self.layout.cub_of_disk(disk_id) == self.cub_id:
            # Served like any state for an own disk: read wherever the
            # block index locates the block (a committed migration),
            # and covered by mirrors only if that disk has failed.
            self._accept_own_state(state)
        else:
            # Covering insertion for a dead predecessor's disk: the
            # first block goes out via mirrors, the chain continues here.
            self._carry_out(self.owner.reroute(self.sim.now, state))
        self._pump_forward()

    # ==================================================================
    # End of play
    # ==================================================================
    def _finish_play(self, last_state: ViewerState) -> None:
        """The final block was handled; retire the slot."""
        self._tell_controllers(
            PlayEnded(last_state.viewer_id, last_state.instance, last_state.slot)
        )

    def _tell_controllers(self, payload: Any) -> None:
        for controller in self.controller_addresses:
            self.network.send(
                Message(self.address, controller, payload, DESCHEDULE_BYTES)
            )

    # ==================================================================
    # Heartbeats, bookkeeping
    # ==================================================================
    def _send_heartbeats(self) -> None:
        send = self.network.send
        source, beat = self.address, self._heartbeat
        for address in self._heartbeat_to:
            send(Message(source, address, beat, HEARTBEAT_BYTES))

    def _deadman_check(self) -> None:
        for cub_id in self.deadman.check(self.sim.now):
            self._on_verdict(cub_id, False)

    def _on_verdict(self, cub_id: int, alive: bool) -> None:
        """A deadman verdict: ``cub_id`` is back, or it is dead (silent
        past the timeout, or rebooted unseen).  Count and trace it, then
        carry out what the owner adopts."""
        if alive:
            self.deadman_resurrections.increment()
            self.trace("deadman.resurrect", f"heard cub {cub_id} again, believing it alive",
                       watched=cub_id)
        else:
            self.trace("deadman", f"declared cub {cub_id} failed")
        records, disks = self.owner.membership(self.sim.now, cub_id, alive)
        self._carry_out(records)
        for disk_id in disks:
            self._arm_scan(disk_id)

    def _state_is_final(self, state: ViewerState) -> bool:
        return state.block_index >= self.catalog.get(state.file_id).num_blocks - 1

    # ==================================================================
    # Measurement helpers
    # ==================================================================
    def cpu_utilization(self, now: Optional[float] = None) -> float:
        return self.cpu.utilization(self.sim.now if now is None else now)

    def mean_disk_utilization(self, now: Optional[float] = None) -> float:
        moment = self.sim.now if now is None else now
        values = [disk.utilization(moment) for disk in self.disks.values()]
        return sum(values) / len(values)

    def reset_measurement(self) -> None:
        self.cpu.reset(self.sim.now)
        for disk in self.disks.values():
            disk.reset_measurement()


def _client_address(viewer_id: str) -> str:
    """Viewers are named ``<client-address>#<stream>``; data goes to the
    client machine's network address."""
    return viewer_id.split("#", 1)[0]
