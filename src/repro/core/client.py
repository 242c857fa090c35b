"""Viewer clients (paper §5's measurement client).

The paper's data-collection client "does not render any video, but
rather simply makes sure that the expected data arrives on time", with
each client machine receiving many simultaneous streams.  Ours does the
same: per stream it records startup latency (request to last byte of
the first block), sequence gaps (blocks the server never sent), late
blocks, and the times of losses (which the reconfiguration experiment
uses to measure the failover window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.config import TigerConfig
from repro.core.controller import CONTROLLER_ADDRESS
from repro.core.protocol import (
    BlockData,
    ClientStart,
    ClientStop,
    HelperCancel,
    HelperHit,
    HelperMiss,
    HelperProbe,
    StartAck,
    block_pattern,
)
from repro.core.viewerstate import new_instance_id
from repro.helpers.directory import HelperDirectory
from repro.net.message import REQUEST_BYTES, Message
from repro.net.node import NetworkNode
from repro.net.switch import SwitchedNetwork
from repro.sim.core import Simulator
from repro.sim.trace import Tracer
from repro.storage.catalog import Catalog


@dataclass
class StreamMonitor:
    """Reception bookkeeping for one play instance."""

    viewer_id: str
    instance: int
    file_id: int
    first_block: int
    request_time: float
    block_play_time: float
    late_tolerance: float
    num_blocks: int

    first_block_time: Optional[float] = None
    next_seqno: int = 0
    blocks_received: int = 0
    blocks_missed: int = 0
    blocks_late: int = 0
    #: Blocks whose content fingerprint did not match what this viewer
    #: should be receiving (cross-wired file/position) — the paper's
    #: clients verified "the expected data arrives on time".
    blocks_corrupt: int = 0
    loss_times: List[float] = field(default_factory=list)
    finished: bool = False
    stopped: bool = False
    #: Partial mirror-piece assembly: seqno -> set of received pieces.
    _pieces: Dict[int, Set[int]] = field(default_factory=dict)
    _piece_targets: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def startup_latency(self) -> Optional[float]:
        if self.first_block_time is None:
            return None
        return self.first_block_time - self.request_time

    def deadline(self, seqno: int) -> float:
        """Latest acceptable arrival of block ``seqno``'s last byte."""
        if self.first_block_time is None:
            return float("inf")
        return self.first_block_time + seqno * self.block_play_time + self.late_tolerance

    # ------------------------------------------------------------------
    def on_block(self, data: BlockData, now: float) -> None:
        """Handle one data message (whole block or mirror piece)."""
        if self.stopped or self.finished:
            return
        expected_block = self.first_block + data.play_seqno
        expected_pattern = block_pattern(self.file_id, expected_block)
        if (
            data.file_id != self.file_id
            or data.block_index != expected_block
            or (data.pattern and data.pattern != expected_pattern)
        ):
            self.blocks_corrupt += 1
            return
        seqno = data.play_seqno
        if data.piece is not None:
            pieces = self._pieces.setdefault(seqno, set())
            pieces.add(data.piece)
            self._piece_targets[seqno] = data.total_pieces
            if len(pieces) < data.total_pieces:
                return  # block not yet complete
            del self._pieces[seqno]
            del self._piece_targets[seqno]
        self._complete_block(seqno, now, data.final)

    def _complete_block(self, seqno: int, now: float, final: bool) -> None:
        if seqno < self.next_seqno:
            return  # stale duplicate
        if self.first_block_time is None:
            self.first_block_time = now
        if seqno > self.next_seqno:
            # Sequence gap: those blocks never arrived (or arrived only
            # partially — purge stale piece assemblies so they are not
            # double-counted at finalize).
            gap = seqno - self.next_seqno
            self.blocks_missed += gap
            self.loss_times.extend([now] * gap)
            for stale in [s for s in self._pieces if s < seqno]:
                del self._pieces[stale]
                self._piece_targets.pop(stale, None)
        if now > self.deadline(seqno):
            self.blocks_late += 1
            self.loss_times.append(now)
        self.blocks_received += 1
        self.next_seqno = seqno + 1
        if final:
            self.finished = True

    def finalize(self, now: float) -> None:
        """Account for a silently truncated stream (end of experiment).

        Only blocks whose deadline has already passed count as missed;
        assemblies still in flight when the experiment stops are not
        losses.
        """
        for seqno, pieces in list(self._pieces.items()):
            target = self._piece_targets.get(seqno, len(pieces) + 1)
            if len(pieces) < target and now > self.deadline(seqno):
                self.blocks_missed += 1
                self.loss_times.append(now)
        self._pieces.clear()
        self._piece_targets.clear()

    @property
    def expected_total(self) -> int:
        return self.num_blocks - self.first_block


class ViewerClient(NetworkNode):
    """One client machine; may receive many simultaneous streams."""

    def __init__(
        self,
        sim: Simulator,
        address: str,
        config: TigerConfig,
        catalog: Catalog,
        network: SwitchedNetwork,
        tracer: Optional[Tracer] = None,
        late_tolerance: float = 0.5,
        backup_controller: Optional[str] = None,
        ack_timeout: float = 2.0,
        registry=None,
        probe_timeout: float = 1.5,
    ) -> None:
        super().__init__(sim, address, tracer)
        self.config = config
        self.catalog = catalog
        self.network = network
        self.late_tolerance = late_tolerance
        #: Failover extension: retry unacknowledged starts here.
        self.backup_controller = backup_controller
        self.ack_timeout = ack_timeout
        #: Helper tier: the deterministic file -> helper map of the
        #: config's tier (see :class:`~repro.helpers.directory
        #: .HelperDirectory`).  ``None`` (or an inert directory) keeps
        #: the classic start path with zero extra messages.
        self.helper_directory = (
            HelperDirectory(config) if config.helpers > 0 else None
        )
        #: Unanswered probe after this long means the helper is dead;
        #: fall back to the origin tier.
        self.probe_timeout = probe_timeout
        #: Optional metrics sink for per-tier lateness and fallbacks.
        self.registry = registry
        self._lateness_histograms: Dict[str, object] = {}
        self.helper_fallbacks = (
            registry.counter(
                "client.helper_fallbacks",
                help="Helper-served streams rescued via the origin tier",
                unit="streams", client=address)
            if registry is not None else None
        )
        self._acked: set = set()
        #: VCR bookmarks: paused instance -> (file_id, resume block).
        self._paused: Dict[int, tuple] = {}
        #: Probes awaiting a helper's hit/miss answer.
        self._helper_pending: set = set()
        #: Cache-served instances -> serving helper's address.
        self._helper_served: Dict[int, str] = {}
        #: Instances already started against the origin tier (guards
        #: against a probe timeout racing a late HelperMiss).
        self._origin_started: set = set()
        self.streams: Dict[int, StreamMonitor] = {}
        #: Optional callback fired with (monitor,) when a stream finishes.
        self.on_stream_finished: Optional[Callable[[StreamMonitor], None]] = None

    # ------------------------------------------------------------------
    # Control-plane actions
    # ------------------------------------------------------------------
    def start_stream(
        self, file_id: int, first_block: int = 0, origin_only: bool = False
    ) -> int:
        """Request playback; returns the play instance id.

        When a helper directory names an (active) helper for the file,
        the start is a :class:`HelperProbe` to that helper instead of a
        :class:`ClientStart` to the controller: on a hit, the blocks
        come from the helper's cache and the schedule slot is never
        claimed; on a miss — or an unanswered probe, meaning the helper
        is dead — the classic origin path runs.  ``origin_only``
        bypasses the helper tier (used by the fallback path so a dead
        helper is not asked twice).
        """
        instance = new_instance_id()
        viewer_id = f"{self.address}#{instance}"
        entry = self.catalog.get(file_id)
        monitor = StreamMonitor(
            viewer_id=viewer_id,
            instance=instance,
            file_id=file_id,
            first_block=first_block,
            request_time=self.sim.now,
            block_play_time=self.config.block_play_time,
            late_tolerance=self.late_tolerance,
            num_blocks=entry.num_blocks,
        )
        self.streams[instance] = monitor
        helper = None
        if not origin_only and self.helper_directory is not None:
            helper = self.helper_directory.helper_for(
                file_id, len(self.catalog)
            )
        if helper is not None:
            self._helper_pending.add(instance)
            self.network.send(
                Message(
                    self.address,
                    helper,
                    HelperProbe(viewer_id, instance, file_id, first_block),
                    REQUEST_BYTES,
                )
            )
            self.after(
                self.probe_timeout, self._helper_probe_timeout, instance
            )
        else:
            self._send_origin_start(monitor)
        return instance

    def _send_origin_start(self, monitor: StreamMonitor) -> None:
        """The classic start path: ask the controller for a slot."""
        if monitor.instance in self._origin_started:
            return
        self._origin_started.add(monitor.instance)
        self.network.send(
            Message(
                self.address,
                CONTROLLER_ADDRESS,
                ClientStart(monitor.viewer_id, monitor.instance,
                            monitor.file_id, monitor.first_block,
                            request_time=monitor.request_time),
                REQUEST_BYTES,
            )
        )
        if self.backup_controller is not None:
            self.after(
                self.ack_timeout, self._retry_unacked, monitor.instance,
                monitor.file_id, monitor.first_block,
            )

    def _retry_unacked(self, instance: int, file_id: int, first_block: int) -> None:
        """No acknowledgement: the primary may be dead — ask the backup."""
        monitor = self.streams.get(instance)
        if instance in self._acked or monitor is None or monitor.stopped:
            return
        if monitor.first_block_time is not None:
            return  # data already flowing
        self.network.send(
            Message(
                self.address,
                self.backup_controller,
                ClientStart(monitor.viewer_id, instance, file_id, first_block,
                            request_time=monitor.request_time),
                REQUEST_BYTES,
            )
        )
        # Keep retrying until someone answers or the stream is stopped.
        self.after(
            self.ack_timeout, self._retry_unacked, instance, file_id, first_block
        )

    def stop_stream(self, instance: int) -> None:
        monitor = self.streams.get(instance)
        if monitor is None or monitor.stopped:
            return
        monitor.stopped = True
        helper = self._helper_served.pop(instance, None)
        if helper is not None:
            # Cache-served play: nothing in the schedule to release.
            self.network.send(
                Message(
                    self.address, helper,
                    HelperCancel(monitor.viewer_id, instance),
                    REQUEST_BYTES,
                )
            )
            return
        if instance in self._helper_pending:
            # Probe in flight: the hit/miss handler sees the stopped
            # monitor and cancels (or never starts) the play.
            return
        destinations = [CONTROLLER_ADDRESS]
        if self.backup_controller is not None:
            destinations.append(self.backup_controller)
        for destination in destinations:
            self.network.send(
                Message(
                    self.address,
                    destination,
                    ClientStop(monitor.viewer_id, instance),
                    REQUEST_BYTES,
                )
            )

    def pause_stream(self, instance: int) -> Optional[int]:
        """VCR pause: stop the play, remembering the position.

        Tiger has no server-side pause — a paused viewer would hold a
        slot while sending nothing, wasting capacity — so pause is a
        deschedule plus a bookmark; resume is a fresh start request at
        the saved block (a new play instance, exactly as §4.1.2's
        instance semantics require).  Returns the block to resume from.
        """
        monitor = self.streams.get(instance)
        if monitor is None or monitor.stopped or monitor.finished:
            return None
        resume_block = monitor.first_block + monitor.next_seqno
        self._paused[instance] = (monitor.file_id, resume_block)
        self.stop_stream(instance)
        return resume_block

    def resume_stream(self, paused_instance: int) -> Optional[int]:
        """VCR resume: start a new play at the paused position.

        Returns the new play instance, or None if nothing was paused.
        """
        bookmark = self._paused.pop(paused_instance, None)
        if bookmark is None:
            return None
        file_id, resume_block = bookmark
        return self.start_stream(file_id, first_block=resume_block)

    # ------------------------------------------------------------------
    # Helper tier: probe answers, death watchdog, fallback
    # ------------------------------------------------------------------
    def _on_helper_hit(self, payload: HelperHit, helper: str) -> None:
        self._helper_pending.discard(payload.instance)
        monitor = self.streams.get(payload.instance)
        if monitor is None or monitor.stopped:
            # Stopped while the probe was in flight: tell the helper.
            self.network.send(
                Message(
                    self.address, helper,
                    HelperCancel(payload.viewer_id, payload.instance),
                    REQUEST_BYTES,
                )
            )
            return
        self._helper_served[payload.instance] = helper
        self.after(
            self.late_tolerance + 2 * self.config.block_play_time,
            self._helper_watchdog, payload.instance,
        )

    def _on_helper_miss(self, payload: HelperMiss) -> None:
        self._helper_pending.discard(payload.instance)
        monitor = self.streams.get(payload.instance)
        if monitor is None or monitor.stopped:
            return
        self._send_origin_start(monitor)

    def _helper_probe_timeout(self, instance: int) -> None:
        """No hit/miss answer: the helper is dead — use the origin."""
        if instance not in self._helper_pending:
            return
        self._helper_pending.discard(instance)
        monitor = self.streams.get(instance)
        if monitor is None or monitor.stopped:
            return
        self.trace(
            "helper.fallback", "probe unanswered, starting at origin",
            viewer=monitor.viewer_id, file=monitor.file_id,
        )
        self._send_origin_start(monitor)

    def _helper_watchdog(self, instance: int) -> None:
        """Detect a helper dying mid-stream; degrade to origin service.

        A helper owns no schedule state, so its death cannot violate an
        invariant — the viewer just stops receiving.  The watchdog
        notices the stall and re-starts the play from the current
        position through the origin tier, mirroring the VCR
        pause/resume semantics (a new play instance, §4.1.2).
        """
        if instance not in self._helper_served:
            return
        monitor = self.streams.get(instance)
        if monitor is None or monitor.stopped or monitor.finished:
            self._helper_served.pop(instance, None)
            return
        bpt = self.config.block_play_time
        if monitor.first_block_time is None:
            # A hit promised data; none ever came.
            stalled = True
        else:
            # Generous bound: a transient cache-fill stall can skip a
            # block (~2 play times) without being read as a death.
            stalled = self.sim.now > monitor.deadline(monitor.next_seqno) + 3 * bpt
        if stalled:
            self._helper_fallback(instance)
        else:
            self.after(bpt, self._helper_watchdog, instance)

    def _helper_fallback(self, instance: int) -> None:
        monitor = self.streams.get(instance)
        self._helper_served.pop(instance, None)
        if monitor is None or monitor.stopped or monitor.finished:
            return
        monitor.stopped = True
        if self.helper_fallbacks is not None:
            self.helper_fallbacks.increment()
        resume_block = monitor.first_block + monitor.next_seqno
        self.trace(
            "helper.fallback", "helper stalled, resuming at origin",
            viewer=monitor.viewer_id, file=monitor.file_id,
            block=resume_block,
        )
        self.start_stream(
            monitor.file_id, first_block=resume_block, origin_only=True
        )

    def _observe_lateness(self, monitor: StreamMonitor, payload: BlockData,
                          tier: str) -> None:
        """Per-tier block-lateness histogram (0 for on-time blocks)."""
        if self.registry is None or monitor.first_block_time is None:
            return
        histogram = self._lateness_histograms.get(tier)
        if histogram is None:
            histogram = self.registry.histogram(
                "client.block_lateness",
                help="Arrival delay past a block's nominal due time",
                unit="s", tier=tier,
            )
            self._lateness_histograms[tier] = histogram
        due = (
            monitor.first_block_time
            + payload.play_seqno * monitor.block_play_time
        )
        histogram.observe(max(0.0, self.sim.now - due))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        payload = message.payload
        if not isinstance(payload, BlockData):  # the rare kinds
            if isinstance(payload, StartAck):
                self._acked.add(payload.instance)
            elif isinstance(payload, HelperHit):
                self._on_helper_hit(payload, message.src)
            elif isinstance(payload, HelperMiss):
                self._on_helper_miss(payload)
            else:
                raise TypeError(
                    f"{self.name}: unexpected payload {type(payload).__name__}"
                )
            return
        monitor = self.streams.get(payload.instance)
        if monitor is None:
            return  # stream already torn down
        was_finished = monitor.finished
        monitor.on_block(payload, self.sim.now)
        tier = "helper" if message.src.startswith("helper:") else "origin"
        self._observe_lateness(monitor, payload, tier)
        if monitor.finished and not was_finished and self.on_stream_finished:
            self.on_stream_finished(monitor)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def all_monitors(self) -> List[StreamMonitor]:
        return list(self.streams.values())

    def total_missed(self) -> int:
        return sum(monitor.blocks_missed for monitor in self.streams.values())

    def total_late(self) -> int:
        return sum(monitor.blocks_late for monitor in self.streams.values())

    def total_received(self) -> int:
        return sum(monitor.blocks_received for monitor in self.streams.values())

    def total_corrupt(self) -> int:
        return sum(monitor.blocks_corrupt for monitor in self.streams.values())
