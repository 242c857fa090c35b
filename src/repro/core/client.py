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
from typing import Any, Callable, Dict, List, Optional, Set

from repro.config import TigerConfig
from repro.core.controller import CONTROLLER_ADDRESS
from repro.core.protocol import (
    BlockData,
    ClientStart,
    ClientStop,
    StartAck,
    block_pattern,
)
from repro.core.viewerstate import new_instance_id
from repro.net.message import REQUEST_BYTES, Message
from repro.net.node import NetworkNode
from repro.net.switch import SwitchedNetwork
from repro.sim.core import Simulator
from repro.sim.trace import Tracer
from repro.storage.catalog import Catalog

#: Seconds past its play deadline a block may arrive and still count
#: as on time.
LATE_TOLERANCE = 0.5


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

    def start_request(self) -> ClientStart:
        """What asks a controller to schedule this play."""
        return ClientStart(self.viewer_id, self.instance, self.file_id,
                           self.first_block, request_time=self.request_time)

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
        backup_controller: Optional[str] = None,
        ack_timeout: float = 2.0,
        registry=None,
    ) -> None:
        super().__init__(sim, address, tracer)
        self.config = config
        self.catalog = catalog
        self.network = network
        self.late_tolerance = LATE_TOLERANCE
        #: Failover extension: retry unacknowledged starts here.
        self.backup_controller = backup_controller
        self.ack_timeout = ack_timeout
        #: Optional metrics sink for per-tier lateness.
        self.registry = registry
        #: Block-lateness series by the address blocks came from.
        self._lateness_histograms: Dict[str, object] = {}
        #: Source address -> the ``tier`` label of its lateness series;
        #: any source not named here is the origin tier.
        self.source_tiers: Dict[str, str] = {}
        self._acked: set = set()
        #: VCR bookmarks: paused instance -> (file_id, resume block).
        self._paused: Dict[int, tuple] = {}
        self.streams: Dict[int, StreamMonitor] = {}
        #: Optional callback fired with (monitor,) when a stream finishes.
        self.on_stream_finished: Optional[Callable[[StreamMonitor], None]] = None
        #: Payload type -> ``handler(payload, sender)`` for everything
        #: but block data, which keeps its own fast path.  An optional
        #: tier attached from outside adds its answers here, and may
        #: replace the one start path and the one stop path below.
        self.handlers: Dict[type, Callable[[Any, str], None]] = {
            StartAck: self._on_start_ack,
        }
        #: How a new play is requested, and a stopped one released.
        self.request_play: Callable[[StreamMonitor], None] = self.request_origin
        self.release_play: Callable[[StreamMonitor], None] = self.release_origin

    # ------------------------------------------------------------------
    # Control-plane actions
    # ------------------------------------------------------------------
    def start_stream(self, file_id: int, first_block: int = 0) -> int:
        """Request playback; returns the play instance id."""
        monitor = self.open_stream(file_id, first_block)
        self.request_play(monitor)
        return monitor.instance

    def open_stream(self, file_id: int, first_block: int) -> StreamMonitor:
        """A new play instance's monitor, not yet requested."""
        instance = new_instance_id()
        monitor = StreamMonitor(
            viewer_id=f"{self.address}#{instance}",
            instance=instance,
            file_id=file_id,
            first_block=first_block,
            request_time=self.sim.now,
            block_play_time=self.config.block_play_time,
            late_tolerance=self.late_tolerance,
            num_blocks=self.catalog.get(file_id).num_blocks,
        )
        self.streams[instance] = monitor
        return monitor

    def send_request(self, destination: str, payload: Any) -> None:
        """A control message from this viewer."""
        self.network.send(
            Message(self.address, destination, payload, REQUEST_BYTES)
        )

    def request_origin(self, monitor: StreamMonitor) -> None:
        """The classic start path: ask the controller for a slot."""
        self.send_request(CONTROLLER_ADDRESS, monitor.start_request())
        if self.backup_controller is not None:
            self.after(self.ack_timeout, self._retry_unacked, monitor)

    def _retry_unacked(self, monitor: StreamMonitor) -> None:
        """No acknowledgement: the primary may be dead — ask the backup,
        until someone answers, data flows or the stream is stopped."""
        if (
            monitor.instance in self._acked
            or monitor.stopped
            or monitor.first_block_time is not None
        ):
            return
        self.send_request(self.backup_controller, monitor.start_request())
        self.after(self.ack_timeout, self._retry_unacked, monitor)

    def _on_start_ack(self, ack: StartAck, _sender: str) -> None:
        self._acked.add(ack.instance)

    def stop_stream(self, instance: int) -> None:
        monitor = self.streams.get(instance)
        if monitor is None or monitor.stopped:
            return
        monitor.stopped = True
        self.release_play(monitor)

    def release_origin(self, monitor: StreamMonitor) -> None:
        """The classic stop path: every controller releases the slot."""
        stop = ClientStop(monitor.viewer_id, monitor.instance)
        self.send_request(CONTROLLER_ADDRESS, stop)
        if self.backup_controller is not None:
            self.send_request(self.backup_controller, stop)

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

    def _observe_lateness(self, monitor: StreamMonitor, payload: BlockData,
                          source: str) -> None:
        """Per-tier block-lateness histogram (0 for on-time blocks)."""
        if self.registry is None or monitor.first_block_time is None:
            return
        histogram = self._lateness_histograms.get(source)
        if histogram is None:
            histogram = self.registry.histogram(
                "client.block_lateness",
                help="Arrival delay past a block's nominal due time",
                unit="s", tier=self.source_tiers.get(source, "origin"),
            )
            self._lateness_histograms[source] = histogram
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
            handler = self.handlers.get(type(payload))
            if handler is None:
                raise TypeError(
                    f"{self.name}: unexpected payload {type(payload).__name__}"
                )
            handler(payload, message.src)
            return
        monitor = self.streams.get(payload.instance)
        if monitor is None:
            return  # stream already torn down
        was_finished = monitor.finished
        monitor.on_block(payload, self.sim.now)
        self._observe_lateness(monitor, payload, message.src)
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
