"""The Tiger controller (paper §2.1, §4.1.2-4.1.3).

The controller is deliberately lightweight: it is the clients' contact
point, forwards start requests to the cub holding the viewer's first
block (plus that cub's successor, for redundancy), routes deschedule
requests to whichever cub is currently serving the viewer, and acts as
system clock master.  It holds *no* schedule state beyond a per-play
record of the slot each committed viewer occupies — which is exactly
why its load stays flat as the system grows (Figures 8/9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import TigerConfig
from repro.core.protocol import (
    CONTROLLER_ADDRESS,
    CancelStart,
    ClientStart,
    ClientStop,
    DescheduleForward,
    PlayEnded,
    StartCommitted,
    StartRequest,
    cub_address,
)
from repro.core.slots import SlotClock
from repro.core.viewerstate import DescheduleRequest
from repro.net.message import DESCHEDULE_BYTES, REQUEST_BYTES, Message
from repro.net.node import NetworkNode
from repro.net.switch import SwitchedNetwork
from repro.obs.registry import MetricsRegistry
from repro.sim.core import Simulator
from repro.sim.stats import BusyMeter
from repro.sim.trace import Tracer
from repro.storage.catalog import Catalog
from repro.storage.layout import StripeLayout

#: Sentinel "cub id" used in primary-to-backup controller heartbeats.
CONTROLLER_HEARTBEAT_ID = -1
#: Sentinel "cub id" an *active* backup beacons at the primary address:
#: a resurrected primary that hears it knows a takeover happened and
#: demotes itself (split-brain prevention).
BACKUP_ACTIVE_HEARTBEAT_ID = -2


@dataclass
class PlayRecord:
    """What the controller knows about one play instance."""

    viewer_id: str
    instance: int
    file_id: int
    first_block: int
    request_time: float
    slot: Optional[int] = None
    committed_at: Optional[float] = None
    stop_requested: bool = False
    ended: bool = False


class Controller(NetworkNode):
    """Client contact point and request router."""

    def __init__(
        self,
        sim: Simulator,
        config: TigerConfig,
        layout: StripeLayout,
        catalog: Catalog,
        clock: SlotClock,
        network: SwitchedNetwork,
        tracer: Optional[Tracer] = None,
        address: str = CONTROLLER_ADDRESS,
        active: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(sim, address, tracer)
        self.config = config
        self.layout = layout
        self.catalog = catalog
        self.clock = clock
        self.network = network
        #: An inactive controller (the backup before takeover) tracks
        #: state but routes nothing.
        self.active = active
        #: Where to replicate play-record changes (the failover
        #: extension); None runs the paper's single-controller setup.
        self.backup_address: Optional[str] = None
        self.cpu = BusyMeter(sim.now)
        self.plays: Dict[int, PlayRecord] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self.starts_routed = self.registry.counter(
            "controller.starts_routed",
            help="Client start requests routed to cubs",
            unit="requests", controller=address)
        self.stops_routed = self.registry.counter(
            "controller.stops_routed",
            help="Client stop requests routed to cubs",
            unit="requests", controller=address)
        # Clock mastering and system monitoring: a small constant load
        # independent of stream count — the flat controller line of
        # Figures 8/9.
        self.every(0.1, self._clock_master_tick)

    def _clock_master_tick(self) -> None:
        self.cpu.add_busy(self.sim.now, 0.002)

    def attach_backup(self, backup_address: str) -> None:
        """Start replicating to (and heartbeating) a backup controller."""
        self.backup_address = backup_address
        self._start_backup_heartbeat()

    def _start_backup_heartbeat(self) -> None:
        from repro.core.protocol import Heartbeat

        backup_address = self.backup_address
        self.every(
            self.config.heartbeat_interval,
            lambda: self.network.send(
                Message(
                    self.address,
                    backup_address,
                    Heartbeat(CONTROLLER_HEARTBEAT_ID),
                    DESCHEDULE_BYTES,
                )
            ),
        )

    def recover(self) -> None:
        """Power back on; ``fail`` cancelled the timers, so restart them.

        The controller comes back believing it is active; if a backup
        took over in the meantime its active beacons demote us within
        one heartbeat interval (see :meth:`_on_controller_heartbeat`).
        """
        super().recover()
        self.every(0.1, self._clock_master_tick)
        if self.backup_address is not None:
            self._start_backup_heartbeat()

    def _replicate(self, kind: str, record: PlayRecord) -> None:
        if self.backup_address is None:
            return
        from repro.core.protocol import ReplicaUpdate

        self.network.send(
            Message(
                self.address,
                self.backup_address,
                ReplicaUpdate(
                    kind=kind,
                    viewer_id=record.viewer_id,
                    instance=record.instance,
                    file_id=record.file_id,
                    first_block=record.first_block,
                    slot=record.slot,
                    request_time=record.request_time,
                ),
                DESCHEDULE_BYTES,
            )
        )

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        from repro.core.protocol import Heartbeat, ReplicaUpdate

        payload = message.payload
        if isinstance(payload, ClientStart):
            self._on_client_start(payload)
        elif isinstance(payload, ClientStop):
            self._on_client_stop(payload)
        elif isinstance(payload, StartCommitted):
            self._on_start_committed(payload)
        elif isinstance(payload, PlayEnded):
            self._on_play_ended(payload)
        elif isinstance(payload, ReplicaUpdate):
            self.apply_replica_update(payload)
        elif isinstance(payload, Heartbeat):
            self._on_controller_heartbeat(payload)
        else:
            raise TypeError(
                f"controller: unexpected payload {type(payload).__name__}"
            )

    def apply_replica_update(self, update) -> None:  # pragma: no cover
        """Only meaningful on a backup; see BackupController."""

    def _on_controller_heartbeat(self, beat) -> None:
        """Controller-to-controller liveness traffic.

        On the primary the only expected beat is an active backup's
        :data:`BACKUP_ACTIVE_HEARTBEAT_ID`: it means the backup took
        over while we were dead, so we demote ourselves rather than run
        two active controllers (split-brain).  The backup keeps the
        leadership it claimed — the simplest policy with one transition.
        """
        if beat.cub_id == BACKUP_ACTIVE_HEARTBEAT_ID and self.active:
            self.active = False
            self.trace(
                "failover",
                "primary demoted itself after hearing active backup",
            )

    def _on_client_start(self, request: ClientStart) -> None:
        self.cpu.add_busy(self.sim.now, self.config.cpu_per_request)
        if request.instance in self.plays:
            return  # duplicate (a client retry that raced the ack)
        if not self.active:
            return  # passive backup ignores direct client traffic
        entry = self.catalog.get(request.file_id)
        target_disk = self.layout.disk_of_block(
            entry.start_disk, request.first_block
        )
        # Startup latency is charged from the *client's* request time
        # when the client supplies it; the controller's receive time is
        # only the fallback.  Admission-time stamping silently excluded
        # the wait a request spends queued behind a full schedule.
        request_time = (
            request.request_time
            if request.request_time >= 0.0
            else self.sim.now
        )
        record = PlayRecord(
            viewer_id=request.viewer_id,
            instance=request.instance,
            file_id=request.file_id,
            first_block=request.first_block,
            request_time=request_time,
        )
        self.plays[request.instance] = record
        primary_cub = self.layout.cub_of_disk(target_disk)
        successor_cub = self.layout.next_cub(primary_cub)
        for cub, redundant in ((primary_cub, False), (successor_cub, True)):
            forwarded = StartRequest(
                viewer_id=request.viewer_id,
                instance=request.instance,
                file_id=request.file_id,
                first_block=request.first_block,
                target_disk=target_disk,
                request_time=request_time,
                redundant=redundant,
            )
            self.network.send(
                Message(self.address, cub_address(cub), forwarded, REQUEST_BYTES)
            )
        self._acknowledge(request)
        self._replicate("start", record)
        self.starts_routed.increment()

    def _acknowledge(self, request: ClientStart) -> None:
        from repro.core.protocol import StartAck

        client_address = request.viewer_id.split("#", 1)[0]
        self.network.send(
            Message(
                self.address,
                client_address,
                StartAck(request.instance, self.address),
                DESCHEDULE_BYTES,
            )
        )

    def _on_start_committed(self, committed: StartCommitted) -> None:
        record = self.plays.get(committed.instance)
        if record is None:
            return
        record.slot = committed.slot
        record.committed_at = self.sim.now
        if record.stop_requested and self.active:
            self._issue_deschedule(record)

    def _on_client_stop(self, stop: ClientStop) -> None:
        self.cpu.add_busy(self.sim.now, self.config.cpu_per_request)
        record = self.plays.get(stop.instance)
        if record is None or record.ended:
            return
        record.stop_requested = True
        self._replicate("stopped", record)
        if not self.active:
            return  # remembered; acted on if we ever take over
        if record.slot is not None:
            self._issue_deschedule(record)
        else:
            # Not yet scheduled: withdraw the queued request everywhere
            # it might be waiting.
            entry = self.catalog.get(record.file_id)
            target_disk = self.layout.disk_of_block(
                entry.start_disk, record.first_block
            )
            primary_cub = self.layout.cub_of_disk(target_disk)
            cancel = CancelStart(record.viewer_id, record.instance)
            for cub in (primary_cub, self.layout.next_cub(primary_cub)):
                self.network.send(
                    Message(
                        self.address, cub_address(cub), cancel, DESCHEDULE_BYTES
                    )
                )
        self.stops_routed.increment()

    def _issue_deschedule(self, record: PlayRecord) -> None:
        """Route a deschedule to the serving cub and its successor.

        "The controller determines from which cub the viewer is
        receiving data, and forwards the request on to that cub and its
        successor" (§4.1.2).  The serving cub follows from the slot and
        the current time via the lockstep pointer arithmetic.
        """
        request = DescheduleRequest(
            viewer_id=record.viewer_id,
            instance=record.instance,
            slot=record.slot,
            issue_time=self.sim.now,
        )
        serving_disk = self.clock.serving_disk(record.slot, self.sim.now)
        serving_cub = self.layout.cub_of_disk(serving_disk)
        for cub in (serving_cub, self.layout.next_cub(serving_cub)):
            self.network.send(
                Message(
                    self.address,
                    cub_address(cub),
                    DescheduleForward(request),
                    DESCHEDULE_BYTES,
                )
            )
        record.ended = True

    def _on_play_ended(self, ended: PlayEnded) -> None:
        record = self.plays.get(ended.instance)
        if record is not None:
            record.ended = True

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def cpu_utilization(self, now: Optional[float] = None) -> float:
        return self.cpu.utilization(self.sim.now if now is None else now)

    def reset_measurement(self) -> None:
        self.cpu.reset(self.sim.now)
