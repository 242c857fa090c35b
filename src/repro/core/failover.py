"""Controller fault tolerance — the paper's stated future work.

§2.3: "the distributed schedule work described in this paper removes
the major function that the controller in a centralized Tiger system
would have.  The Netshow product group plans on making the remaining
functions of the controller fault tolerant."  This module completes
that plan in the reproduction:

* the primary :class:`~repro.core.controller.Controller` replicates
  each new play record to a :class:`BackupController` and heartbeats
  it;
* cubs report ``StartCommitted`` / ``PlayEnded`` to *both* controllers,
  so the backup's play table tracks slot assignments for free;
* the backup declares the primary dead after a silence threshold and
  goes active;
* clients that receive no acknowledgement retry their request against
  the backup (see :class:`~repro.core.client.ViewerClient`).

The schedule itself needs no help: it never lived on the controller.
"""

from __future__ import annotations

from typing import Optional

from repro.config import TigerConfig
from repro.core.controller import (
    BACKUP_ACTIVE_HEARTBEAT_ID,
    Controller,
    PlayRecord,
)
from repro.core.protocol import (
    BACKUP_CONTROLLER_ADDRESS,
    CONTROLLER_ADDRESS,
    Heartbeat,
    ReplicaUpdate,
)
from repro.core.slots import SlotClock
from repro.net.message import DESCHEDULE_BYTES, Message
from repro.net.switch import SwitchedNetwork
from repro.sim.core import Simulator
from repro.sim.trace import Tracer
from repro.storage.catalog import Catalog
from repro.storage.layout import StripeLayout

#: Sentinel "cub id" used in controller-to-controller heartbeats
#: (re-exported; defined next to the demote logic in controller.py).
from repro.core.controller import CONTROLLER_HEARTBEAT_ID  # noqa: E402


class BackupController(Controller):
    """A passive replica that takes over when the primary goes silent."""

    def __init__(
        self,
        sim: Simulator,
        config: TigerConfig,
        layout: StripeLayout,
        catalog: Catalog,
        clock: SlotClock,
        network: SwitchedNetwork,
        tracer: Optional[Tracer] = None,
        takeover_timeout: Optional[float] = None,
        registry=None,
    ) -> None:
        super().__init__(
            sim, config, layout, catalog, clock, network, tracer,
            address=BACKUP_CONTROLLER_ADDRESS, active=False,
            registry=registry,
        )
        self.takeover_timeout = (
            takeover_timeout
            if takeover_timeout is not None
            else config.deadman_timeout
        )
        self._last_primary_heartbeat = sim.now
        self.took_over_at: Optional[float] = None
        self.every(config.heartbeat_interval, self._check_primary)

    # ------------------------------------------------------------------
    def recover(self) -> None:
        """Restart the primary watchdog after a crash of the backup."""
        super().recover()
        self._last_primary_heartbeat = self.sim.now
        self.every(self.config.heartbeat_interval, self._check_primary)

    # ------------------------------------------------------------------
    def _on_controller_heartbeat(self, beat: Heartbeat) -> None:
        if beat.cub_id == CONTROLLER_HEARTBEAT_ID:
            self.note_primary_heartbeat()

    def note_primary_heartbeat(self) -> None:
        self._last_primary_heartbeat = self.sim.now
        # A resurrected primary does not reclaim leadership in this
        # design; the backup stays active and keeps beaconing its
        # activity so the primary demotes itself (split-brain fix).

    def _check_primary(self) -> None:
        if self.active:
            # Advertise the takeover at the primary address every tick:
            # a resurrected primary demotes itself on the first beacon
            # it hears, so at most one controller admits viewers.
            self.network.send(
                Message(
                    self.address,
                    CONTROLLER_ADDRESS,
                    Heartbeat(BACKUP_ACTIVE_HEARTBEAT_ID),
                    DESCHEDULE_BYTES,
                )
            )
            return
        silence = self.sim.now - self._last_primary_heartbeat
        if silence > self.takeover_timeout:
            self.active = True
            self.took_over_at = self.sim.now
            self.trace("failover", "backup controller took over")

    # ------------------------------------------------------------------
    def apply_replica_update(self, update: ReplicaUpdate) -> None:
        """Install the primary's record change into our play table."""
        record = self.plays.get(update.instance)
        if update.kind == "start":
            if record is None:
                self.plays[update.instance] = PlayRecord(
                    viewer_id=update.viewer_id,
                    instance=update.instance,
                    file_id=update.file_id,
                    first_block=update.first_block,
                    request_time=(
                        update.request_time
                        if update.request_time >= 0.0
                        else self.sim.now
                    ),
                )
            return
        if record is None:
            return
        if update.kind == "committed":
            record.slot = update.slot
            record.committed_at = self.sim.now
        elif update.kind == "stopped":
            record.stop_requested = True
        elif update.kind == "ended":
            record.ended = True
        else:
            raise ValueError(f"unknown replica update kind {update.kind!r}")
