"""Centralized schedule management — the §3.3 baseline.

Here the controller keeps the *entire* schedule and, for every block of
every stream, sends a ~100-byte command to the cub that must deliver
it.  The paper argues this fails to scale: at 40,000 streams and 1,000
cubs the controller must push 3-4 Mbytes/s of control traffic through
TCP, "probably beyond the capability of the class of personal
computers used to construct a Tiger system" — whereas the distributed
design keeps every cub's control traffic under ~21 Kbytes/s regardless
of system size.

The simulated baseline runs small systems end-to-end; the analytic
functions extrapolate both designs to the paper's 40k-stream example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import TigerConfig
from repro.core.schedule import GlobalSchedule
from repro.core.slots import SlotClock
from repro.net.message import KIND_DATA, Message
from repro.net.node import NetworkNode
from repro.net.switch import SwitchedNetwork
from repro.sim.core import Simulator
from repro.sim.stats import BusyMeter, Counter
from repro.sim.trace import Tracer
from repro.storage.catalog import Catalog
from repro.storage.layout import StripeLayout

#: Size of one per-block delivery command, per §3.3 ("about the size of
#: the comparable message sent from cub to cub").
COMMAND_BYTES = 100


@dataclass(frozen=True)
class SendCommand:
    """Controller -> cub: deliver one block to one viewer."""

    viewer_id: str
    instance: int
    file_id: int
    block_index: int
    play_seqno: int
    disk_id: int
    due_time: float


class CommandCub(NetworkNode):
    """A cub stripped of schedule knowledge: it only obeys commands."""

    def __init__(
        self,
        sim: Simulator,
        cub_id: int,
        config: TigerConfig,
        catalog: Catalog,
        network: SwitchedNetwork,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(sim, f"ccub:{cub_id}", tracer)
        self.cub_id = cub_id
        self.config = config
        self.catalog = catalog
        self.network = network
        self.cpu = BusyMeter(sim.now)
        self.blocks_sent = Counter()

    def handle_message(self, message: Message) -> None:
        command = message.payload
        if not isinstance(command, SendCommand):
            raise TypeError(
                f"{self.name}: unexpected payload {type(command).__name__}"
            )
        self.cpu.add_busy(self.sim.now, self.config.cpu_per_control_msg)
        delay = max(0.0, command.due_time - self.sim.now)
        self.after(delay, self._transmit, command)

    def _transmit(self, command: SendCommand) -> None:
        size = self.catalog.get(command.file_id).content_bytes_per_block
        self.network.send_paced(
            Message(
                self.address,
                command.viewer_id.split("#", 1)[0],
                command,
                size,
                kind=KIND_DATA,
            ),
            pacing_duration=self.config.block_play_time,
        )
        self.cpu.add_busy(self.sim.now, size * self.config.cpu_per_data_byte)
        self.blocks_sent.increment()


class CentralizedController(NetworkNode):
    """The controller of a centrally scheduled Tiger.

    It owns the one true :class:`GlobalSchedule` (no hallucination
    needed — and no scalability either) and emits one
    :class:`SendCommand` per viewer per block play time, one command
    lead ahead of the due time.
    """

    def __init__(
        self,
        sim: Simulator,
        config: TigerConfig,
        layout: StripeLayout,
        catalog: Catalog,
        clock: SlotClock,
        network: SwitchedNetwork,
        tracer: Optional[Tracer] = None,
        command_lead: float = 1.0,
    ) -> None:
        super().__init__(sim, "central-controller", tracer)
        self.config = config
        self.layout = layout
        self.catalog = catalog
        self.clock = clock
        self.network = network
        self.schedule = GlobalSchedule(config.num_slots)
        self.command_lead = command_lead
        self.cpu = BusyMeter(sim.now)
        self.commands_sent = Counter()
        self._active: Dict[int, bool] = {}

    def handle_message(self, message: Message) -> None:  # pragma: no cover
        raise TypeError("the centralized controller takes no inbound messages")

    # ------------------------------------------------------------------
    def start_viewer(self, viewer_id: str, instance: int, file_id: int) -> bool:
        """Schedule a viewer centrally; returns False when full."""
        entry = self.catalog.get(file_id)
        free = self.schedule.free_slots()
        if not free:
            return False
        # With the whole schedule in hand, the central scheduler takes
        # the free slot its start disk reaches soonest.
        first_disk = entry.start_disk
        after = self.sim.now + self.command_lead
        first_due, slot = min(
            (self.clock.visit_time(first_disk, candidate, after), candidate)
            for candidate in free
        )
        self.schedule.insert(slot, viewer_id, instance, self.sim.now)
        self._active[instance] = True
        self._issue(viewer_id, instance, file_id, slot, 0, first_disk, first_due)
        return True

    def stop_viewer(self, instance: int, slot: int) -> None:
        """Release ``instance``'s slot, tolerating stale stops.

        The removal is conditional on the slot's current occupant still
        being this instance: a stop that arrives after the viewer ended
        (or after the slot was reused by a later start) must not evict
        the new occupant.
        """
        self._active.pop(instance, None)
        occupant = self.schedule.occupant(slot)
        if occupant is not None and occupant.instance == instance:
            self.schedule.remove(slot, occupant.viewer_id, occupant.instance)

    def _issue(
        self,
        viewer_id: str,
        instance: int,
        file_id: int,
        slot: int,
        block: int,
        disk: int,
        due: float,
    ) -> None:
        if not self._active.get(instance):
            return
        entry = self.catalog.get(file_id)
        if block >= entry.num_blocks:
            self._active.pop(instance, None)
            self.schedule.remove_unconditional(slot)
            return
        command = SendCommand(
            viewer_id=viewer_id,
            instance=instance,
            file_id=file_id,
            block_index=block,
            play_seqno=block,
            disk_id=disk,
            due_time=due,
        )
        cub = self.layout.cub_of_disk(disk)
        self.network.send(
            Message(self.address, f"ccub:{cub}", command, COMMAND_BYTES)
        )
        self.cpu.add_busy(self.sim.now, self.config.cpu_per_control_msg)
        self.commands_sent.increment()
        next_disk = self.layout.next_disk(disk)
        next_due = due + self.config.block_play_time
        self.at(
            next_due - self.command_lead,
            self._issue,
            viewer_id,
            instance,
            file_id,
            slot,
            block + 1,
            next_disk,
            next_due,
        )

    # ------------------------------------------------------------------
    def control_bytes_per_second(self) -> float:
        """Measured control send rate over the whole run so far."""
        if self.sim.now <= 0:
            return 0.0
        return self.commands_sent.count * COMMAND_BYTES / self.sim.now


# ======================================================================
# Analytic scalability model (§3.3's arithmetic, made explicit)
# ======================================================================


def central_control_rate(streams: int, block_play_time: float = 1.0) -> float:
    """Controller egress in bytes/second for a centrally scheduled
    system: one command per stream per block play time."""
    if streams < 0:
        raise ValueError("streams must be non-negative")
    return streams * COMMAND_BYTES / block_play_time


def distributed_control_rate_per_cub(
    streams: int,
    num_cubs: int,
    block_play_time: float = 1.0,
    copies: int = 2,
    viewer_state_bytes: int = COMMAND_BYTES,
    batch_overhead: float = 1.1,
) -> float:
    """Per-cub control egress in the distributed design.

    Each cub forwards the viewer states of the streams currently at its
    position — ``streams / num_cubs`` per block play time — ``copies``
    times, with a small batching overhead.  Crucially this does *not*
    grow with system size at constant per-cub load: a bigger Tiger has
    proportionally more cubs.
    """
    if num_cubs < 1:
        raise ValueError("need at least one cub")
    per_cub_streams = streams / num_cubs
    return (
        per_cub_streams * copies * viewer_state_bytes * batch_overhead
        / block_play_time
    )


def scalability_table(
    system_sizes: List[int],
    streams_per_cub: float = 43.0,
    block_play_time: float = 1.0,
) -> List[Dict[str, float]]:
    """§3.3 comparison rows: controller rate (central) vs per-cub rate
    (distributed) as the system grows at constant per-cub load."""
    rows = []
    for num_cubs in system_sizes:
        streams = int(num_cubs * streams_per_cub)
        rows.append(
            {
                "cubs": num_cubs,
                "streams": streams,
                "central_controller_Bps": central_control_rate(
                    streams, block_play_time
                ),
                "distributed_per_cub_Bps": distributed_control_rate_per_cub(
                    streams, num_cubs, block_play_time
                ),
            }
        )
    return rows
