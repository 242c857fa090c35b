"""Assembly of a complete simulated Tiger system.

:class:`TigerSystem` is the :class:`~repro.core.world.World` bound to
the discrete-event backend — a ``Simulator`` and a ``SwitchedNetwork``
— building *every* node: cubs, controller, helpers, and on request
clients, the backup controller and an online restriper.  It is the
single entry point examples and benchmarks use, one of the two scenario
hosts (see :func:`repro.live.cluster.arm_scenario`), and the one
``core/`` module that imports an optional tier (or ``faults``): it
attaches both tiers to every cub and client it builds.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import TigerConfig
# The simulated deployment can build every kind of node, so it imports
# all of their classes here rather than on its first construction,
# where World.make_* would.
from repro.core.client import ViewerClient
from repro.core.cub import Cub
from repro.core.failover import BackupController
from repro.core.metrics import MetricsCollector
from repro.core.schedule import SlotAudit
from repro.core.protocol import HelperInvalidate
from repro.core.viewerstate import reset_instance_ids
from repro.core.world import World
from repro.disk.drive import SimDisk
from repro.helpers import attach_helpers
from repro.helpers.node import HelperNode, make_helper, origin_offload_ratio
from repro.net.message import REQUEST_BYTES, Message, reset_message_ids
from repro.net.switch import SwitchedNetwork
from repro.obs.registry import MetricsRegistry
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.storage.rebalance import OnlineRestriper, attach_restripe, make_restriper


class TigerSystem(World):
    """A fully wired, runnable Tiger deployment (single-bitrate)."""

    def __init__(
        self,
        config: TigerConfig,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        strict: bool = True,
        forward_copies: int = 2,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        sim = Simulator()
        # Rewind the message-id and play-instance-id sequences so a run
        # is a pure function of (seed, config): back-to-back systems in
        # one process allocate identical ids instead of continuing a
        # process-global counter.
        reset_message_ids()
        reset_instance_ids()
        rngs = RngRegistry(seed)
        if tracer is None:
            tracer = Tracer()
        super().__init__(
            config,
            runtime=sim,
            network=SwitchedNetwork(
                sim,
                rngs,
                base_latency=config.net_base_latency,
                latency_jitter=config.net_latency_jitter,
                tracer=tracer,
            ),
            # The system-wide metrics sink; every cub and controller
            # registers its counters here (see docs/OBSERVABILITY.md).
            registry=registry if registry is not None else MetricsRegistry(),
            tracer=tracer,
            rngs=rngs,
        )
        #: The runtime under the name DES code has always used.
        self.sim = sim
        #: The hallucination made checkable, booked off the fabric from
        #: what the cubs announce; ``strict`` makes a conflict raise.
        self.oracle = SlotAudit(config.num_slots, self.network, self.registry, strict)

        self.cubs: List[Cub] = []
        for cub_id in range(config.num_cubs):
            cub = self.make_cub(cub_id, forward_copies)
            attach_restripe(cub)
            attach_helpers(cub)
            self.network.register(cub, config.cub_nic_bps)
            self.cubs.append(cub)

        self.controller = self.make_controller()
        self.network.register(self.controller, config.controller_nic_bps)

        #: Optional edge-cache tier (see :mod:`repro.helpers`), shaped
        #: by the config.  With ``config.helpers == 0`` — or capacity 0,
        #: which leaves every node inert and every client on the
        #: classic path — nothing below sends a single message, so
        #: chaos fingerprints match the no-helper baseline bit for bit.
        self.helpers: List[HelperNode] = []
        for helper_id in range(config.helpers):
            helper = make_helper(self, helper_id)
            self.network.register(helper, config.cub_nic_bps)
            self.helpers.append(helper)

        self.clients: List[ViewerClient] = []
        self.backup_controller: Optional[BackupController] = None
        #: Optional online restriper (see :meth:`attach_restriper`).
        #: None means no restripe machinery exists at all, so runs
        #: without one stay bit-identical to pre-restripe baselines.
        self.restriper: Optional[OnlineRestriper] = None
        self._started = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_client(self) -> ViewerClient:
        """Attach one client machine to the switched network."""
        client = self.make_client(
            len(self.clients),
            backup=(
                self.backup_controller.address
                if self.backup_controller is not None
                else None
            ),
        )
        attach_helpers(client)
        self.network.register(client, self.config.client_nic_bps)
        self.clients.append(client)
        return client

    def add_clients(self, count: int) -> List[ViewerClient]:
        return [self.add_client() for _ in range(count)]

    def attach_restriper(self, plan, **options):
        """Attach an :class:`~repro.storage.rebalance.OnlineRestriper`
        that will execute ``plan`` in the background once started.

        ``options`` are :func:`~repro.storage.rebalance.make_restriper`'s
        (``journal``, ``throttle``, ``retry_base``, ``suspend_after``,
        ``ack_timeout``).  The restriper is a network node like any
        other — it rides the switched fabric with the same NIC model
        as a cub.  Call ``system.restriper.start()`` (or schedule it)
        to begin moving blocks.
        """
        if self.restriper is not None:
            raise RuntimeError("a restriper is already attached")
        restriper = make_restriper(self, plan, **options)
        self.network.register(restriper, self.config.cub_nic_bps)
        self.restriper = restriper
        return restriper

    def enable_controller_backup(self, takeover_timeout: Optional[float] = None):
        """Attach a backup controller (the paper's stated future work).

        The primary replicates play records and heartbeats the backup;
        cubs report commits to both; clients created *after* this call
        retry unacknowledged starts against the backup.  Returns the
        :class:`~repro.core.failover.BackupController`.
        """
        if self.backup_controller is not None:
            return self.backup_controller
        backup = self.make_backup_controller(takeover_timeout)
        self.network.register(backup, self.config.controller_nic_bps)
        self.controller.attach_backup(backup.address)
        for cub in self.cubs:
            cub.controller_addresses = ("controller", backup.address)
        self.backup_controller = backup
        return backup

    def fail_controller(self) -> None:
        """Power off the primary controller (failover experiments)."""
        self.tracer.emit(
            self.sim.now, "fault.inject", "controller failed",
            target="controller",
        )
        self.controller.fail()

    def recover_controller(self) -> None:
        """Resurrect the primary.  If a backup took over meanwhile, the
        primary demotes itself on the backup's first active beacon."""
        self.tracer.emit(
            self.sim.now, "fault.inject", "controller recovered",
            target="controller",
        )
        self.controller.recover()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start cub timers (heartbeats, pumps, deadman checks)."""
        if self._started:
            return
        self._started = True
        for cub in self.cubs:
            cub.start()

    def run_until(self, time: float) -> None:
        self.start()
        self.sim.run(until=time)

    def run_for(self, duration: float) -> None:
        self.run_until(self.sim.now + duration)

    def metrics(self, probe_cub: int = 0, probe_disk_cubs=None) -> MetricsCollector:
        return MetricsCollector(self, probe_cub, probe_disk_cubs)

    def export_metrics(self) -> MetricsRegistry:
        """Refresh system-level gauges and return the registry.

        Cub and controller counters are live registry series already;
        this publishes the aggregates that live outside the registry
        (network totals, oracle state, tracer health, kernel counters)
        so a snapshot taken right after is complete.
        """
        now = self.sim.now
        gauge = self.registry.gauge
        gauge("net.messages_sent",
              help="Send attempts offered to the switch fabric",
              unit="messages").set(self.network.messages_sent)
        gauge("net.messages_scheduled",
              help="Delivery events enqueued by the switch fabric",
              unit="messages").set(self.network.messages_scheduled)
        gauge("net.messages_duplicated",
              help="Extra message copies enqueued by fault injection",
              unit="messages").set(self.network.messages_duplicated)
        gauge("net.messages_delivered",
              help="Messages delivered by the switch fabric",
              unit="messages").set(self.network.messages_delivered)
        gauge("net.messages_dropped",
              help="Messages dropped (failed nodes, partitions, faults)",
              unit="messages").set(self.network.messages_dropped)
        gauge("net.messages_in_flight",
              help="Delivery events enqueued but not yet dispatched",
              unit="messages").set(self.network.messages_in_flight)
        gauge("oracle.inserts", help="Slot insertions the oracle observed",
              unit="inserts").set(self.oracle.inserts)
        gauge("oracle.removes", help="Slot removals the oracle observed",
              unit="removes").set(self.oracle.removes)
        gauge("oracle.occupied", help="Slots currently occupied",
              unit="slots").set(self.oracle.num_occupied)
        gauge("oracle.load", help="Fraction of schedule slots occupied",
              unit="ratio").set(self.oracle.load)
        gauge("trace.records", help="Trace records currently retained",
              unit="records").set(len(self.tracer.records))
        gauge("trace.dropped",
              help="Trace records evicted from the full ring buffer",
              unit="records").set(self.tracer.dropped)
        gauge("sim.events_dispatched",
              help="Events dispatched by the simulation kernel",
              unit="events").set(self.sim.events_dispatched)
        gauge("sim.now", help="Simulated clock at export", unit="s").set(now)
        if self.helpers:
            gauge("helper.origin_offload_ratio",
                  help="Fraction of viewer blocks served from helper "
                       "caches instead of the cub schedule",
                  unit="ratio").set(origin_offload_ratio(self.registry.snapshot()))
            gauge("helper.cached_blocks",
                  help="Blocks currently resident across helper caches",
                  unit="blocks").set(
                      sum(len(h.cache) for h in self.helpers))
        if self.restriper is not None:
            self.restriper.export_gauges()
        for cub in self.cubs:
            gauge("cub.cpu_utilization",
                  help="Modelled CPU utilization since last reset",
                  unit="ratio", cub=cub.cub_id).set(
                      0.0 if cub.failed else cub.cpu_utilization(now))
            gauge("cub.disk_utilization",
                  help="Mean disk utilization since last reset",
                  unit="ratio", cub=cub.cub_id).set(
                      0.0 if cub.failed else cub.mean_disk_utilization(now))
        return self.registry

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    @property
    def fault_kinds(self) -> frozenset:
        """The DES executes every fault kind a plan can name (see
        :func:`repro.faults.injectors.install_plan`)."""
        # Imported here: the faults package imports this module.
        from repro.faults.plan import ALL_KINDS

        return ALL_KINDS

    def disk(self, disk_id: int) -> SimDisk:
        """The drive ``disk_id``, wherever the layout puts it."""
        return self.cubs[self.layout.cub_of_disk(disk_id)].disks[disk_id]

    def fail_cub(self, cub_id: int) -> None:
        """Cut power to a cub: it stops sending, its disks vanish."""
        self.tracer.emit(
            self.sim.now, "fault.inject", f"cub {cub_id} failed",
            target=f"cub:{cub_id}",
        )
        cub = self.cubs[cub_id]
        cub.fail()
        for disk in cub.disks.values():
            disk.fail()

    def recover_cub(self, cub_id: int) -> None:
        self.tracer.emit(
            self.sim.now, "fault.inject", f"cub {cub_id} recovered",
            target=f"cub:{cub_id}",
        )
        cub = self.cubs[cub_id]
        for disk in cub.disks.values():
            disk.recover()
        cub.recover()
        if self.restriper is not None:
            # A repaired cub is what a failure-suspension waits for.
            self.restriper.notify_cub_recovered(cub_id)

    def fail_disk(self, disk_id: int) -> None:
        self.tracer.emit(
            self.sim.now, "fault.inject", f"disk {disk_id} failed",
            target=f"disk:{disk_id}",
        )
        self.disk(disk_id).fail()
        cub = self.cubs[self.layout.cub_of_disk(disk_id)]
        if not cub.failed:
            cub.on_local_disk_failed(disk_id)

    def recover_disk(self, disk_id: int) -> None:
        self.tracer.emit(
            self.sim.now, "fault.inject", f"disk {disk_id} recovered",
            target=f"disk:{disk_id}",
        )
        self.disk(disk_id).recover()

    def fail_helper(self, helper_id: int) -> None:
        """Kill an edge helper; its viewers degrade to origin service."""
        self.tracer.emit(
            self.sim.now, "fault.inject", f"helper {helper_id} failed",
            target=f"helper:{helper_id}",
        )
        self.helpers[helper_id].fail()

    def recover_helper(self, helper_id: int) -> None:
        """Reboot a helper with a cold cache."""
        self.tracer.emit(
            self.sim.now, "fault.inject", f"helper {helper_id} recovered",
            target=f"helper:{helper_id}",
        )
        self.helpers[helper_id].recover()

    def invalidate_helpers(self, file_id: int) -> None:
        """Purge one file from every helper cache (content replaced)."""
        for helper in self.helpers:
            self.network.send(
                Message(
                    self.controller.address,
                    helper.address,
                    HelperInvalidate(file_id),
                    REQUEST_BYTES,
                )
            )

    def living_cubs(self) -> List[Cub]:
        return [cub for cub in self.cubs if not cub.failed]

    # ------------------------------------------------------------------
    # Aggregate accounting
    # ------------------------------------------------------------------
    def total_blocks_sent(self) -> int:
        return sum(cub.blocks_sent.count for cub in self.cubs)

    def total_mirror_pieces_sent(self) -> int:
        return sum(cub.mirror_pieces_sent.count for cub in self.cubs)

    def total_server_missed(self) -> int:
        return sum(cub.server_missed_blocks.count for cub in self.cubs)

    def total_failover_losses(self) -> int:
        return sum(cub.blocks_lost_in_failover.count for cub in self.cubs)

    def total_client_missed(self) -> int:
        return sum(client.total_missed() for client in self.clients)

    def total_client_late(self) -> int:
        return sum(client.total_late() for client in self.clients)

    def total_client_received(self) -> int:
        return sum(client.total_received() for client in self.clients)

    def total_client_corrupt(self) -> int:
        """Blocks delivered with the wrong content (must stay zero)."""
        return sum(client.total_corrupt() for client in self.clients)

    def finalize_clients(self) -> None:
        """Flush partial assembly state at the end of an experiment."""
        for client in self.clients:
            for monitor in client.all_monitors():
                monitor.finalize(self.sim.now)

    def assert_invariants(self) -> None:
        """The executable form of the coherence argument (tests): the
        invariant monitor's structural checks — the oracle, and every
        cub-scope check over the living cubs."""
        from repro.faults.monitor import InvariantMonitor

        InvariantMonitor(self).check_structure()
