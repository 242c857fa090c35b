"""The chaos harness: build, load, perturb, monitor, fingerprint.

:class:`ChaosHarness` is the one-call driver behind the ``chaos`` CLI
subcommand and the chaos soak benchmark.  It assembles a fresh
:class:`~repro.core.tiger.TigerSystem` (with the controller backup
armed, so controller faults are survivable), runs a continuous workload
at a target schedule load, installs a :class:`FaultPlan` and an
:class:`~repro.faults.monitor.InvariantMonitor`, and drives the clock.

The resulting :class:`ChaosReport` carries a SHA-256 **fingerprint** of
the run's observable outcome — sorted per-stream delivery statistics
plus system totals.  Play-instance ids come from a process-global
counter and are excluded; everything fingerprinted is a pure function
of (config, seed, plan, load, duration), so the same inputs must replay
bit-identically.  A fingerprint mismatch between two same-seed runs
means nondeterminism crept into the simulation — itself a bug.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import TigerConfig
from repro.core.tiger import TigerSystem
from repro.faults.injectors import MessageFaultInjector, install_plan
from repro.faults.monitor import InvariantMonitor
from repro.faults.plan import FaultPlan
from repro.obs.registry import MetricsRegistry, snapshot_total
from repro.sim.trace import Tracer
from repro.storage.rebalance import arm_rebalance
from repro.workloads.generator import ContinuousWorkload


@dataclass
class ChaosReport:
    """Outcome of one chaos run (construction implies zero violations —
    the monitor raises out of :meth:`ChaosHarness.run` otherwise)."""

    seed: int
    load: float
    duration: float
    streams_started: int
    checks_run: int
    fingerprint: str
    totals: Dict[str, int] = field(default_factory=dict)
    message_stats: Dict[str, int] = field(default_factory=dict)

    def lines(self) -> List[str]:
        """Benchmark-result rendering (see ``benchmarks/conftest.py``)."""
        out = [
            f"seed={self.seed} load={self.load:.2f} "
            f"duration={self.duration:g}s streams={self.streams_started}",
            f"invariant checks run: {self.checks_run}, violations: 0",
            f"fingerprint: {self.fingerprint}",
        ]
        out.append(
            "totals: "
            + " ".join(f"{key}={value}" for key, value in sorted(self.totals.items()))
        )
        out.append(
            "faults: "
            + " ".join(
                f"{key}={value}"
                for key, value in sorted(self.message_stats.items())
            )
        )
        return out


class ChaosHarness:
    """Run one deterministic chaos experiment end to end."""

    def __init__(
        self,
        config: TigerConfig,
        plan: FaultPlan,
        seed: int = 0,
        load: float = 0.5,
        duration: float = 120.0,
        num_files: int = 8,
        file_seconds: float = 90.0,
        monitor_period: float = 1.0,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        restripe_weights: Optional[Tuple[int, ...]] = None,
        restripe_throttle: float = 0.25,
        restripe_start: float = 5.0,
        restripe_journal: Optional[str] = None,
    ) -> None:
        if not 0.0 < load <= 1.0:
            raise ValueError("load must be in (0, 1]")
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.restripe_weights = restripe_weights
        self.restripe_throttle = restripe_throttle
        self.restripe_start = restripe_start
        self.restripe_journal = restripe_journal
        self.config = config
        self.plan = plan
        self.seed = seed
        self.load = load
        self.duration = duration
        self.num_files = num_files
        self.file_seconds = file_seconds
        self.monitor_period = monitor_period
        self.tracer = tracer
        self.registry = registry
        # Populated by build() for post-mortem inspection.
        self.system: Optional[TigerSystem] = None
        self.monitor: Optional[InvariantMonitor] = None
        self.message_stage: Optional[MessageFaultInjector] = None
        self.workload: Optional[ContinuousWorkload] = None

    # ------------------------------------------------------------------
    def build(self) -> None:
        """Assemble the experiment: everything that can reject its
        inputs (a ``ValueError``) does so here, before the clock moves.
        :meth:`run` calls it when the caller has not."""
        system = TigerSystem(
            self.config,
            seed=self.seed,
            tracer=self.tracer,
            registry=self.registry,
        )
        self.system = system
        self.registry = system.registry
        system.add_standard_content(
            num_files=self.num_files, duration_s=self.file_seconds
        )
        # Controller faults are only survivable with a backup; arm it
        # unconditionally so every plan runs against the same topology.
        system.enable_controller_backup()

        if self.restripe_weights is not None:
            arm_rebalance(
                system,
                self.restripe_weights,
                self.restripe_throttle,
                self.restripe_start,
                self.restripe_journal,
            )

        monitor = InvariantMonitor(system, period=self.monitor_period)
        self.monitor = monitor
        self.message_stage = install_plan(self.plan, system)
        for spec in self.plan.events:
            monitor.note_fault(spec)

        workload = ContinuousWorkload(system)
        self.workload = workload
        target = max(1, round(self.load * self.config.num_slots))
        workload.add_streams(target)

    def run(self) -> ChaosReport:
        if self.system is None:
            self.build()
        system, monitor = self.system, self.monitor
        system.start()
        monitor.install()
        system.run_until(self.duration)

        monitor.final_check()
        system.finalize_clients()
        system.export_metrics()

        totals = self._totals(system)
        return ChaosReport(
            seed=self.seed,
            load=self.load,
            duration=self.duration,
            streams_started=len(
                [m for c in system.clients for m in c.all_monitors()]
            ),
            checks_run=monitor.checks_run,
            fingerprint=self.fingerprint(system),
            totals=totals,
            message_stats=self._message_stats(),
        )

    # ------------------------------------------------------------------
    def _message_stats(self) -> Dict[str, int]:
        stage = self.message_stage
        return {
            name: 0 if stage is None else getattr(stage, f"messages_{name}")
            for name in ("seen", "dropped", "delayed", "duplicated", "reordered")
        }

    @staticmethod
    def _totals(system: TigerSystem) -> Dict[str, int]:
        snapshot = system.registry.snapshot()
        totals = {
            "blocks_sent": system.total_blocks_sent(),
            "mirror_pieces_sent": system.total_mirror_pieces_sent(),
            "server_missed": system.total_server_missed(),
            "failover_losses": system.total_failover_losses(),
            "client_received": system.total_client_received(),
            "client_missed": system.total_client_missed(),
            "client_late": system.total_client_late(),
            "client_corrupt": system.total_client_corrupt(),
            "messages_sent": system.network.messages_sent,
            "messages_scheduled": system.network.messages_scheduled,
            "messages_duplicated": system.network.messages_duplicated,
            "messages_delivered": system.network.messages_delivered,
            "messages_dropped": system.network.messages_dropped,
            "messages_in_flight": system.network.messages_in_flight,
            "oracle_inserts": system.oracle.inserts,
            "oracle_removes": system.oracle.removes,
            # Both zero whenever the helper tier is absent *or* inert
            # (capacity 0), so a capacity-0 fingerprint is bit-identical
            # to the no-helper baseline.
            "helper_blocks_served": int(
                snapshot_total(snapshot, "helper.blocks_served")
            ),
            "helper_fetches_served": int(
                snapshot_total(snapshot, "cub.helper_fetches_served")
            ),
        }
        # Restripe totals only exist when a restriper is attached, so a
        # restripe-free fingerprint is bit-identical to the old baseline.
        restriper = getattr(system, "restriper", None)
        if restriper is not None:
            totals["restripe_committed"] = int(
                restriper.moves_committed.value()
            )
            totals["restripe_skipped"] = int(restriper.moves_skipped.value())
            totals["restripe_retries"] = int(restriper.retries.value())
        return totals

    @classmethod
    def fingerprint(cls, system: TigerSystem) -> str:
        """SHA-256 over the run's observable, id-independent outcome."""
        streams: List[Tuple] = []
        for client in system.clients:
            for monitor in client.all_monitors():
                latency = monitor.startup_latency
                streams.append(
                    (
                        monitor.file_id,
                        monitor.first_block,
                        round(monitor.request_time, 9),
                        -1.0 if latency is None else round(latency, 9),
                        monitor.blocks_received,
                        monitor.blocks_missed,
                        monitor.blocks_late,
                        monitor.blocks_corrupt,
                        monitor.finished,
                        monitor.stopped,
                    )
                )
        streams.sort()
        digest = hashlib.sha256()
        digest.update(repr(streams).encode())
        digest.update(repr(sorted(cls._totals(system).items())).encode())
        return digest.hexdigest()


def standard_chaos_plan(
    duration: float = 120.0,
    drop_rate: float = 0.01,
    victim_cub: int = 1,
) -> FaultPlan:
    """The acceptance-criteria fault mix: ~1% data-message loss across
    the middle of the run, one cub crash-restart, and one controller
    kill/failback — plus a transient slow disk for texture."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    plan = FaultPlan(name="standard")
    mid = duration / 2.0
    # Offsets compress proportionally on short runs so every fault
    # still lands inside the window (a 30 s smoke run used to schedule
    # the cub crash at a negative time).
    warmup = min(10.0, mid / 2.0)
    plan.drop_messages(
        drop_rate,
        start=warmup,
        duration=max(1.0, duration - 3.0 * warmup),
        kind="data",
    )
    plan.slow_disk(0, factor=2.0, start=min(15.0, mid), duration=10.0)
    plan.crash_cub(victim_cub, at=max(warmup, mid - 20.0), restart_after=12.0)
    plan.kill_controller(at=mid + warmup, recover_after=15.0)
    return plan
