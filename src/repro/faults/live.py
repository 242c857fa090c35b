"""Fault machinery for the live backend.

Two pieces, mirroring what the chaos harness gives the DES.  There are
no live-only plans: a scenario's kills are
:meth:`repro.live.cluster.ClusterScenario.fault_plan`, the same
:class:`~repro.faults.plan.FaultPlan` the ``--compare-sim`` replay
installs on the simulator.

* :class:`LiveFaultInjector` — runs in the **driver** process and turns
  the process events of a :class:`~repro.faults.plan.FaultPlan` into
  real actions against a live cluster: ``cub.crash`` becomes SIGKILL of
  the cub's subprocess.  Killing the process is the most faithful fault
  available — the victim stops heartbeating mid-protocol with no
  cleanup, its TCP connection drops, and the survivors walk the exact
  §2.3 deadman path the simulator exercises.  (Live restart — respawning
  the subprocess — is future work; the plan validator rejects it rather
  than silently ignoring it.)
* :class:`CubInvariantProbe` — runs in **each cub node** and sweeps the
  locally checkable invariants once a second, the live counterpart of
  the DES :class:`~repro.faults.monitor.InvariantMonitor` (whose global
  checks need the whole system in one address space).  Violations are
  counted into the node's metrics registry as
  ``live.invariant_violations`` and stream back to the driver with
  every metrics frame, so a cluster run can assert "zero violations"
  from the merged metrics alone.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.faults.monitor import index_incoherence
from repro.faults.plan import (
    CONTROLLER_KILL,
    CUB_CRASH,
    CUB_RESTART,
    HELPER_CRASH,
    FaultPlan,
    parse_target,
)

#: FaultPlan kinds the live injector can execute today.
LIVE_SUPPORTED_KINDS = frozenset({CUB_CRASH, CONTROLLER_KILL, HELPER_CRASH})


class LiveFaultError(ValueError):
    """Raised when a plan contains faults the live backend cannot run."""


class LiveFaultInjector:
    """Schedules a plan's process faults against a live cluster.

    ``cluster`` is duck-typed: anything with ``kill_node(address)`` and
    a driver-side :class:`~repro.live.runtime.LiveRuntime` under
    ``.runtime`` (see :class:`repro.live.cluster.LiveCluster`).
    """

    def __init__(self, cluster: Any, plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        #: ``(time, address)`` pairs actually armed, for the report.
        self.scheduled: List[Tuple[float, str]] = []
        unsupported = sorted(
            {
                spec.kind
                for spec in plan.events
                if spec.kind not in LIVE_SUPPORTED_KINDS
            }
        )
        if unsupported:
            raise LiveFaultError(
                "live backend cannot execute fault kinds: "
                + ", ".join(unsupported)
                + (
                    " (cub.restart would need subprocess respawn)"
                    if CUB_RESTART in unsupported
                    else ""
                )
            )

    def install(self) -> None:
        """Arm every supported fault on the driver's runtime clock."""
        runtime = self.cluster.runtime
        for spec in self.plan.events:
            if spec.kind == CUB_CRASH:
                cub_id = parse_target(spec.target, "cub")
                address = f"cub:{cub_id}"
            elif spec.kind == HELPER_CRASH:
                helper_id = parse_target(spec.target, "helper")
                address = f"helper:{helper_id}"
            else:  # CONTROLLER_KILL
                address = "controller"
            runtime.call_at(spec.start, self.cluster.kill_node, address)
            self.scheduled.append((spec.start, address))


class CubInvariantProbe:
    """Per-node invariant sweeps for a live cub.

    Checks everything observable from a single cub without global
    state:

    * the schedule view stays bounded (O(leads x capacity), never
      O(history)) — the same bound
      :meth:`~repro.core.tiger.TigerSystem.assert_invariants` enforces;
    * the forwarding queues stay bounded (a stuck pump would grow them
      without limit);
    * the by-play indexes a deschedule deletes through name exactly the
      records their stores hold, and the expiry indexes pruning works
      from list every record that must one day expire
      (:func:`~repro.faults.monitor.index_incoherence`);
    * the runtime clock is monotonic between sweeps;
    * the deadman never believes *every* other cub dead while traffic
      still flows (whole-ring-dead belief with a live hub connection
      means our own receive path wedged).
    """

    def __init__(
        self,
        cub: Any,
        registry: Any,
        period: float = 1.0,
        queue_bound: Optional[int] = None,
    ) -> None:
        self.cub = cub
        self.period = period
        config = cub.config
        self.view_bound = 40 * config.num_slots + 1000
        self.queue_bound = (
            queue_bound
            if queue_bound is not None
            else 8 * config.num_slots + 256
        )
        self.sweeps = registry.counter(
            "live.invariant_sweeps",
            help="Invariant sweeps completed on this node",
            unit="sweeps", node=cub.name)
        self.violations = registry.counter(
            "live.invariant_violations",
            help="Invariant violations observed on this node",
            unit="violations", node=cub.name)
        #: Human-readable descriptions of the violations seen (bounded).
        self.descriptions: List[str] = []
        self._last_now = None
        self._timer = None

    def install(self) -> None:
        """Begin sweeping on the cub's runtime."""
        self._timer = self.cub.sim.call_after(self.period, self._sweep)

    def stop(self) -> None:
        """Stop sweeping (node shutdown)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _violate(self, description: str) -> None:
        self.violations.increment()
        if len(self.descriptions) < 32:
            self.descriptions.append(description)

    def _sweep(self) -> None:
        cub = self.cub
        now = cub.sim.now
        self.sweeps.increment()
        if self._last_now is not None and now < self._last_now:
            self._violate(
                f"clock moved backwards: {self._last_now:.6f} -> {now:.6f}"
            )
        self._last_now = now
        view_size = cub.view.size()
        if view_size > self.view_bound:
            self._violate(
                f"schedule view grew to {view_size} records "
                f"(bound {self.view_bound})"
            )
        queued = len(cub._forward_queue) + len(cub._mirror_forward_queue)
        if queued > self.queue_bound:
            self._violate(
                f"forward queues grew to {queued} records "
                f"(bound {self.queue_bound})"
            )
        incoherent = index_incoherence(cub)
        if incoherent is not None:
            self._violate(incoherent)
        believed_dead = cub.deadman.believed_failed
        if len(believed_dead) >= cub.config.num_cubs - 1:
            self._violate(
                "cub believes the entire ring dead while still running"
            )
        self._timer = cub.sim.call_after(self.period, self._sweep)
