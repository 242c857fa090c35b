"""The live counterpart of the DES invariant monitor.

Live faults need nothing here: a scenario's kills are
:meth:`repro.live.cluster.ClusterScenario.fault_plan`, the same
:class:`~repro.faults.plan.FaultPlan` the ``--compare-sim`` replay
installs on the simulator, and :func:`repro.faults.injectors.install_plan`
arms it on the driver's clock against
:class:`~repro.live.cluster.LiveCluster`'s fault verbs, each a SIGKILL
of the victim's subprocess.

:class:`CubInvariantProbe` runs in **each cub node** and sweeps the
locally checkable invariants once a second, the live counterpart of
the DES :class:`~repro.faults.monitor.InvariantMonitor` (whose global
checks need the whole system in one address space).  Violations are
counted into the node's metrics registry as
``live.invariant_violations`` and stream back to the driver with every
metrics frame, so a cluster run can assert "zero violations" from the
merged metrics alone.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.view import view_size_bound
from repro.faults.monitor import index_incoherence


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
        self.view_bound = view_size_bound(config.num_slots)
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
