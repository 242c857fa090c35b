"""One fault installer for every host: a :class:`FaultPlan` becomes timers.

:func:`install_plan` walks a plan once, in plan order, and arms each
spec on ``host.runtime`` as calls to the host's own fault verbs:
``fail_cub`` / ``recover_cub``, ``fail_disk`` / ``recover_disk``,
``fail_controller`` / ``recover_controller``, ``fail_helper`` /
``recover_helper``, a drive's ``set_slow`` / ``set_stuck``, and the
fabric's ``partition`` / ``heal`` / ``isolate`` / ``rejoin``.  A host
declares the kinds it can execute as ``fault_kinds``: the simulator
(:class:`~repro.core.tiger.TigerSystem`) all of them, a live cluster
(:class:`~repro.live.cluster.LiveCluster`) the three it performs as a
SIGKILL.  A plan naming any other kind is refused before anything is
armed.  On the DES a cub crash takes the cub's disks with it, exactly
as in the paper's machine-failure experiments.

Message faults are not timed verbs but an in-fabric stage:
:class:`MessageFaultInjector` installs itself as the network's
``fault_injector`` and perturbs every delivery scheduled while one of
their windows is open — dropping, delaying, duplicating, or reordering
messages.  All probability draws come from one named
:class:`~repro.sim.rng.RngRegistry` stream, so a chaos run replays
bit-identically for the same (seed, plan).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.faults.plan import (
    CONTROLLER_KILL,
    CONTROLLER_RECOVER,
    CUB_CRASH,
    CUB_RESTART,
    DISK_FAIL,
    DISK_RECOVER,
    DISK_SLOW,
    DISK_STUCK,
    HELPER_CRASH,
    HELPER_RESTART,
    NET_DELAY,
    NET_DROP,
    NET_DUPLICATE,
    NET_ISOLATE,
    NET_PARTITION,
    NET_REORDER,
    RESTRIPE_ABORT,
    RESTRIPE_PAUSE,
    FaultPlan,
    FaultSpec,
    parse_target,
)

#: Duplicates trail the original by up to this many seconds.
_DUPLICATE_SPREAD = 0.005

#: Kinds the in-fabric stage executes rather than a timed verb.
_MESSAGE_KINDS = frozenset({NET_DROP, NET_DELAY, NET_DUPLICATE, NET_REORDER})

#: Point faults: kind -> (the host verb it calls, the target it names).
_POINT_VERBS = {
    CUB_CRASH: ("fail_cub", "cub"),
    CUB_RESTART: ("recover_cub", "cub"),
    DISK_FAIL: ("fail_disk", "disk"),
    DISK_RECOVER: ("recover_disk", "disk"),
    HELPER_CRASH: ("fail_helper", "helper"),
    HELPER_RESTART: ("recover_helper", "helper"),
    CONTROLLER_KILL: ("fail_controller", None),
    CONTROLLER_RECOVER: ("recover_controller", None),
}


class UnsupportedFaultError(ValueError):
    """Raised when a plan names fault kinds its host cannot execute."""


class MessageFaultInjector:
    """In-fabric perturbation stage (see ``SwitchedNetwork.fault_injector``).

    ``perturb(message, now, arrival)`` returns the list of arrival times
    the fabric should honour: empty = dropped, one = (possibly shifted)
    normal delivery, several = duplication.  Only windows containing
    ``now`` apply, and specs are consulted in plan order, so the draw
    sequence — hence the whole run — is deterministic.
    """

    def __init__(self, system: Any, plan: FaultPlan) -> None:
        self.network = system.network
        self._rng = system.rngs.stream(f"faults.{plan.name}.net")
        self._drop = [e for e in plan.events if e.kind == NET_DROP]
        self._delay = [e for e in plan.events if e.kind == NET_DELAY]
        self._duplicate = [e for e in plan.events if e.kind == NET_DUPLICATE]
        self._reorder = [e for e in plan.events if e.kind == NET_REORDER]
        self.messages_seen = 0
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        #: True while the most recent :meth:`perturb` applied a
        #: deliberate reorder fault — the fabric reads this to leave its
        #: per-flow FIFO floor untouched (reordering is the *point* of
        #: that fault) and to trace the delivery as ``net.reorder``.
        self.last_deliberate_reorder = False

    def install(self) -> None:
        if self.network.fault_injector is not None:
            raise RuntimeError("network already has a fault injector")
        self.network.fault_injector = self

    @staticmethod
    def _active(specs: List[FaultSpec], now: float) -> List[FaultSpec]:
        return [spec for spec in specs if spec.start <= now < spec.end]

    @staticmethod
    def _kind_matches(spec: FaultSpec, message: Any) -> bool:
        wanted_kind = spec.get("message_kind")
        return wanted_kind is None or message.kind == wanted_kind

    def perturb(self, message: Any, now: float, arrival: float) -> List[float]:
        self.messages_seen += 1
        self.last_deliberate_reorder = False

        for spec in self._active(self._drop, now):
            if not self._kind_matches(spec, message):
                continue
            if self._rng.random() < spec.get("rate", 0.0):
                self.messages_dropped += 1
                return []

        times = [arrival]
        for spec in self._active(self._delay, now):
            if not self._kind_matches(spec, message):
                continue
            extra = spec.get("extra", 0.0)
            jitter = spec.get("jitter", 0.0)
            if jitter > 0:
                extra += self._rng.random() * jitter
            times = [when + extra for when in times]
            self.messages_delayed += 1

        for spec in self._active(self._reorder, now):
            if not self._kind_matches(spec, message):
                continue
            if self._rng.random() < spec.get("rate", 0.0):
                # Push this arrival later so messages sent afterwards can
                # overtake it — FIFO breaks without any global reshuffle.
                shift = self._rng.random() * spec.get("shift", 0.0)
                times = [when + shift for when in times]
                self.messages_reordered += 1
                self.last_deliberate_reorder = True

        for spec in self._active(self._duplicate, now):
            if not self._kind_matches(spec, message):
                continue
            if self._rng.random() < spec.get("rate", 0.0):
                times.append(times[0] + self._rng.random() * _DUPLICATE_SPREAD)
                self.messages_duplicated += 1

        return times


def _on_restriper(host: Any, verb: str, *args: Any) -> None:
    """Call ``verb`` on whatever restriper ``host`` has when the fault
    fires: a plan may be armed before the restriper is attached, and a
    restripe fault on a host with none is a no-op (like killing an
    already-dead cub)."""
    if host.restriper is not None:
        getattr(host.restriper, verb)(*args)


def install_plan(plan: FaultPlan, host: Any) -> Optional[MessageFaultInjector]:
    """Arm every fault in ``plan`` on ``host``, in plan order.

    Returns the installed :class:`MessageFaultInjector`, or ``None``
    when the plan has no message faults.  Raises
    :class:`UnsupportedFaultError`, arming nothing, if the plan names a
    kind outside ``host.fault_kinds``.
    """
    unsupported = sorted({spec.kind for spec in plan.events} - host.fault_kinds)
    if unsupported:
        raise UnsupportedFaultError(
            "host cannot execute fault kinds: "
            + ", ".join(unsupported)
            + (
                " (cub.restart would need subprocess respawn)"
                if CUB_RESTART in unsupported
                else ""
            )
        )
    stage = None
    if any(spec.kind in _MESSAGE_KINDS for spec in plan.events):
        stage = MessageFaultInjector(host, plan)
        stage.install()

    call_at = host.runtime.call_at
    for spec in plan.events:  # message kinds arm no timer: see the stage
        kind, start, end = spec.kind, spec.start, spec.end
        if kind in _POINT_VERBS:
            verb, target = _POINT_VERBS[kind]
            args = () if target is None else (parse_target(spec.target, target),)
            call_at(start, getattr(host, verb), *args)
        elif kind == DISK_SLOW:
            disk = host.disk(parse_target(spec.target, "disk"))
            call_at(start, disk.set_slow, spec.get("factor", 1.0))
            call_at(end, disk.set_slow, 1.0)
        elif kind == DISK_STUCK:
            disk = host.disk(parse_target(spec.target, "disk"))
            call_at(start, disk.set_stuck, True)
            call_at(end, disk.set_stuck, False)
        elif kind == NET_PARTITION:
            src, dst = parse_target(spec.target, "link")
            call_at(start, host.network.partition, src, dst)
            call_at(end, host.network.heal, src, dst)
        elif kind == NET_ISOLATE:
            address = parse_target(spec.target, "node")
            call_at(start, host.network.isolate, address)
            call_at(end, host.network.rejoin, address)
        elif kind == RESTRIPE_PAUSE:
            call_at(start, _on_restriper, host, "pause")
            call_at(end, _on_restriper, host, "resume")
        elif kind == RESTRIPE_ABORT:
            call_at(start, _on_restriper, host, "abort", spec.get("reason", "chaos"))
    return stage
