"""Declarative fault schedules for chaos runs.

A :class:`FaultPlan` is a list of :class:`FaultSpec` records — *what*
goes wrong, *where*, *when*, and for *how long* — completely decoupled
from the machinery that makes it go wrong (see
:mod:`repro.faults.injectors`).  Two properties matter:

* **Determinism.**  A plan holds no live state and draws no randomness
  itself; probabilistic faults (message drop, duplication, reordering)
  are resolved by the message stage against a named
  :class:`~repro.sim.rng.RngRegistry` stream, so the same (system seed,
  plan) pair replays bit-identically.  Goemans/Lynch/Saias-style
  multi-fault regimes become reproducible experiments instead of
  flaky ones.
* **Declarativeness.**  Benchmarks, tests, and the ``chaos`` CLI can
  describe a fault mix in a few lines, print it, sweep it, and diff it.

Point faults (crash, kill, disk death) have ``duration == 0`` unless a
recovery is folded in via ``restart_after`` / ``recover_after``, which
simply appends the matching recovery spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

# ----------------------------------------------------------------------
# Fault kinds
# ----------------------------------------------------------------------
NET_DROP = "net.drop"            # probabilistic message loss
NET_DELAY = "net.delay"          # added latency + jitter
NET_DUPLICATE = "net.duplicate"  # probabilistic duplication
NET_REORDER = "net.reorder"      # probabilistic arrival-time shuffling
NET_PARTITION = "net.partition"  # directed link cut (src -> dst)
NET_ISOLATE = "net.isolate"      # port partition: node cut both ways
DISK_SLOW = "disk.slow"          # transient slow zone (service multiplier)
DISK_STUCK = "disk.stuck"        # hung I/O: reads freeze, then thaw late
DISK_FAIL = "disk.fail"          # whole-drive death
DISK_RECOVER = "disk.recover"
CUB_CRASH = "cub.crash"          # power-off (optionally with restart)
CUB_RESTART = "cub.restart"
CONTROLLER_KILL = "controller.kill"
CONTROLLER_RECOVER = "controller.recover"
HELPER_CRASH = "helper.crash"    # edge-cache node death (degrade to origin)
HELPER_RESTART = "helper.restart"
RESTRIPE_PAUSE = "restripe.pause"  # hold the background rebalancer
RESTRIPE_ABORT = "restripe.abort"  # cancel it outright (journal records why)

_WINDOW_KINDS = frozenset(
    {NET_DROP, NET_DELAY, NET_DUPLICATE, NET_REORDER, NET_PARTITION,
     NET_ISOLATE, DISK_SLOW, DISK_STUCK, RESTRIPE_PAUSE}
)
_POINT_KINDS = frozenset(
    {DISK_FAIL, DISK_RECOVER, CUB_CRASH, CUB_RESTART,
     CONTROLLER_KILL, CONTROLLER_RECOVER, HELPER_CRASH, HELPER_RESTART,
     RESTRIPE_ABORT}
)
ALL_KINDS = _WINDOW_KINDS | _POINT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: kind, target, window, and parameters."""

    kind: str
    start: float
    duration: float = 0.0
    #: Component reference, e.g. ``cub:1``, ``disk:3``, ``link:a->b``,
    #: ``node:cub:2``; None for system-wide network effects.
    target: Optional[str] = None
    #: Canonicalized (sorted) key/value parameters.
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start < 0:
            raise ValueError("fault start must be >= 0")
        if self.duration < 0:
            raise ValueError("fault duration must be >= 0")
        if self.kind in _WINDOW_KINDS and self.duration <= 0:
            raise ValueError(f"{self.kind} needs a positive duration")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def describe(self) -> str:
        window = (
            f"[{self.start:g}s, {self.end:g}s)"
            if self.duration > 0
            else f"@{self.start:g}s"
        )
        where = f" {self.target}" if self.target else ""
        extra = " ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}{where} {window}" + (f" {extra}" if extra else "")


def _params(**kwargs: Any) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(kwargs.items()))


@dataclass
class FaultPlan:
    """An ordered, buildable collection of :class:`FaultSpec` records."""

    events: List[FaultSpec] = field(default_factory=list)
    #: Salt for the message stage's RNG stream name; two plans with
    #: different names draw independent randomness from the same system.
    name: str = "chaos"

    # ------------------------------------------------------------------
    # Network faults
    # ------------------------------------------------------------------
    def drop_messages(
        self,
        rate: float,
        start: float,
        duration: float,
        kind: Optional[str] = None,
    ) -> "FaultPlan":
        """Lose each in-window message with probability ``rate``.

        ``kind`` optionally restricts the loss to ``"control"`` or
        ``"data"`` traffic.
        """
        self._check_rate(rate)
        self.events.append(
            FaultSpec(NET_DROP, start, duration,
                      params=_params(rate=rate, message_kind=kind))
        )
        return self

    def delay_messages(
        self,
        extra: float,
        start: float,
        duration: float,
        jitter: float = 0.0,
        kind: Optional[str] = None,
    ) -> "FaultPlan":
        """Add ``extra`` (+ uniform ``jitter``) seconds of latency."""
        if extra < 0 or jitter < 0:
            raise ValueError("delay and jitter must be >= 0")
        self.events.append(
            FaultSpec(NET_DELAY, start, duration,
                      params=_params(extra=extra, jitter=jitter,
                                     message_kind=kind))
        )
        return self

    def duplicate_messages(
        self,
        rate: float,
        start: float,
        duration: float,
        kind: Optional[str] = None,
    ) -> "FaultPlan":
        self._check_rate(rate)
        self.events.append(
            FaultSpec(NET_DUPLICATE, start, duration,
                      params=_params(rate=rate, message_kind=kind))
        )
        return self

    def reorder_messages(
        self,
        rate: float,
        shift: float,
        start: float,
        duration: float,
        kind: Optional[str] = None,
    ) -> "FaultPlan":
        """Shift a ``rate`` fraction of arrivals by up to ``shift`` s,
        breaking per-flow FIFO inside the window.

        Note the paper runs TCP between cubs, so unrestricted control
        reordering exceeds the transport model; chaos mixes usually pass
        ``kind="data"``.
        """
        self._check_rate(rate)
        if shift <= 0:
            raise ValueError("reorder shift must be positive")
        self.events.append(
            FaultSpec(NET_REORDER, start, duration,
                      params=_params(rate=rate, shift=shift,
                                     message_kind=kind))
        )
        return self

    def partition_link(
        self, src: str, dst: str, start: float, duration: float
    ) -> "FaultPlan":
        self.events.append(
            FaultSpec(NET_PARTITION, start, duration, target=f"link:{src}->{dst}")
        )
        return self

    def isolate_node(
        self, address: str, start: float, duration: float
    ) -> "FaultPlan":
        self.events.append(
            FaultSpec(NET_ISOLATE, start, duration, target=f"node:{address}")
        )
        return self

    # ------------------------------------------------------------------
    # Disk faults
    # ------------------------------------------------------------------
    def slow_disk(
        self, disk_id: int, factor: float, start: float, duration: float
    ) -> "FaultPlan":
        if factor <= 0:
            raise ValueError("slow factor must be positive")
        self.events.append(
            FaultSpec(DISK_SLOW, start, duration, target=f"disk:{disk_id}",
                      params=_params(factor=factor))
        )
        return self

    def stick_disk(
        self, disk_id: int, start: float, duration: float
    ) -> "FaultPlan":
        self.events.append(
            FaultSpec(DISK_STUCK, start, duration, target=f"disk:{disk_id}")
        )
        return self

    def fail_disk(
        self, disk_id: int, at: float, recover_after: Optional[float] = None
    ) -> "FaultPlan":
        if recover_after is not None and recover_after <= 0:
            raise ValueError("recover_after must be positive")
        self.events.append(FaultSpec(DISK_FAIL, at, target=f"disk:{disk_id}"))
        if recover_after is not None:
            self.events.append(
                FaultSpec(DISK_RECOVER, at + recover_after,
                          target=f"disk:{disk_id}")
            )
        return self

    # ------------------------------------------------------------------
    # Process faults
    # ------------------------------------------------------------------
    def crash_cub(
        self, cub_id: int, at: float, restart_after: Optional[float] = None
    ) -> "FaultPlan":
        """Power-cut a cub; ``restart_after`` folds in the reboot."""
        if restart_after is not None and restart_after <= 0:
            raise ValueError("restart_after must be positive")
        self.events.append(FaultSpec(CUB_CRASH, at, target=f"cub:{cub_id}"))
        if restart_after is not None:
            self.events.append(
                FaultSpec(CUB_RESTART, at + restart_after, target=f"cub:{cub_id}")
            )
        return self

    def crash_helper(
        self, helper_id: int, at: float, restart_after: Optional[float] = None
    ) -> "FaultPlan":
        """Kill an edge helper; its viewers fall back to the origin."""
        if restart_after is not None and restart_after <= 0:
            raise ValueError("restart_after must be positive")
        self.events.append(
            FaultSpec(HELPER_CRASH, at, target=f"helper:{helper_id}")
        )
        if restart_after is not None:
            self.events.append(
                FaultSpec(HELPER_RESTART, at + restart_after,
                          target=f"helper:{helper_id}")
            )
        return self

    def kill_controller(
        self, at: float, recover_after: Optional[float] = None
    ) -> "FaultPlan":
        """Kill the primary controller; optionally resurrect it later
        (the resurrected primary demotes itself if a backup took over)."""
        if recover_after is not None and recover_after <= 0:
            raise ValueError("recover_after must be positive")
        self.events.append(FaultSpec(CONTROLLER_KILL, at, target="controller"))
        if recover_after is not None:
            self.events.append(
                FaultSpec(CONTROLLER_RECOVER, at + recover_after,
                          target="controller")
            )
        return self

    # ------------------------------------------------------------------
    # Restripe faults
    # ------------------------------------------------------------------
    def pause_restripe(self, start: float, duration: float) -> "FaultPlan":
        """Hold the background rebalancer for ``duration`` seconds.

        In-flight moves are allowed to land; no new ones launch until
        the window closes and the restriper is resumed.
        """
        self.events.append(FaultSpec(RESTRIPE_PAUSE, start, duration))
        return self

    def abort_restripe(self, at: float, reason: str = "chaos") -> "FaultPlan":
        """Cancel the running restripe outright; the journal records
        the abort so a later resume starts from a clean decision."""
        self.events.append(
            FaultSpec(RESTRIPE_ABORT, at, params=_params(reason=reason))
        )
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def end_time(self) -> float:
        """Instant after which no scheduled fault is active."""
        return max((event.end for event in self.events), default=0.0)

    def describe(self) -> str:
        if not self.events:
            return "(no faults)"
        ordered = sorted(self.events, key=lambda e: (e.start, e.kind))
        return "\n".join(event.describe() for event in ordered)

    @staticmethod
    def _check_rate(rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")


def parse_target(target: Optional[str], expected: str) -> Any:
    """Decode a spec target like ``disk:3`` / ``link:a->b`` / ``node:x``."""
    if target is None or ":" not in target:
        raise ValueError(f"malformed target {target!r} (wanted {expected})")
    kind, rest = target.split(":", 1)
    if kind != expected:
        raise ValueError(f"target {target!r} is not a {expected}")
    if expected in ("cub", "disk", "helper"):
        return int(rest)
    if expected == "link":
        src, _, dst = rest.partition("->")
        if not src or not dst:
            raise ValueError(f"malformed link target {target!r}")
        return src, dst
    return rest
