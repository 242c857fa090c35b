"""Base class for simulated components ("processes").

A :class:`Process` owns a reference to the simulator, a stable name
(used for RNG streams and tracing), and helpers for periodic timers.
It is a convenience layer only — nothing in the kernel requires it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.core import Simulator
from repro.sim.events import Event
from repro.sim.trace import NULL_TRACER, Tracer


class Process:
    """A named simulation participant with timer bookkeeping."""

    def __init__(self, sim: Simulator, name: str, tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Outstanding timers by slot, for :meth:`cancel_timers`.
        self._timers: Dict[int, Event] = {}
        self._next_slot = 0
        self._compact_at = 256
        #: Periodic timers by ``(registered at, period)``: the callbacks
        #: after the first — what a later :meth:`every` at the same
        #: instant joins.
        self._periodic: Dict[Tuple[float, float], List[Callable[[], Any]]] = {}

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn`` after ``delay`` seconds, tracked for shutdown."""
        event = self.sim.call_after(delay, fn, *args)
        self._remember(event)
        return event

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn`` at absolute ``time``, tracked for shutdown."""
        event = self.sim.call_at(time, fn, *args)
        self._remember(event)
        return event

    def every(self, period: float, fn: Callable[[], Any]) -> None:
        """Run ``fn`` every ``period`` seconds until :meth:`cancel_timers`.

        Periodic timers this process registers at the same ``now`` with
        the same period share one kernel event: they would fire at the
        same instants forever, so one tick runs them in registration
        order.  A timer with another period, or registered at a later
        ``now``, gets its own event.  On the live backend consecutive
        registrations read different wall-clock ``now`` values and so
        never merge.  No handle is returned: each tick re-arms on a new
        event, so only :meth:`cancel_timers` can stop the timer.

        A callback that reaches :meth:`cancel_timers` stops the timer:
        the rest of its group does not run and nothing is re-armed.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        key = (self.sim.now, period)
        group = self._periodic.get(key)
        if group is not None:
            group.append(fn)
            return
        rest: List[Callable[[], Any]] = []

        # ``fn`` stays a free variable of ``tick``: the benchmark's span
        # recorder unwraps the tick through it to charge the group's
        # time to its owner's layer, not the kernel's.
        def tick() -> None:
            fn()
            for member in rest:
                if slot not in self._timers:
                    return
                member()
            if slot in self._timers:
                # Each tick takes over the slot of the one that just fired.
                self._timers[slot] = self.sim.call_after(period, tick)

        slot = self._remember(self.sim.call_after(period, tick))
        self._periodic[key] = rest

    def cancel_timers(self) -> None:
        """Cancel every outstanding timer this process scheduled."""
        for event in self._timers.values():
            event.cancel()
        self._timers.clear()
        self._periodic.clear()
        self._compact_at = 256

    def _remember(self, event: Event) -> int:
        """Track ``event`` for :meth:`cancel_timers`; returns its slot."""
        slot = self._next_slot
        self._next_slot += 1
        self._timers[slot] = event
        # A periodic timer re-uses one slot for its whole life; fired
        # one-shots are dead weight (cancelling them cannot matter), so
        # compact them away by time.  The threshold doubles with the
        # live set so processes with many genuinely-pending timers pay
        # an amortized O(1) per append.
        if len(self._timers) > self._compact_at:
            now = self.sim.now
            self._timers = {
                key: entry
                for key, entry in self._timers.items()
                if not entry.cancelled and entry.time >= now
            }
            self._compact_at = max(256, 2 * len(self._timers))
        return slot

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def trace(self, category: str, message: str, **fields: Any) -> None:
        """Emit an instant trace record stamped with this process' name.

        The ``node`` field carries the emitter so exporters can group
        records per component (one timeline row per cub in a Chrome
        trace).  Call sites on hot paths should guard with
        ``if self.tracer.enabled:`` to avoid building message strings
        that would be discarded.
        """
        if not self.tracer.enabled:
            return
        fields.setdefault("node", self.name)
        self.tracer.emit(self.sim.now, category, f"{self.name}: {message}", **fields)

    def trace_span(
        self, start: float, category: str, message: str, **fields: Any
    ) -> None:
        """Emit a span from ``start`` to now, stamped with this process."""
        if not self.tracer.enabled:
            return
        fields.setdefault("node", self.name)
        self.tracer.emit_span(
            start, self.sim.now, category, f"{self.name}: {message}", **fields
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
