"""The discrete-event simulation kernel.

The kernel is deliberately small — and the only one the DES has: a
time-ordered heap and a clock.  A heap entry has one of two shapes,
both ordered by their first three fields:

* ``(time, priority, seq, event)`` — a cancellable
  :class:`~repro.sim.events.Event`, from :meth:`Simulator.call_at` /
  ``call_after``;
* ``(time, priority, seq, fn, arg)`` — a fire-and-forget callback from
  :meth:`Simulator.post`: no ``Event``, no args tuple, no handle.

One loop, :meth:`Simulator.run`, dispatches both in deterministic
order.

Design notes
------------
* Callback style (not coroutines): Tiger's protocol code is reactive —
  "when a message arrives", "when a timer fires" — which maps naturally
  onto callbacks, keeps the event loop trivially fast, and produces flat
  stack traces when something goes wrong.
* Determinism: ties are broken by ``(priority, insertion order)`` and
  all randomness flows through :class:`~repro.sim.rng.RngRegistry`, so a
  run is a pure function of its seed and configuration.  Both entry
  shapes draw ``seq`` from one counter, so a post and an event at the
  same time and priority fire in the order they were scheduled.
* Cancellation is lazy: a cancelled event stays in the heap as a
  tombstone until it reaches the top or a compaction sweeps it.  A
  tombstone is never dispatched, consumes no ``max_events`` budget and
  never advances the clock.  A posted entry cannot be cancelled.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import PRIORITY_NORMAL, Event, _seq_counter

#: Lazy heap compaction floor: below this many tombstones the heap is
#: never rebuilt, so cancel-light workloads pay nothing.
_COMPACT_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling into the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    This is one of two implementations of the
    :class:`repro.runtime.Runtime` backend contract (``now`` +
    ``call_at`` / ``call_after``); the other is the wall-clock
    :class:`repro.live.runtime.LiveRuntime`, which runs the same
    protocol classes over real sockets.  :meth:`post` is not part of
    the contract: it is the DES fabric's delivery entry.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_after(1.5, fired.append, "a")
    >>> _ = sim.call_after(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time in seconds.  A plain attribute, read
        #: on every hop of every block; only this module writes it (the
        #: dispatch loop, ``step`` and the end of a bounded ``run``).
        self.now = float(start_time)
        #: The event heap, of both entry shapes (see the module
        #: docstring).  The list object is never replaced (compaction
        #: rebuilds it in place): :meth:`run` holds it across callbacks.
        self._heap: List[Tuple[Any, ...]] = []
        #: Cancelled events still sitting in the heap (lazy tombstones).
        self._cancelled_in_heap = 0
        self._events_dispatched = 0
        self._running = False
        self._stopped = False
        #: Optional event-loop profiler (duck-typed: ``record(fn, wall_s,
        #: sim_now)``); None keeps dispatch at one attribute check.
        self._profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_dispatched(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_dispatched

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    @property
    def profiler(self) -> Optional[Any]:
        """The attached event-loop profiler, or None."""
        return self._profiler

    def set_profiler(self, profiler: Optional[Any]) -> None:
        """Attach (or detach, with None) an event-loop profiler.

        While attached, every dispatched callback — an event's or a
        post's — is timed with ``perf_counter`` and reported via
        ``profiler.record(fn, wall_s, sim_now)``; the span recorder in
        ``benchmarks/perf/spans.py`` attaches here.  Detached, the
        dispatch loop pays a single attribute check per event.

        :param profiler: Object with a ``record`` method, or None.
        """
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Scheduling exactly at ``now`` is permitted (the event runs within
        the current instant, after events already queued for it);
        scheduling strictly into the past is an error.
        """
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, now is t={self.now:.9f}"
            )
        event = Event(time, fn, args, priority)
        event.owner = self
        heappush(self._heap, (event.time, priority, event.seq, event))
        return event

    def call_after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self.now + delay, fn, *args, priority=priority)

    def post(self, time: float, fn: Callable[[Any], Any], arg: Any) -> None:
        """Schedule ``fn(arg)`` at ``time``, for good: nothing can cancel it.

        The entry is one heap tuple, ``(time, PRIORITY_NORMAL, seq, fn,
        arg)``, with ``seq`` from the counter ``call_at`` uses, so it is
        dispatched exactly where a ``call_at(time, fn, arg)`` would be.
        It counts against ``max_events`` and in ``events_dispatched``
        like any event.  The DES fabric posts every delivery; a caller
        that might cancel uses :meth:`call_at`.
        """
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, now is t={self.now:.9f}"
            )
        heappush(self._heap, (time, PRIORITY_NORMAL, next(_seq_counter), fn, arg))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _purge_head(self) -> Optional[Tuple[Any, ...]]:
        """Pop tombstones off the top of the heap; return the next
        active entry (left in the heap), or None."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if len(entry) == 5:
                return entry
            event = entry[3]
            if not event.cancelled:
                return entry
            heappop(heap)
            event.owner = None
            self._cancelled_in_heap -= 1
        return None

    def step(self) -> bool:
        """Dispatch the next active event or post.

        Returns False when the heap holds no active entries.
        """
        entry = self._purge_head()
        if entry is None:
            return False
        heappop(self._heap)
        self.now = entry[0]
        self._events_dispatched += 1
        if len(entry) == 5:
            fn = entry[3]
            args: Tuple[Any, ...] = (entry[4],)
        else:
            event = entry[3]
            event.owner = None
            fn, args = event.fn, event.args
        if self._profiler is None:
            fn(*args)
        else:
            started = perf_counter()
            fn(*args)
            self._profiler.record(fn, perf_counter() - started, self.now)
        return True

    def peek_time(self) -> Optional[float]:
        """Time of the next active entry, or None if the heap is empty."""
        entry = self._purge_head()
        return entry[0] if entry is not None else None

    def _note_cancelled(self) -> None:
        """An event currently in the heap was cancelled (Event.cancel).

        When tombstones outnumber live entries (past a fixed floor), the
        heap is rebuilt without them: cancel-heavy workloads (deadman
        timers, per-service bookkeeping) otherwise carry every tombstone
        until its pop, inflating both memory and per-push compare cost.
        Entry ordering is a total order on ``(time, priority, seq)``, so
        the rebuild cannot reorder the survivors; posts are never
        tombstones and always survive.
        """
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            self._cancelled_in_heap > _COMPACT_MIN_TOMBSTONES
            and self._cancelled_in_heap * 2 > len(heap)
        ):
            live = []
            for entry in heap:
                if len(entry) == 4 and entry[3].cancelled:
                    entry[3].owner = None
                else:
                    live.append(entry)
            heap[:] = live
            heapify(heap)
            self._cancelled_in_heap = 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run``
        calls observe a monotonic clock.  The advance is skipped only
        when active events earlier than ``until`` remain undispatched
        (a ``max_events`` or ``stop()`` exit): jumping over them would
        make the next ``run`` move the clock backwards.

        A :meth:`stop` requested while no run is active (e.g. from a
        monitor callback firing at a run boundary) is honored by the
        *next* ``run``, which returns immediately without dispatching;
        each ``run`` consumes at most one stop request on exit.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        heap = self._heap
        horizon = inf if until is None else until
        # Counted up to the budget; -1 is never reached.
        budget = -1 if max_events is None else max(0, max_events)
        dispatched = 0
        try:
            while heap and dispatched != budget and not self._stopped:
                entry = heap[0]
                posted = len(entry) == 5
                if not posted:
                    event = entry[3]
                    if event.cancelled:
                        # A tombstone consumes no budget and moves no clock.
                        heappop(heap)
                        event.owner = None
                        self._cancelled_in_heap -= 1
                        continue
                if entry[0] > horizon:
                    break
                heappop(heap)
                self.now = entry[0]
                self._events_dispatched += 1
                dispatched += 1
                profiler = self._profiler
                if posted:
                    fn = entry[3]
                    if profiler is None:
                        fn(entry[4])
                    else:
                        started = perf_counter()
                        fn(entry[4])
                        profiler.record(fn, perf_counter() - started, self.now)
                else:
                    event.owner = None
                    fn = event.fn
                    if profiler is None:
                        fn(*event.args)
                    else:
                        started = perf_counter()
                        fn(*event.args)
                        profiler.record(fn, perf_counter() - started, self.now)
            pending = self.peek_time()
            if (
                until is not None
                and self.now < until
                and not self._stopped
                and (pending is None or pending > until)
            ):
                self.now = until
        finally:
            self._stopped = False
            self._running = False

    def stop(self) -> None:
        """Request that the current :meth:`run` return after this event."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self.now:.6f} pending={len(self._heap)} "
            f"dispatched={self._events_dispatched}>"
        )
