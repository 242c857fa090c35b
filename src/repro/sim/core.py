"""The discrete-event simulation kernel.

The kernel is deliberately small — and the only one the DES has: a
time-ordered heap and a clock.  A heap entry has one of two shapes,
both ordered by their first two fields:

* ``(time, seq, event)`` — a cancellable
  :class:`~repro.sim.events.Event`, from :meth:`Simulator.call_at` /
  ``call_after``;
* ``(time, seq, fn, arg)`` — a fire-and-forget callback from
  :meth:`Simulator.post`: no ``Event``, no args tuple, no handle.

One loop, :meth:`Simulator.run`, dispatches both in deterministic
order.

Design notes
------------
* Callback style (not coroutines): Tiger's protocol code is reactive —
  "when a message arrives", "when a timer fires" — which maps naturally
  onto callbacks, keeps the event loop trivially fast, and produces flat
  stack traces when something goes wrong.
* Determinism: ties in time are broken by insertion order and all
  randomness flows through :class:`~repro.sim.rng.RngRegistry`, so a
  run is a pure function of its seed and configuration.  Both entry
  shapes draw ``seq`` from one counter, so a post and an event at the
  same time fire in the order they were scheduled.
* Cancellation is lazy: a cancelled event stays in the heap as a
  tombstone until its own time reaches the top.  A tombstone is never
  dispatched, never counted and never advances the clock.  A posted
  entry cannot be cancelled.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event, _seq_counter


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

    def __init__(self) -> None:
        #: Current simulated time in seconds.  A plain attribute, read
        #: on every hop of every block; only this module writes it (the
        #: dispatch loop, ``step`` and the end of a bounded ``run``).
        self.now = 0.0
        #: The event heap, of both entry shapes (see the module
        #: docstring).  :meth:`run` holds this list across callbacks.
        self._heap: List[Tuple[Any, ...]] = []
        self._events_dispatched = 0
        self._running = False
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
    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Scheduling exactly at ``now`` is permitted (the event runs within
        the current instant, after events already queued for it);
        scheduling strictly into the past is an error.
        """
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, now is t={self.now:.9f}"
            )
        event = Event(time, fn, args)
        heappush(self._heap, (event.time, event.seq, event))
        return event

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self.now + delay, fn, *args)

    def post(self, time: float, fn: Callable[[Any], Any], arg: Any) -> None:
        """Schedule ``fn(arg)`` at ``time``, for good: nothing can cancel it.

        The entry is one heap tuple, ``(time, seq, fn, arg)``, with
        ``seq`` from the counter ``call_at`` uses, so it is dispatched
        exactly where a ``call_at(time, fn, arg)`` would be, and counts
        in ``events_dispatched`` like any event.  The DES fabric posts
        every delivery; a caller that might cancel uses :meth:`call_at`.
        """
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, now is t={self.now:.9f}"
            )
        heappush(self._heap, (time, next(_seq_counter), fn, arg))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next active entry, or None if there is none.

        Pops the tombstones above it on the way."""
        heap = self._heap
        while heap and len(heap[0]) == 3 and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Dispatch the next active event or post.

        Returns False when the heap holds no active entries.
        """
        if self.peek_time() is None:
            return False
        entry = heappop(self._heap)
        self.now = entry[0]
        self._events_dispatched += 1
        if len(entry) == 4:
            fn = entry[2]
            args: Tuple[Any, ...] = (entry[3],)
        else:
            fn, args = entry[2].fn, entry[2].args
        if self._profiler is None:
            fn(*args)
        else:
            started = perf_counter()
            fn(*args)
            self._profiler.record(fn, perf_counter() - started, self.now)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the next entry is past ``until``.

        When ``until`` is given, the clock ends at exactly ``until``
        even if the last event fires earlier, so back-to-back ``run``
        calls observe a monotonic clock.  Only an exception raised by a
        callback ends a run sooner; it leaves the clock at that
        callback's time.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        heap = self._heap
        horizon = inf if until is None else until
        try:
            while heap:
                entry = heap[0]
                if entry[0] > horizon:
                    break
                heappop(heap)
                posted = len(entry) == 4
                if not posted:
                    event = entry[2]
                    if event.cancelled:
                        # A tombstone moves no clock and counts nothing.
                        continue
                self.now = entry[0]
                self._events_dispatched += 1
                profiler = self._profiler
                if posted:
                    fn = entry[2]
                    if profiler is None:
                        fn(entry[3])
                    else:
                        started = perf_counter()
                        fn(entry[3])
                        profiler.record(fn, perf_counter() - started, self.now)
                else:
                    fn = event.fn
                    if profiler is None:
                        fn(*event.args)
                    else:
                        started = perf_counter()
                        fn(*event.args)
                        profiler.record(fn, perf_counter() - started, self.now)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self.now:.6f} pending={len(self._heap)} "
            f"dispatched={self._events_dispatched}>"
        )
