"""The live runtime: wall clock plus asyncio timers.

:class:`LiveRuntime` is the live backend's implementation of the
:class:`repro.runtime.Runtime` contract, mirroring the scheduling
surface of :class:`~repro.sim.core.Simulator` closely enough that the
protocol classes (and the disk model underneath them) run on it
unmodified:

* ``now`` — seconds since the cluster **epoch**, a wall-clock instant
  every node of a cluster is told at the start handshake.  All nodes of
  one localhost cluster share ``time.time()``, so their clocks agree to
  well under a slot width — the live analogue of the paper's clock-
  mastering assumption (§4.2 notes cubs keep clocks synchronized to
  "within a few milliseconds").
* ``call_at(when, fn, *args)`` / ``call_after(delay, fn, *args)`` —
  the DES signatures exactly, returning cancellable timers with the
  :class:`~repro.sim.events.Event` surface (``cancel()``, ``active``,
  ``time``).  One deliberate divergence: scheduling *slightly* in the
  past is clamped to "immediately" instead of raising.  In the DES a
  past schedule is a logic bug; on a wall clock it is routine — any
  callback can run a few milliseconds late, pushing the times derived
  from ``now`` behind the clock by the time they are scheduled.

Callback exceptions are counted and remembered rather than allowed to
kill the event loop, matching the DES convention that a handler error
surfaces in the run report instead of tearing down the process silently.
"""

from __future__ import annotations

import asyncio
import math
import time
import traceback
from typing import Any, Callable, List, Optional, Set, Tuple


class LiveTimer:
    """A scheduled callback on the live event loop.

    Mirrors the :class:`~repro.sim.events.Event` surface the protocol
    code relies on: ``time``, ``fn``, ``cancel()``, ``active``.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_handle")

    def __init__(self, when: float, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.time = float(when)
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def active(self) -> bool:
        """True while the callback has not been cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<LiveTimer t={self.time:.6f} {state} fn={name}>"


class LiveRuntime:
    """Wall-clock runtime driving protocol callbacks on asyncio.

    :param epoch: The ``time.time()`` instant that maps to runtime time
        0.0.  Every node of one cluster is handed the same epoch, so
        their ``now`` values — and therefore their slot arithmetic —
        agree.  Defaults to "now".
    :param loop: The event loop to schedule on; defaults to the running
        loop at first use.
    """

    #: How many callback errors to keep verbatim for the run report.
    MAX_RECORDED_ERRORS = 32

    def __init__(
        self,
        epoch: Optional[float] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        #: None only on a runtime built by :meth:`awaiting_epoch`, until
        #: :meth:`fix_epoch`.
        self.epoch: Optional[float] = (
            time.time() if epoch is None else float(epoch)
        )
        self._loop = loop
        self._events_dispatched = 0
        self.callback_errors = 0
        #: Up to :data:`MAX_RECORDED_ERRORS` ``(runtime_time, fn_name,
        #: traceback_text)`` tuples for post-mortem reporting.
        self.errors: List[Tuple[float, str, str]] = []
        #: Timers not yet fired, for :meth:`cancel_all`.
        self._timers: Set[LiveTimer] = set()
        self._sweep_at = 512

    @classmethod
    def awaiting_epoch(
        cls, loop: Optional[asyncio.AbstractEventLoop] = None
    ) -> "LiveRuntime":
        """A runtime to build a host on before the cluster's epoch is
        known: it has no ``now`` and refuses every timer until
        :meth:`fix_epoch`."""
        runtime = cls(0.0, loop)
        runtime.epoch = None
        return runtime

    def fix_epoch(self, epoch: float) -> None:
        """Set the instant that is runtime time 0.0, once."""
        if self.epoch is not None:
            raise RuntimeError("this runtime's epoch is already fixed")
        self.epoch = float(epoch)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since the cluster epoch (may be negative pre-start).

        Undefined, and so an error, until the epoch is fixed: every
        timer asks for it, so none can be set before then."""
        epoch = self.epoch
        if epoch is None:
            raise RuntimeError("this runtime's epoch is not fixed yet")
        return time.time() - epoch

    @property
    def events_dispatched(self) -> int:
        """Callbacks executed so far (parity with the DES kernel)."""
        return self._events_dispatched

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
        return self._loop

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> LiveTimer:
        """Schedule ``fn(*args)`` at absolute runtime time ``when``.

        Times already past are clamped to "as soon as possible" —
        wall-clock lateness is a fact of life, not a bug.  A NaN time
        is a bug, refused as the DES refuses it.
        """
        if math.isnan(when):
            raise ValueError(f"cannot schedule at t={when!r}")
        timer = LiveTimer(when, fn, args)
        delay = max(0.0, when - self.now)
        timer._handle = self._ensure_loop().call_later(
            delay, self._dispatch, timer
        )
        self._track(timer)
        return timer

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> LiveTimer:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay {delay!r}")
        return self.call_at(self.now + delay, fn, *args)

    def _dispatch(self, timer: LiveTimer) -> None:
        # Fired (or cancelled after its handle ran): no longer pending.
        self._timers.discard(timer)
        if timer.cancelled:
            return
        self._events_dispatched += 1
        try:
            timer.fn(*timer.args)
        except Exception:  # noqa: BLE001 - the loop must survive handlers
            self.callback_errors += 1
            if len(self.errors) < self.MAX_RECORDED_ERRORS:
                name = getattr(timer.fn, "__qualname__", repr(timer.fn))
                self.errors.append((self.now, name, traceback.format_exc()))

    def _track(self, timer: LiveTimer) -> None:
        """Remember ``timer`` until it fires, for :meth:`cancel_all`.

        A cancelled timer's handle never runs, so those are swept here
        once they could outnumber the pending ones.
        """
        self._timers.add(timer)
        if len(self._timers) > self._sweep_at:
            self._timers = {entry for entry in self._timers if entry.active}
            self._sweep_at = max(512, 2 * len(self._timers))

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def cancel_all(self) -> None:
        """Cancel every timer this runtime scheduled (clean shutdown)."""
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        now = "unfixed" if self.epoch is None else f"{self.now:.3f}"
        return (
            f"<LiveRuntime now={now} "
            f"dispatched={self._events_dispatched} "
            f"errors={self.callback_errors}>"
        )
