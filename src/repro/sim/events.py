"""Event objects for the discrete-event simulator.

An :class:`Event` is a scheduled callback that can be cancelled.
The heap holds ``(time, seq, event)`` tuples beside the ``(time, seq,
fn, arg)`` tuples of :meth:`Simulator.post
<repro.sim.core.Simulator.post>`, which need no ``Event``; both draw
``seq`` from :data:`_seq_counter`, so simultaneous entries fire in
insertion order.  ``seq`` is unique, so the tuple compare is decided
before it reaches the event or the callback and every heap comparison
runs in C — an ``Event`` defines no ordering of its own.
Cancelling an event only sets its flag: the simulator loop skips it
when it reaches the top of the heap, which keeps cancellation O(1).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Tuple

#: The one insertion counter of every heap entry, event or post.
_seq_counter = itertools.count()


class Event:
    """A single scheduled callback within a :class:`~repro.sim.core.Simulator`.

    Users normally obtain events from :meth:`Simulator.call_at` or
    :meth:`Simulator.call_after` rather than constructing them directly.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(
        self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...] = ()
    ) -> None:
        if fn is None:
            raise ValueError("event callback must not be None")
        self.time = float(time)
        self.seq = next(_seq_counter)
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """True if the event has not been cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} {state} fn={name}>"
