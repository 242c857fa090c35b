"""Event objects for the discrete-event simulator.

An :class:`Event` is a scheduled callback that can be cancelled.
Events are ordered by ``(time, priority, seq)`` so that simultaneous
events fire in a deterministic order: lower priority values first, then
insertion order.  The heap holds ``(time, priority, seq, event)``
tuples beside the ``(time, priority, seq, fn, arg)`` tuples of
:meth:`Simulator.post <repro.sim.core.Simulator.post>`, which need no
``Event``; both draw ``seq`` from :data:`_seq_counter`.  ``seq`` is
unique, so the tuple compare is decided before it reaches the event or
the callback and every heap comparison runs in C — an ``Event`` defines
no ordering of its own.
Events may be cancelled; cancelled events are skipped (and lazily
discarded) by the simulator loop rather than removed from the heap,
which keeps cancellation O(1).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Tuple

#: Priority used for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for events that must run before ordinary ones at the same time.
PRIORITY_HIGH = -10
#: Priority for bookkeeping that should run after ordinary events.
PRIORITY_LOW = 10

#: The one insertion counter of every heap entry, event or post.
_seq_counter = itertools.count()


class Event:
    """A single scheduled callback within a :class:`~repro.sim.core.Simulator`.

    Users normally obtain events from :meth:`Simulator.call_at` or
    :meth:`Simulator.call_after` rather than constructing them directly.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        if fn is None:
            raise ValueError("event callback must not be None")
        self.time = float(time)
        self.priority = priority
        self.seq = next(_seq_counter)
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: The simulator whose heap currently holds this event (set on
        #: push, cleared on pop) so :meth:`cancel` can report tombstones
        #: for lazy heap compaction.  Cancelling a fired event is still
        #: a plain flag write.
        self.owner = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._note_cancelled()

    @property
    def active(self) -> bool:
        """True if the event has not been cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} {state} fn={name}>"
