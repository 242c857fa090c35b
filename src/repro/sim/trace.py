"""Lightweight structured tracing for simulation runs.

The tracer records :class:`TraceRecord` entries into a bounded ring
buffer.  Tests assert on traces to verify protocol behaviour ("cub 2
forwarded viewer state for slot 7 twice") without instrumenting
production code paths with test hooks, and the observability layer
(:mod:`repro.obs.export`) exports the same records as JSON lines or a
Chrome ``trace_event`` file for timeline inspection.

Records come in two kinds:

* ``"instant"`` — a point event (the default, emitted by :meth:`Tracer.emit`);
* ``"span"`` — an interval with a duration (emitted by
  :meth:`Tracer.emit_span`), rendered as a bar on a Chrome timeline.

Every trace category and its fields are documented in
``docs/OBSERVABILITY.md``; a test asserts that inventory stays complete.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, NamedTuple, Optional, Set

#: Record kind for point events.
KIND_INSTANT = "instant"
#: Record kind for interval (span) events carrying a duration.
KIND_SPAN = "span"


class TraceRecord(NamedTuple):
    """One trace entry.

    :param time: Simulated time of the event (span start for spans), in
        seconds.
    :param category: Dot-separated category name (e.g. ``"vstate.forward"``).
    :param message: Human-readable description; component emitters prefix
        it with the component name (``"cub:2: ..."``).
    :param fields: Structured key/value payload for programmatic matching.
    :param kind: :data:`KIND_INSTANT` or :data:`KIND_SPAN`.
    :param duration: Span length in seconds; ``0.0`` for instants.
    """

    time: float
    category: str
    message: str
    fields: Dict[str, Any]
    kind: str = KIND_INSTANT
    duration: float = 0.0


class Tracer:
    """Collects :class:`TraceRecord` entries, optionally filtered by category.

    Tracing defaults to disabled so the hot path pays one attribute
    check per call site.  Enable everything with :meth:`enable` or a
    subset with ``enable("viewerstate", "deschedule")``.

    The buffer is a **bounded ring**: once ``capacity`` records are held
    (100 000 by default), each new record evicts the oldest one and the
    :attr:`dropped` counter increments.  Long captures should either
    raise ``capacity`` or restrict categories; exporters surface
    :attr:`dropped` through the metrics registry (``trace.dropped``) so
    silent truncation is visible.

    :param capacity: Maximum number of records retained.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        #: Retained records, oldest first (bounded ring).
        self.records: Deque[TraceRecord] = deque(maxlen=capacity)
        #: Ring size; records beyond this evict the oldest entry.
        self.capacity = capacity
        #: Master switch checked by every ``emit`` call.
        self.enabled = False
        #: Number of records evicted from the full ring so far.
        self.dropped = 0
        self._categories: Optional[Set[str]] = None  # None = all categories

    def enable(self, *categories: str) -> None:
        """Turn tracing on; restrict to ``categories`` if any are given.

        :param categories: Category names to keep; empty means all.
        """
        self.enabled = True
        self._categories = set(categories) if categories else None

    def emit(self, time: float, category: str, message: str, **fields: Any) -> None:
        """Record one instant event (no-op while disabled or filtered).

        :param time: Simulated time of the event, in seconds.
        :param category: Dot-separated category name.
        :param message: Human-readable description.
        :param fields: Structured payload stored on the record.
        """
        if not self.enabled:
            return
        if self._categories is not None and category not in self._categories:
            return
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append(TraceRecord(time, category, message, fields))

    def emit_span(
        self,
        start: float,
        end: float,
        category: str,
        message: str,
        **fields: Any,
    ) -> None:
        """Record one span covering ``[start, end]`` in simulated time.

        :param start: Span start time, in seconds.
        :param end: Span end time; must not precede ``start``.
        :param category: Dot-separated category name.
        :param message: Human-readable description.
        :param fields: Structured payload stored on the record.
        :raises ValueError: If ``end`` precedes ``start``.
        """
        if end < start:
            raise ValueError(f"span ends at {end} before it starts at {start}")
        if not self.enabled:
            return
        if self._categories is not None and category not in self._categories:
            return
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append(
            TraceRecord(start, category, message, fields, KIND_SPAN, end - start)
        )

    def select(self, category: str) -> List[TraceRecord]:
        """All recorded entries of one category, in time order.

        :param category: Category name to select.
        :returns: Matching records, oldest first.
        """
        return [record for record in self.records if record.category == category]

    def matching(self, category: str, **fields: Any) -> List[TraceRecord]:
        """Entries of ``category`` whose fields include every given key/value.

        :param category: Category name to select.
        :param fields: Key/value pairs each returned record must carry.
        :returns: Matching records, oldest first.
        """
        out = []
        for record in self.records:
            if record.category != category:
                continue
            if all(record.fields.get(key) == value for key, value in fields.items()):
                out.append(record)
        return out

    def categories(self) -> Set[str]:
        """Distinct category names currently held in the ring."""
        return {record.category for record in self.records}

    def clear(self) -> None:
        """Discard all retained records (the :attr:`dropped` count stays)."""
        self.records.clear()


NULL_TRACER = Tracer(capacity=1)
"""A shared disabled tracer for components created without one."""


def format_trace(records: Iterable[TraceRecord]) -> str:
    """Human-readable rendering for debugging and example scripts.

    :param records: Any iterable of :class:`TraceRecord`.
    :returns: One line per record, aligned for terminal reading.
    """
    lines = []
    for record in records:
        fields = " ".join(f"{key}={value}" for key, value in record.fields.items())
        span = f" [+{record.duration:.4f}s]" if record.kind == KIND_SPAN else ""
        lines.append(
            f"[{record.time:10.4f}] {record.category:14s} {record.message}{span} {fields}"
        )
    return "\n".join(lines)
