"""The trace exporter: Chrome ``trace_event`` JSON.

:func:`trace_to_chrome` turns a :class:`~repro.sim.trace.TraceRecord`
stream into the JSON object understood by ``about://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_.  Each emitting component
(``cub:3``, ``controller``, ``client:0``) becomes a named thread,
instants render as marks and spans as bars, so a chaos run can be read
as a timeline of what every cub believed and forwarded.  Every record
field but ``node`` (which names the thread) and the record's message
are kept in the event's ``args``.

Simulated seconds map to trace microseconds (the Chrome format's native
unit), so timeline coordinates read directly as simulation time.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from repro.sim.trace import KIND_SPAN, TraceRecord


def _record_thread(record: TraceRecord) -> str:
    """The timeline row a record renders on: its emitting node.

    Component emitters stamp a ``node`` field
    (:meth:`repro.sim.process.Process.trace`); records without one
    (bare ``Tracer.emit`` calls) fall back to their category.
    """
    node = record.fields.get("node")
    return str(node) if node is not None else record.category


def trace_to_chrome(
    records: Iterable[TraceRecord], process_name: str = "tiger"
) -> Dict[str, Any]:
    """Convert records into a Chrome ``trace_event`` document.

    :param records: Any iterable of :class:`~repro.sim.trace.TraceRecord`.
    :param process_name: Display name of the single trace process.
    :returns: A dict ready for :func:`json.dump`; load the result in
        ``about://tracing`` or Perfetto.
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    tids: Dict[str, int] = {}
    body: List[Dict[str, Any]] = []
    for record in records:
        thread = _record_thread(record)
        tid = tids.get(thread)
        if tid is None:
            tid = len(tids) + 1
            tids[thread] = tid
        args = {
            key: value for key, value in record.fields.items() if key != "node"
        }
        args["message"] = record.message
        event: Dict[str, Any] = {
            "name": record.category,
            "cat": record.category,
            "ts": record.time * 1e6,
            "pid": 0,
            "tid": tid,
            "args": args,
        }
        if record.kind == KIND_SPAN:
            event["ph"] = "X"
            event["dur"] = record.duration * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"
        body.append(event)
    for thread, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": thread},
            }
        )
    events.extend(body)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated seconds scaled to microseconds"},
    }


def write_chrome_trace(
    path: str, records: Iterable[TraceRecord], process_name: str = "tiger"
) -> int:
    """Write a Chrome trace file; returns the number of records written.

    :param path: Output filename (conventionally ``.json``).
    :param records: Any iterable of :class:`~repro.sim.trace.TraceRecord`.
    :param process_name: Display name of the trace process.
    :returns: Count of trace records exported (metadata excluded).
    """
    materialized = list(records)
    document = trace_to_chrome(materialized, process_name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, default=str)
    return len(materialized)

