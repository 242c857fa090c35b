"""Discrete-event simulation substrate for the Tiger reproduction.

Public surface:

* :class:`Simulator` — the event loop.
* :class:`Event` — a cancellable scheduled callback.
* :class:`Process` — base class for simulated components.
* :class:`RngRegistry` — deterministic named random streams.
* :class:`Tracer` — structured trace collection.
* Measurement primitives: :class:`Counter`, :class:`Histogram`,
  :class:`BusyMeter`, :class:`RateMeter`.
"""

from repro.sim.core import SimulationError, Simulator
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, Event
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.stats import (
    BusyMeter,
    Counter,
    Histogram,
    RateMeter,
    percentile,
    summarize,
)
from repro.sim.trace import NULL_TRACER, TraceRecord, Tracer, format_trace

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "Process",
    "RngRegistry",
    "Tracer",
    "TraceRecord",
    "NULL_TRACER",
    "format_trace",
    "Counter",
    "Histogram",
    "BusyMeter",
    "RateMeter",
    "percentile",
    "summarize",
]
