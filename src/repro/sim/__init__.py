"""Discrete-event simulation substrate for the Tiger reproduction.

Modules:

* :mod:`repro.sim.core` — :class:`~repro.sim.core.Simulator`, the event
  loop: one heap, dispatched in ``(time, insertion)`` order.
* :mod:`repro.sim.events` — :class:`~repro.sim.events.Event`, a
  cancellable scheduled callback; cancelling sets a flag the loop skips.
* :mod:`repro.sim.process` — :class:`~repro.sim.process.Process`, base
  class for simulated components.
* :mod:`repro.sim.rng` — :class:`~repro.sim.rng.RngRegistry`,
  deterministic named random streams.
* :mod:`repro.sim.trace` — :class:`~repro.sim.trace.Tracer`, structured
  trace collection.
* :mod:`repro.sim.stats` — measurement primitives: ``Counter``,
  ``Histogram``, ``BusyMeter``, ``RateMeter``.
"""
