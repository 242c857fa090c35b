"""Unified observability layer: metrics registry and trace export.

This package is the one place the rest of the reproduction reports what
it measures:

* :mod:`repro.obs.registry` — a dimensional metrics registry (counters,
  gauges, histograms keyed by labels such as ``cub``, ``slot``,
  ``stream``, ``category``) that the per-cub counters,
  :class:`~repro.core.metrics.MetricsCollector`, and the chaos
  :class:`~repro.faults.monitor.InvariantMonitor` publish into;
* :mod:`repro.obs.export` — the Chrome ``trace_event`` exporter for
  :class:`~repro.sim.trace.Tracer` records.

Every metric name and trace category is documented in
``docs/OBSERVABILITY.md``; ``tests/test_obs_docs.py`` asserts the doc
stays complete against what a fault-injected run actually emits.
"""
