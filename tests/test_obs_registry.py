"""Tests for the dimensional metrics registry."""

import json

import pytest

from repro.obs import registry as registry_module
from repro.obs.registry import (
    CounterSeries,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_get_or_create_returns_same_handle(self):
        registry = MetricsRegistry()
        a = registry.counter("x.sent", help="h", unit="u", cub=3)
        b = registry.counter("x.sent", cub=3)
        assert a is b

    def test_distinct_labels_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("x.sent", cub=0)
        b = registry.counter("x.sent", cub=1)
        assert a is not b
        a.increment(5)
        b.increment(2)
        assert registry.get_value("x.sent", cub=0) == 5
        assert registry.get_value("x.sent", cub=1) == 2

    def test_counter_counts_up_only(self):
        # Protocol code (and the chaos fingerprint) reads `.count`.
        handle = MetricsRegistry().counter("x.sent")
        handle.increment()
        handle.increment(3)
        assert handle.count == 4
        assert handle.value() == 4
        with pytest.raises(ValueError):
            handle.increment(-1)
        assert handle.count == 4

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("x.sent", cub=1, slot=2)
        b = registry.counter("x.sent", slot=2, cub=1)
        assert a is b


class TestGauge:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("x.level", unit="ratio")
        gauge.set(0.5)
        assert gauge.value() == 0.5
        gauge.add(0.25)
        assert gauge.value() == 0.75
        gauge.set(-1.0)  # gauges may go down
        assert registry.get_value("x.level") == -1.0


class TestHistogram:
    def test_observe_and_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("x.latency", unit="s")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        summary = histogram.value()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["max"] == 4.0
        assert summary["p50"] <= summary["p95"] <= summary["max"]


class TestFamilySemantics:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x.thing")
        with pytest.raises(MetricError):
            registry.gauge("x.thing")

    def test_reserved_overflow_label_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("x.sent", overflow="true")

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b.x")
        registry.gauge("a.y")
        assert registry.names() == ["a.y", "b.x"]


class TestCardinalityGuard:
    def test_overflow_collapses_not_raises(self, monkeypatch):
        monkeypatch.setattr(registry_module, "MAX_SERIES_PER_FAMILY", 4)
        registry = MetricsRegistry()
        handles = [registry.counter("x.sent", cub=i) for i in range(10)]
        # The first 4 label sets got real series; the rest share one
        # overflow series, so hot paths never blow up on cardinality.
        assert len({id(h) for h in handles[:4]}) == 4
        assert len({id(h) for h in handles[4:]}) == 1
        assert handles[4] is handles[9]
        assert handles[4].labels == {"overflow": "true"}
        assert registry.series_overflowed == 6

    def test_overflow_series_in_snapshot(self, monkeypatch):
        monkeypatch.setattr(registry_module, "MAX_SERIES_PER_FAMILY", 2)
        registry = MetricsRegistry()
        for i in range(5):
            registry.counter("x.sent", cub=i).increment()
        snapshot = registry.snapshot()
        series = snapshot["x.sent"]["series"]
        assert series[-1]["labels"] == {"overflow": "true"}
        assert series[-1]["value"] == 3
        total = sum(entry["value"] for entry in series)
        assert total == 5  # nothing lost, only dimensionality


class TestSnapshot:
    def test_structure_and_json(self):
        registry = MetricsRegistry()
        registry.counter("x.sent", help="blocks out", unit="blocks", cub=1).increment(7)
        registry.gauge("x.load", unit="ratio").set(0.25)
        snapshot = registry.snapshot()
        assert snapshot["x.sent"]["kind"] == "counter"
        assert snapshot["x.sent"]["help"] == "blocks out"
        assert snapshot["x.sent"]["unit"] == "blocks"
        assert snapshot["x.sent"]["series"] == [
            {"labels": {"cub": "1"}, "value": 7}
        ]
        parsed = json.loads(registry.to_json())
        assert parsed["x.load"]["series"][0]["value"] == 0.25

    def test_get_value_missing_series(self):
        registry = MetricsRegistry()
        registry.counter("x.sent", cub=1)
        assert registry.get_value("x.sent", cub=99) is None
        assert registry.get_value("no.such.family") is None


class TestSystemWiring:
    def test_cub_counters_live_in_system_registry(self):
        from repro import TigerSystem, small_config

        system = TigerSystem(small_config(), seed=0)
        cub = system.cubs[0]
        assert isinstance(cub.blocks_sent, CounterSeries)
        assert cub.blocks_sent is system.registry.counter(
            "cub.blocks_sent", cub=0
        )
        cub.blocks_sent.increment()
        assert system.registry.get_value("cub.blocks_sent", cub=0) == 1

    def test_export_metrics_publishes_gauges(self):
        from repro import TigerSystem, small_config

        system = TigerSystem(small_config(), seed=0)
        registry = system.export_metrics()
        assert registry is system.registry
        for name in (
            "net.messages_delivered",
            "oracle.load",
            "trace.dropped",
            "sim.events_dispatched",
            "cub.cpu_utilization",
        ):
            assert name in registry.names()


class TestMergeSnapshots:
    """Cross-registry merging (the live cluster's per-node snapshots)."""

    def test_counters_sum_and_gauges_last_win(self):
        from repro.obs.registry import merge_snapshots

        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x.sent", cub=0).increment(3)
        b.counter("x.sent", cub=0).increment(4)
        a.gauge("x.level").set(1.0)
        b.gauge("x.level").set(9.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["x.sent"]["series"][0]["value"] == 7
        assert merged["x.level"]["series"][0]["value"] == 9.0

    def test_two_overflowed_registries_merge_without_double_count(
        self, monkeypatch
    ):
        """Regression: both nodes collapsed into their overflow series.

        The overflow rows share the reserved label set, so they must
        combine exactly once — the merged total equals the sum of every
        increment on either node, nothing dropped, nothing doubled.
        """
        from repro.obs.registry import merge_snapshots

        monkeypatch.setattr(registry_module, "MAX_SERIES_PER_FAMILY", 2)
        a, b = MetricsRegistry(), MetricsRegistry()
        for i in range(5):
            a.counter("x.sent", cub=i).increment()        # 3 overflowed
            b.counter("x.sent", cub=i + 100).increment()  # 3 overflowed
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        series = merged["x.sent"]["series"]
        overflow_rows = [
            row for row in series if row["labels"] == {"overflow": "true"}
        ]
        assert len(overflow_rows) == 1
        assert overflow_rows[0]["value"] == 6
        assert sum(row["value"] for row in series) == 10

    def test_merged_overflow_row_stays_last(self, monkeypatch):
        """Regression: a second snapshot's plain rows used to append
        after the first snapshot's overflow row, breaking the
        overflow-last contract :meth:`MetricsRegistry.snapshot` gives
        every downstream consumer."""
        from repro.obs.registry import merge_snapshots

        monkeypatch.setattr(registry_module, "MAX_SERIES_PER_FAMILY", 2)
        a = MetricsRegistry()
        for i in range(4):
            a.counter("x.sent", cub=i).increment()
        b = MetricsRegistry()  # two series: within the bound
        a_keys = {0, 1}
        for i in range(4, 6):
            b.counter("x.sent", cub=i).increment()
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        series = merged["x.sent"]["series"]
        assert series[-1]["labels"] == {"overflow": "true"}
        assert all(
            row["labels"] != {"overflow": "true"} for row in series[:-1]
        )
        assert {row["labels"].get("cub") for row in series[:-1]} >= {
            str(i) for i in a_keys
        }

    def test_histograms_sum_per_contract(self):
        """Regression: histogram series were last-wins despite the
        documented merge semantics; counts must add and the summary
        stats must reflect both sides."""
        from repro.obs.registry import merge_snapshots

        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            a.histogram("x.latency").observe(value)
        for value in (10.0, 20.0):
            b.histogram("x.latency").observe(value)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        value = merged["x.latency"]["series"][0]["value"]
        assert value["count"] == 5
        assert value["mean"] == pytest.approx((1 + 2 + 3 + 10 + 20) / 5)
        assert value["max"] == 20.0
