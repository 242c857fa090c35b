"""Tests for the measurement primitives: the two time meters of
``repro.sim.stats`` and the registry's counter, histogram and
percentile."""


import pytest
from hypothesis import given, strategies as st

from repro.obs.registry import CounterSeries, HistogramSeries, percentile
from repro.sim.stats import BusyMeter, RateMeter


def histogram_of(values):
    hist = HistogramSeries({})
    for value in values:
        hist.observe(value)
    return hist


class TestCounter:
    def test_starts_at_zero(self):
        assert CounterSeries({}).count == 0

    def test_increment(self):
        counter = CounterSeries({})
        counter.increment()
        counter.increment(5)
        assert counter.count == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            CounterSeries({}).increment(-1)


class TestBusyMeter:
    def test_no_busy_time_is_idle(self):
        meter = BusyMeter(0.0)
        assert meter.utilization(10.0) == 0.0

    def test_half_busy(self):
        meter = BusyMeter(0.0)
        meter.add_busy(0.0, 5.0)
        assert meter.utilization(10.0) == pytest.approx(0.5)

    def test_serial_resource_queues_work(self):
        meter = BusyMeter(0.0)
        meter.add_busy(0.0, 5.0)
        meter.add_busy(0.0, 5.0)  # queues behind the first
        assert meter.busy_until == pytest.approx(10.0)
        assert meter.utilization(10.0) == pytest.approx(1.0)

    def test_utilization_capped_at_one(self):
        meter = BusyMeter(0.0)
        meter.add_busy(0.0, 100.0)
        assert meter.utilization(10.0) <= 1.0

    def test_future_work_not_counted(self):
        meter = BusyMeter(0.0)
        meter.add_busy(8.0, 4.0)  # runs 8..12
        assert meter.utilization(10.0) == pytest.approx(0.2)

    def test_reset_carries_overhang(self):
        meter = BusyMeter(0.0)
        meter.add_busy(0.0, 15.0)
        meter.reset(10.0)
        # 5 s of work overhangs into the new window.
        assert meter.utilization(15.0) == pytest.approx(1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            BusyMeter(0.0).add_busy(0.0, -1.0)

    def test_nan_duration_rejected(self):
        """One NaN accepted used to read 0.0 utilization for the rest
        of the run."""
        meter = BusyMeter(0.0)
        meter.add_busy(0.0, 5.0)
        with pytest.raises(ValueError):
            meter.add_busy(1.0, float("nan"))
        meter.add_busy(6.0, 1.0)
        assert meter.utilization(10.0) == pytest.approx(0.6)


class TestHistogram:
    def test_quantiles(self):
        hist = histogram_of(range(1, 101))
        assert hist.quantile(0.0) == 1
        assert hist.quantile(1.0) == 100
        assert hist.quantile(0.5) == pytest.approx(50.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            HistogramSeries({}).quantile(0.5)

    def test_bad_q_raises(self):
        hist = histogram_of([1.0])
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_single_sample(self):
        hist = histogram_of([42.0])
        assert hist.quantile(0.3) == 42.0
        assert hist.mean() == 42.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60))
    def test_quantile_bounds(self, values):
        q50 = histogram_of(values).quantile(0.5)
        assert min(values) <= q50 <= max(values)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60))
    def test_quantile_monotone(self, values):
        hist = histogram_of(values)
        assert hist.quantile(0.25) <= hist.quantile(0.75)


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter(0.0)
        for _ in range(10):
            meter.add(100)
        assert meter.snapshot(10.0) == pytest.approx(100.0)

    def test_snapshot_resets_window(self):
        meter = RateMeter(0.0)
        meter.add(100)
        meter.snapshot(10.0)
        assert meter.snapshot(20.0) == 0.0

    def test_total_is_cumulative(self):
        meter = RateMeter(0.0)
        meter.add(3)
        meter.snapshot(1.0)
        meter.add(4)
        assert meter.total == 7


class TestHelpers:
    def test_percentile_none_for_empty(self):
        assert percentile([], 0.5) is None

    def test_percentile_value(self):
        assert percentile([1.0, 3.0], 0.5) == pytest.approx(2.0)

    @given(
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=60),
        st.floats(0.0, 1.0),
    )
    def test_percentile_is_the_histograms_quantile(self, values, q):
        """Compared by ``repr``: to the last bit and the sign of zero."""
        expected = histogram_of(values).quantile(q)
        assert repr(percentile(values, q)) == repr(expected)
