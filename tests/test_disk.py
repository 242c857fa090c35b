"""Tests for the zoned disk model and simulated drives."""

import pytest
from hypothesis import given, strategies as st

from repro.disk.drive import SimDisk
from repro.disk.model import (
    DiskParameters,
    unfailed_utilization_at_capacity,
    worst_case_streams_per_disk,
)
from repro.disk.zones import ULTRASTAR_LIKE, ZONE_INNER, ZONE_OUTER, ZoneGeometry
from repro.sim.rng import RngRegistry


class TestZoneGeometry:
    def test_outer_faster_than_inner(self):
        assert ULTRASTAR_LIKE.outer_rate > ULTRASTAR_LIKE.inner_rate

    def test_inner_faster_rejected(self):
        with pytest.raises(ValueError):
            ZoneGeometry(outer_rate=1e6, inner_rate=2e6)

    def test_transfer_time(self):
        geom = ZoneGeometry(outer_rate=1e6, inner_rate=0.5e6)
        assert geom.transfer_time(ZONE_OUTER, 1_000_000) == pytest.approx(1.0)
        assert geom.transfer_time(ZONE_INNER, 1_000_000) == pytest.approx(2.0)

    def test_unknown_zone_rejected(self):
        with pytest.raises(ValueError):
            ULTRASTAR_LIKE.rate("middle")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ULTRASTAR_LIKE.transfer_time(ZONE_OUTER, -1)


class TestDiskParameters:
    def test_expected_read_time_components(self):
        params = DiskParameters()
        expected = (
            params.mean_seek
            + params.rotational_latency
            + 250_000 / params.geometry.outer_rate
        )
        assert params.expected_read_time(ZONE_OUTER, 250_000) == pytest.approx(expected)

    def test_worst_case_exceeds_expected(self):
        params = DiskParameters()
        assert params.worst_case_read_time(ZONE_OUTER, 250_000) > params.expected_read_time(
            ZONE_OUTER, 250_000
        )

    def test_inner_zone_slower(self):
        params = DiskParameters()
        assert params.expected_read_time(ZONE_INNER, 250_000) > params.expected_read_time(
            ZONE_OUTER, 250_000
        )

    def test_bad_outlier_probability_rejected(self):
        with pytest.raises(ValueError):
            DiskParameters(outlier_probability=1.5)

    def test_bad_seek_config_rejected(self):
        with pytest.raises(ValueError):
            DiskParameters(min_seek=0.02, mean_seek=0.01)

    def test_sample_mean_close_to_expected(self, rngs):
        params = DiskParameters()
        rng = rngs.stream("sample")
        samples = [
            params.sample_read_time(rng, ZONE_OUTER, 250_000) for _ in range(3000)
        ]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(
            params.expected_read_time(ZONE_OUTER, 250_000), rel=0.02
        )

    def test_outliers_appear_at_configured_rate(self, rngs):
        params = DiskParameters(outlier_probability=0.2)
        rng = rngs.stream("outliers")
        baseline = params.worst_case_read_time(ZONE_OUTER, 250_000)
        samples = [
            params.sample_read_time(rng, ZONE_OUTER, 250_000) for _ in range(2000)
        ]
        outliers = sum(1 for sample in samples if sample > baseline + 0.1)
        assert 0.1 < outliers / len(samples) < 0.3

    @given(st.integers(10_000, 2_000_000))
    def test_sample_bounded_below_by_transfer(self, size):
        params = DiskParameters()
        rng = RngRegistry(0).stream("bound")
        sample = params.sample_read_time(rng, ZONE_OUTER, size)
        assert sample >= params.geometry.transfer_time(ZONE_OUTER, size)


class TestCapacityModel:
    """The §2.3/§5 capacity arithmetic."""

    def test_paper_streams_per_disk(self):
        """0.25 MB blocks, decluster 4 → about 10.75-11 streams/disk."""
        streams = worst_case_streams_per_disk(DiskParameters(), 250_000, 4)
        assert 10.4 < streams < 11.6

    def test_larger_decluster_more_streams(self):
        """Bigger decluster factor reserves less failed-mode bandwidth."""
        params = DiskParameters()
        assert worst_case_streams_per_disk(
            params, 250_000, 4
        ) > worst_case_streams_per_disk(params, 250_000, 2)

    def test_decluster_below_one_rejected(self):
        with pytest.raises(ValueError):
            worst_case_streams_per_disk(DiskParameters(), 250_000, 0)

    def test_unfailed_utilization_below_one(self):
        """Rated capacity reserves headroom for mirror reads."""
        util = unfailed_utilization_at_capacity(DiskParameters(), 250_000, 4)
        assert 0.5 < util < 0.85


class TestSimDisk:
    @pytest.fixture
    def disk(self, sim, rngs):
        return SimDisk(sim, "d0", DiskParameters(), rngs)

    def test_read_completes(self, sim, disk):
        done = []
        disk.read(250_000, ZONE_OUTER, done.append)
        sim.run()
        assert len(done) == 1
        assert done[0] > 0.04  # at least the transfer time

    def test_fifo_service(self, sim, disk):
        done = []
        disk.read(250_000, ZONE_OUTER, lambda t: done.append(("a", t)))
        disk.read(250_000, ZONE_OUTER, lambda t: done.append(("b", t)))
        sim.run()
        assert [tag for tag, _ in done] == ["a", "b"]
        assert done[1][1] > done[0][1]

    def test_utilization_tracks_busy(self, sim, disk):
        for _ in range(10):
            disk.read(250_000, ZONE_OUTER, lambda t: None)
        sim.run()
        assert disk.utilization() == pytest.approx(1.0, abs=0.01)

    def test_counters(self, sim, disk):
        disk.read(100_000, ZONE_OUTER, lambda t: None)
        sim.run()
        assert disk.reads_completed.count == 1
        assert disk.bytes_read.count == 100_000

    def test_failed_disk_errors_immediately(self, sim, disk):
        disk.fail()
        errors = []
        disk.read(100_000, ZONE_OUTER, lambda t: None, on_error=lambda: errors.append(1))
        sim.run()
        assert errors == [1]
        assert disk.reads_completed.count == 0

    def test_failure_mid_flight_errors(self, sim, disk):
        results = {"done": 0, "err": 0}
        disk.read(
            250_000,
            ZONE_OUTER,
            lambda t: results.__setitem__("done", 1),
            on_error=lambda: results.__setitem__("err", 1),
        )
        sim.call_at(0.001, disk.fail)
        sim.run()
        assert results == {"done": 0, "err": 1}

    def test_recovery_allows_reads(self, sim, disk):
        disk.fail()
        disk.recover()
        done = []
        disk.read(100_000, ZONE_OUTER, done.append)
        sim.run()
        assert len(done) == 1

    def test_queue_backlog(self, sim, disk):
        disk.read(250_000, ZONE_OUTER, lambda t: None)
        assert disk.queue_backlog > 0.0

    def test_nonpositive_read_rejected(self, sim, disk):
        with pytest.raises(ValueError):
            disk.read(0, ZONE_OUTER, lambda t: None)

    def test_inner_reads_slower_on_average(self, sim, rngs):
        disk = SimDisk(sim, "dz", DiskParameters(), rngs)
        times = {"outer": [], "inner": []}
        for _ in range(50):
            start = sim.now
            disk.read(250_000, ZONE_OUTER, lambda t, s=start: times["outer"].append(t - s))
            sim.run()
            start = sim.now
            disk.read(250_000, ZONE_INNER, lambda t, s=start: times["inner"].append(t - s))
            sim.run()
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(times["inner"]) > mean(times["outer"])
