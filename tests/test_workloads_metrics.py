"""Tests for the workload drivers and metrics collection."""

import pytest

from repro import TigerSystem, small_config
from repro.workloads import ContinuousWorkload, RampDriver, StartupLatencyProbe
from repro.workloads.startup import StartupResult


def build_system(seed=3, duration=120.0):
    system = TigerSystem(small_config(), seed=seed)
    system.add_standard_content(num_files=6, duration_s=duration)
    return system


class TestContinuousWorkload:
    def test_requires_content(self):
        system = TigerSystem(small_config())
        with pytest.raises(ValueError):
            ContinuousWorkload(system)

    def test_add_streams_starts_them(self):
        system = build_system()
        workload = ContinuousWorkload(system)
        workload.add_streams(8)
        system.run_for(10.0)
        assert system.oracle.num_occupied == 8
        assert workload.target == 8

    def test_clients_provisioned_automatically(self):
        system = build_system()
        workload = ContinuousWorkload(system, streams_per_client=4)
        workload.add_streams(10)
        assert len(system.clients) == 3

    def test_eof_restarts_keep_population(self):
        system = build_system(duration=25.0)
        workload = ContinuousWorkload(system)
        workload.add_streams(6)
        system.run_for(70.0)  # two EOF generations
        # Population stays near target (modulo restart latency).
        assert system.oracle.num_occupied >= 4
        monitors = workload.all_monitors()
        assert len(monitors) > 6  # restarts created new instances

    def test_startup_latencies_collected(self):
        system = build_system()
        workload = ContinuousWorkload(system)
        workload.add_streams(5)
        system.run_for(10.0)
        latencies = workload.startup_latencies()
        assert len(latencies) == 5
        assert all(lat > 0 for lat in latencies)


class TestRampDriver:
    def test_step_sizes_match_paper_pattern(self):
        system = build_system()
        workload = ContinuousWorkload(system)
        metrics = system.metrics()
        driver = RampDriver(
            system, workload, metrics, target_streams=62, streams_per_step=30,
        )
        assert driver.step_sizes() == [30, 30, 2]

    def test_ramp_produces_one_sample_per_step(self):
        system = build_system()
        workload = ContinuousWorkload(system)
        metrics = system.metrics()
        driver = RampDriver(
            system,
            workload,
            metrics,
            target_streams=24,
            streams_per_step=8,
            settle_time=2.0,
            measure_time=3.0,
        )
        result = driver.run()
        assert len(result.samples) == 3
        streams = result.streams()
        assert streams == sorted(streams)
        assert streams[-1] >= 20

    def test_cub_load_grows_with_streams(self):
        system = build_system()
        workload = ContinuousWorkload(system)
        metrics = system.metrics()
        driver = RampDriver(
            system, workload, metrics,
            target_streams=30, streams_per_step=10,
            settle_time=2.0, measure_time=4.0,
        )
        result = driver.run()
        cpu = result.series("cub_cpu_mean")
        assert cpu[-1] > cpu[0]

    def test_invalid_times_rejected(self):
        system = build_system()
        workload = ContinuousWorkload(system)
        with pytest.raises(ValueError):
            RampDriver(system, workload, system.metrics(), measure_time=0.0)


class TestStartupProbe:
    def test_probe_collects_load_latency_pairs(self):
        system = build_system()
        workload = ContinuousWorkload(system)
        probe = StartupLatencyProbe(system, workload, probe_timeout=30.0)
        result = probe.run_ramp(step=8, target=24, settle=6.0)
        assert len(result.samples) >= 20
        assert all(0 < sample.latency < 60 for sample in result.samples)
        assert all(0 <= sample.schedule_load <= 1 for sample in result.samples)

    def test_band_means(self):
        result = StartupResult()
        from repro.workloads.startup import StartSample

        result.samples = [StartSample(0.2, 2.0), StartSample(0.9, 6.0)]
        assert result.mean_latency_in_band(0.0, 0.5) == pytest.approx(2.0)
        assert result.mean_latency_in_band(0.5, 1.0) == pytest.approx(6.0)
        assert result.mean_latency_in_band(0.99, 1.0) is None


class TestMetrics:
    def test_sample_fields_populated(self):
        system = build_system()
        client = system.add_client()
        for index in range(8):
            client.start_stream(file_id=index % 6)
        metrics = system.metrics()
        system.run_for(8.0)
        metrics.begin_window()
        system.run_for(5.0)
        sample = metrics.sample("t")
        assert sample.active_streams == 8
        assert 0 < sample.cub_cpu_mean < 1
        assert 0 < sample.disk_util_mean < 1
        assert sample.control_traffic_bps > 0
        assert sample.blocks_sent > 0

    def test_probe_disk_cubs_filter(self):
        system = build_system()
        client = system.add_client()
        for index in range(8):
            client.start_stream(file_id=index % 6)
        metrics = system.metrics(probe_disk_cubs=[2])
        system.run_for(8.0)
        metrics.begin_window()
        system.run_for(5.0)
        sample = metrics.sample()
        expected = system.cubs[2].mean_disk_utilization()
        assert sample.disk_util_probe == pytest.approx(expected, rel=0.05)

    def test_failed_probe_cub_reports_zero_traffic(self):
        system = build_system()
        metrics = system.metrics(probe_cub=1)
        system.start()
        system.run_for(3.0)
        system.fail_cub(1)
        metrics.begin_window()
        system.run_for(3.0)
        assert metrics.sample().control_traffic_bps == 0.0


class TestConfig:
    def test_paper_preset(self):
        from repro import paper_config

        config = paper_config()
        assert config.num_disks == 56
        assert config.num_slots == 602
        assert config.block_bytes == 250_000
        assert config.block_service_time == pytest.approx(56.0 / 602)
        assert config.mirror_piece_bytes() == 62_500

    def test_overrides(self):
        from repro import paper_config

        config = paper_config(decluster=2)
        assert config.decluster == 2
        assert config.num_cubs == 14

    def test_validation_rules(self):
        from repro.config import TigerConfig

        with pytest.raises(ValueError):
            TigerConfig(num_cubs=2)
        with pytest.raises(ValueError):
            TigerConfig(min_vstate_lead=9.0, max_vstate_lead=4.0)
        with pytest.raises(ValueError):
            TigerConfig(scheduling_lead=5.0)
        with pytest.raises(ValueError):
            TigerConfig(decluster=14, num_cubs=14)
        with pytest.raises(ValueError):
            TigerConfig(forward_pump_interval=6.0)

    def test_derived_capacity_without_override(self):
        from repro.config import TigerConfig

        config = TigerConfig(streams_per_disk_override=None)
        assert config.streams_per_disk > 0
        assert config.num_slots == int(config.num_disks * config.streams_per_disk)
