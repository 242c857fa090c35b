"""Tests for the bench harness and the service path's golden counters."""

import copy

import pytest

from repro import TigerSystem, small_config
from repro.bench.harness import (
    BENCH_FORMAT,
    PROTOCOL_COUNTERS,
    BenchError,
    diff_results,
    load_result,
    protocol_counters,
    result_filename,
    run_workload,
    summary_lines,
    write_result,
)
from repro.workloads.generator import ContinuousWorkload


@pytest.fixture(scope="module")
def kernel_result():
    """One quick kernel run shared by the shape/gate tests below."""
    return run_workload("kernel", seed=0, quick=True, with_memory=False)


class TestRunWorkload:
    def test_result_shape(self, kernel_result):
        result = kernel_result
        assert result["bench_format"] == BENCH_FORMAT
        assert result["name"] == "kernel"
        assert result["mode"] == "quick"
        assert result["seed"] == 0
        assert set(result["counters"]) == set(PROTOCOL_COUNTERS)
        perf = result["perf"]
        assert perf["events"] > 0
        assert perf["events_per_sec"] > 0
        assert perf["sim_seconds"] == pytest.approx(30.0)
        assert perf["sim_per_wall"] > 0

    def test_idle_kernel_serves_no_blocks(self, kernel_result):
        # Zero viewers: the protocol counters must all stay at zero.
        assert all(value == 0 for value in kernel_result["counters"].values())

    def test_unknown_workload_rejected(self):
        with pytest.raises(BenchError):
            run_workload("nope")

    def test_summary_lines_render(self, kernel_result):
        lines = summary_lines(kernel_result)
        assert lines and "kernel" in lines[0]


class TestLiveTier:
    @pytest.fixture(scope="class")
    def live_result(self):
        """Quick mode: the codec microbench only, no real cluster."""
        return run_workload("live", seed=0, quick=True)

    def test_result_shape(self, live_result):
        assert live_result["name"] == "live"
        assert live_result["mode"] == "quick"
        counters = live_result["counters"]
        assert set(counters) == {
            "live.codec_messages",
            "live.codec_bytes_json",
            "live.codec_bytes_binary",
        }
        # The gated counters are pure functions of the seed.
        again = run_workload("live", seed=0, quick=True)
        assert again["counters"] == counters
        assert live_result["perf"]["events_per_sec"] > 0

    def test_binary_codec_beats_json(self, live_result):
        json_row, binary_row = live_result["codecs"]
        assert json_row["codec"] == "json"
        assert binary_row["codec"] == "binary"
        assert json_row["frames"] == binary_row["frames"]
        assert binary_row["bytes"] < json_row["bytes"]
        assert binary_row["speedup_vs_json"] > 1.0

    def test_quick_mode_skips_the_real_cluster(self, live_result):
        assert "cluster" not in live_result

    def test_summary_lines_render(self, live_result):
        lines = summary_lines(live_result)
        text = "\n".join(lines)
        assert "live" in lines[0]
        assert "binary" in text


class TestPersistence:
    def test_write_load_roundtrip(self, kernel_result, tmp_path):
        path = write_result(kernel_result, str(tmp_path))
        assert path.endswith(result_filename("kernel"))
        assert load_result(path) == kernel_result

    def test_wrong_format_rejected(self, kernel_result, tmp_path):
        stale = copy.deepcopy(kernel_result)
        stale["bench_format"] = BENCH_FORMAT + 1
        stale["name"] = "kernel"
        path = write_result(stale, str(tmp_path))
        with pytest.raises(BenchError):
            load_result(path)


class TestBaselineGate:
    def test_identical_results_pass(self, kernel_result):
        assert diff_results(kernel_result, kernel_result) == []

    def test_counter_drift_fails_exactly(self, kernel_result):
        baseline = copy.deepcopy(kernel_result)
        baseline["counters"]["cub.blocks_sent"] += 1
        problems = diff_results(kernel_result, baseline)
        assert any("cub.blocks_sent" in problem for problem in problems)

    def test_perf_regression_beyond_tolerance_fails(self, kernel_result):
        baseline = copy.deepcopy(kernel_result)
        baseline["perf"]["events_per_sec"] = (
            kernel_result["perf"]["events_per_sec"] * 2.0
        )
        problems = diff_results(kernel_result, baseline, perf_tolerance=0.10)
        assert any("regressed" in problem for problem in problems)

    def test_perf_check_disabled_by_zero_tolerance(self, kernel_result):
        baseline = copy.deepcopy(kernel_result)
        baseline["perf"]["events_per_sec"] = (
            kernel_result["perf"]["events_per_sec"] * 2.0
        )
        assert diff_results(kernel_result, baseline, perf_tolerance=0.0) == []

    def test_mismatched_mode_not_comparable(self, kernel_result):
        baseline = copy.deepcopy(kernel_result)
        baseline["mode"] = "full"
        problems = diff_results(kernel_result, baseline)
        assert problems
        assert any("not comparable" in problem for problem in problems)


def _loaded_run():
    """A small loaded system driven for 20 sim-seconds."""
    system = TigerSystem(small_config(), seed=5)
    system.add_standard_content(num_files=4, duration_s=60.0)
    workload = ContinuousWorkload(system)
    workload.add_streams(max(1, system.config.num_slots // 2))
    system.run_for(20.0)
    system.finalize_clients()
    system.export_metrics()
    return system


class TestServicePathGoldenCounters:
    """The deadline-bucket service path was an event-count optimization
    over the seed's one-timer-per-viewer path, checked by running both.
    The legacy path is gone; what it produced on this scenario (taken
    on the last commit that had it, where both paths agreed) is pinned
    here instead, so a service-path change that moves a protocol
    counter still fails."""

    LEGACY_COUNTERS = {
        "cub.viewer_states_forwarded": 430,
        "cub.deschedules_forwarded": 0,
        "cub.inserts_performed": 16,
        "cub.admission_rejects": 0,
        "cub.mirror_covers": 0,
        "cub.blocks_sent": 302,
        "cub.deadman_resurrections": 0,
    }
    #: Kernel events the one-timer-per-viewer path dispatched.
    LEGACY_EVENTS = 2771

    def test_counters_identical_to_legacy_path(self):
        system = _loaded_run()
        assert protocol_counters(system.registry) == self.LEGACY_COUNTERS
        # Batching exists to shrink the kernel event count, never to
        # grow it.
        assert system.sim.events_dispatched <= self.LEGACY_EVENTS


class TestSweepPointIndependence:
    """Regression (sweep seeding): each sweep point must be a pure
    function of (cubs, seed) — independent of whatever ran earlier in
    the process.  TigerSystem rewinds the process-global message-id and
    play-instance-id sequences at construction, so a point measured
    alone matches the same point inside a full sweep, bit for bit."""

    def test_single_point_matches_point_inside_sweep(self):
        from repro.bench.harness import (
            _scale_build,
            _timed_system_run,
        )

        # The same point measured standalone...
        alone = _timed_system_run(_scale_build(8, 0, 10.0), profiler=None)
        # ...and inside the full quick sweep (after the cubs=4 point has
        # polluted any process-global state it was going to).
        sweep = run_workload("scale", seed=0, quick=True, with_memory=False)
        row = next(r for r in sweep["sweep"] if r["cubs"] == 8)
        assert row["counters"] == alone.counters
        assert row["perf"]["events"] == alone.events
        assert row["perf"]["sim_seconds"] == pytest.approx(
            alone.sim_seconds
        )

    def test_instance_ids_rewind_per_system(self):
        from repro.core.viewerstate import new_instance_id

        TigerSystem(small_config(), seed=0)
        first = new_instance_id()
        TigerSystem(small_config(), seed=0)
        second = new_instance_id()
        assert first == second == 1
