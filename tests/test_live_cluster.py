"""Cluster driver: scenario algebra, snapshot merging, and one real run.

The integration test at the bottom boots an actual 3-cub localhost
cluster (5 OS processes plus the driver) for a few wall-clock seconds,
kills a cub mid-run, and asserts the merged metrics show mirror
takeover and zero invariant violations — the same contract the CI
live-smoke job enforces through the CLI.
"""

import asyncio
from types import SimpleNamespace

import pytest

from repro.config import small_config
from repro.faults.injectors import UnsupportedFaultError, install_plan
from repro.faults.plan import FaultPlan
from repro.live.cluster import (
    SEND_HIGH_WATERMARK,
    SEND_QUEUE_HARD_CAP,
    ClusterReport,
    ClusterScenario,
    LiveCluster,
    NodeConnection,
    compare_counters,
    relative_drift,
    run_cluster,
    run_scenario_in_sim,
)
from repro.live.node import config_from_dict, config_to_dict
from repro.obs.registry import MetricsRegistry, merge_snapshots, snapshot_total


# ----------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------
def test_scenario_validation():
    with pytest.raises(ValueError, match="at least 3 cubs"):
        ClusterScenario(cubs=2)
    with pytest.raises(ValueError, match="too short"):
        ClusterScenario(duration=0.5)
    with pytest.raises(ValueError, match="out of range"):
        ClusterScenario(cubs=4, kill_cub=4)
    with pytest.raises(ValueError, match="codec"):
        ClusterScenario(codec="gzip")
    with pytest.raises(ValueError, match="arrival"):
        ClusterScenario(arrivals="sawtooth")


@pytest.mark.parametrize(
    "fields, message",
    [
        # stream_plan() used to divide by zero after the cluster booted.
        (dict(num_files=0), "at least one file"),
        (dict(streams=-3), "streams"),
        (dict(file_duration_s=0.0), "file duration"),
        # A kill beyond the run never fired, and the run reported PASS
        # having exercised nothing.
        (dict(kill_cub=1, kill_at=99.0), "kill time"),
        (dict(kill_cub=1, kill_at=20.0), "kill time"),  # == duration
        # LiveRuntime clamped this to "now"; the replay's simulator
        # raised on a time in the past.
        (dict(kill_cub=1, kill_at=-1.0), "kill time"),
        (dict(helpers=1, kill_helper=0, kill_at=0.0), "kill time"),
        # A kill time with no victim killed nothing, and the run
        # reported PASS.
        (dict(kill_at=5.0), "no kill target"),
    ],
)
def test_scenario_rejects_what_could_not_run(fields, message):
    with pytest.raises(ValueError, match=message):
        ClusterScenario(cubs=4, duration=20.0, **fields)


def test_scenario_kill_at_times_the_victims_kill():
    assert ClusterScenario(kill_cub=1, kill_at=19.5).kill_time() == 19.5
    assert ClusterScenario(
        helpers=1, kill_helper=0, kill_at=19.5
    ).helper_kill_time() == 19.5


def test_scenario_namespaces_are_disjoint():
    scenario = ClusterScenario(cubs=4)
    spaces = [
        scenario.namespace_of(address)
        for address in scenario.node_addresses()
    ] + [scenario.driver_namespace]
    assert len(spaces) == len(set(spaces))
    assert 0 not in spaces  # namespace 0 flags a forgotten reset


def test_scenario_plans_are_deterministic():
    scenario = ClusterScenario(cubs=4, streams=3)
    assert scenario.stream_plan() == scenario.stream_plan()
    assert scenario.stream_plan()[1] == (1, 1, 1.25)
    assert scenario.stop_plan() == [(0, 12.0)]
    assert scenario.kill_time() is None
    assert ClusterScenario(cubs=4, kill_cub=1).kill_time() == 8.0


def test_churn_plan_is_deterministic_and_leaves_client_zero_alone():
    scenario = ClusterScenario(cubs=4, streams=8, churn=6, seed=5)
    plan = scenario.churn_plan()
    assert plan == ClusterScenario(cubs=4, streams=8, churn=6, seed=5).churn_plan()
    assert plan  # six churn events over seven eligible clients
    assert plan == sorted(plan, key=lambda event: (event[0], event[2]))
    window_start = scenario.first_start + 2.0
    window_end = max(window_start + 1.0, scenario.duration * 0.85)
    for at, op, client_index in plan:
        assert op in ("pause", "resume", "stop")
        assert client_index != 0  # stop_plan owns client 0
        assert 0 < client_index < scenario.streams
        assert window_start <= at <= window_end
    # Every pause has a matching resume for the same client.
    paused = [c for _, op, c in plan if op == "pause"]
    resumed = [c for _, op, c in plan if op == "resume"]
    assert sorted(paused) == sorted(resumed)
    # No churn requested -> empty plan (the legacy scenarios are
    # byte-identical to before the field existed).
    assert ClusterScenario(cubs=4, streams=8).churn_plan() == []
    with pytest.raises(ValueError, match="churn"):
        ClusterScenario(cubs=4, churn=-1)


def test_config_round_trips_through_node_spec():
    config = small_config(deadman_timeout=3.0)
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt.num_cubs == config.num_cubs
    assert rebuilt.deadman_timeout == 3.0
    assert rebuilt.num_slots == config.num_slots
    assert rebuilt.block_service_time == config.block_service_time
    with pytest.raises(ValueError, match="unknown config fields"):
        config_from_dict({"num_cubs": 4, "warp_drive": True})


# ----------------------------------------------------------------------
# Fault plumbing
# ----------------------------------------------------------------------
def test_live_injector_rejects_unsupported_fault_kinds():
    # Refused before the host's runtime is touched.
    cluster = SimpleNamespace(fault_kinds=LiveCluster.fault_kinds)
    plan = FaultPlan().drop_messages(rate=0.1, start=0.0, duration=5.0)
    with pytest.raises(UnsupportedFaultError, match="net.drop"):
        install_plan(plan, cluster)
    restart = FaultPlan().crash_cub(1, at=2.0, restart_after=3.0)
    with pytest.raises(UnsupportedFaultError, match="cub.restart would need"):
        install_plan(restart, cluster)


def test_kill_cub_plan_is_one_supported_crash():
    plan = ClusterScenario(kill_cub=2, kill_at=4.5).fault_plan()
    (spec,) = plan.events
    assert spec.kind == "cub.crash"
    assert spec.target == "cub:2"
    assert spec.start == 4.5


# ----------------------------------------------------------------------
# Snapshot algebra
# ----------------------------------------------------------------------
def _family(kind, *rows):
    return {
        "kind": kind,
        "help": "",
        "unit": "",
        "series": [{"labels": labels, "value": value} for labels, value in rows],
    }


def test_merge_snapshots_sums_counters_and_keeps_last_gauge():
    node_a = {
        "cub.blocks_sent": _family("counter", ({"cub": "cub:0"}, 10)),
        "live.clock_skew": _family("gauge", ({"node": "cub:0"}, 0.5)),
    }
    node_b = {
        "cub.blocks_sent": _family(
            "counter", ({"cub": "cub:0"}, 5), ({"cub": "cub:1"}, 7)
        ),
        "live.clock_skew": _family("gauge", ({"node": "cub:0"}, 0.1)),
    }
    merged = merge_snapshots([node_a, node_b])
    assert snapshot_total(merged, "cub.blocks_sent") == 22
    assert snapshot_total(merged, "cub.blocks_sent", cub="cub:1") == 7
    (skew,) = [
        row["value"] for row in merged["live.clock_skew"]["series"]
    ]
    assert skew == 0.1  # gauges: last snapshot wins


def test_merge_counts_series_missing_from_some_snapshots():
    # A node that never registered a family (or died before exporting
    # it) must read as zero, not poison the sum — and the merge reports
    # how many (family, series) contributions were absent.
    node_a = {
        "cub.blocks_sent": _family("counter", ({"cub": "cub:0"}, 10)),
        "cub.mirror_covers": _family("counter", ({"cub": "cub:0"}, 2)),
    }
    node_b = {
        "cub.blocks_sent": _family("counter", ({"cub": "cub:1"}, 5)),
    }
    merged = merge_snapshots([node_a, node_b])
    assert snapshot_total(merged, "cub.blocks_sent") == 15
    assert snapshot_total(merged, "cub.mirror_covers") == 2
    # Both snapshots export blocks_sent but each lacks the other's
    # series key: 2 holes.  mirror_covers counts none — node_b never
    # exports the family, and absent families are not holes.
    assert snapshot_total(merged, "merge.missing_series") == 2


def test_merge_missing_series_is_zero_for_identical_shapes():
    shape = {
        "cub.blocks_sent": _family("counter", ({"cub": "cub:0"}, 1)),
    }
    merged = merge_snapshots([shape, shape])
    assert snapshot_total(merged, "merge.missing_series") == 0


def test_snapshot_total_filters_by_labels_and_skips_non_numeric():
    snap = {
        "x": _family(
            "counter",
            ({"node": "a"}, 3),
            ({"node": "b"}, 4),
            ({"node": "c"}, {"histogram": "summary"}),
        )
    }
    assert snapshot_total(snap, "x") == 7
    assert snapshot_total(snap, "x", node="a") == 3
    assert snapshot_total(snap, "missing") == 0.0


# ----------------------------------------------------------------------
# Arrival plans and the connection send queue
# ----------------------------------------------------------------------
def test_stream_plan_random_modes_are_deterministic_and_sorted():
    scenario = ClusterScenario(
        cubs=4, streams=12, duration=20.0, arrivals="zipf", seed=3
    )
    plan = scenario.stream_plan()
    assert plan == scenario.stream_plan()
    assert plan != ClusterScenario(
        cubs=4, streams=12, duration=20.0, arrivals="zipf", seed=4
    ).stream_plan()
    times = [at for _, _, at in plan]
    assert times == sorted(times)
    assert [index for index, _, _ in plan] == list(range(12))
    # Starts stay inside [first_start, 75% of the run) so streams have
    # the tail of the run to actually play.
    assert all(1.0 <= at < 15.0 for at in times)


def test_stream_plan_stagger_unchanged_by_new_fields():
    legacy = ClusterScenario(cubs=4, streams=3)
    assert legacy.stream_plan() == [
        (0, 0, 1.0), (1, 1, 1.25), (2, 2, 1.5)
    ]


def test_node_connection_backpressure_and_hard_cap():
    class SlowWriter:
        """Never completes a drain, so frames pool in the queue."""

        def __init__(self):
            self.closed = False

        def write(self, _frame):
            pass

        async def drain(self):
            await asyncio.Event().wait()  # park forever

        def is_closing(self):
            return self.closed

        def close(self):
            self.closed = True

    class Counter:
        def __init__(self):
            self.value = 0

        def increment(self, amount=1):
            self.value += amount

    async def scenario():
        backpressure, dropped = Counter(), Counter()
        connection = NodeConnection(
            "cub:0", SlowWriter(), backpressure, dropped
        )
        frame = b"x" * 1024
        # Fill to just under the high watermark: no backpressure yet.
        for _ in range(SEND_HIGH_WATERMARK // len(frame) - 1):
            assert connection.send(frame)
        await asyncio.sleep(0)  # let the drainer park on drain()
        assert backpressure.value == 0 and not connection.paused
        # Crossing the watermark pauses once, not per frame.
        assert connection.send(frame)
        assert connection.send(frame)
        assert backpressure.value == 1 and connection.paused
        # Overflow the hard cap: frames drop and are counted.
        huge = b"y" * (SEND_QUEUE_HARD_CAP)
        assert not connection.send(huge)
        assert dropped.value == 1
        # A closed connection refuses everything quietly.
        connection.close()
        assert not connection.send(frame)
        assert dropped.value == 1
        await asyncio.sleep(0)

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# The DES replay and the comparison contract
# ----------------------------------------------------------------------
def test_sim_replay_produces_protocol_traffic():
    scenario = ClusterScenario(cubs=4, streams=3, duration=12.0)
    snapshot = run_scenario_in_sim(scenario)
    assert snapshot_total(snapshot, "controller.starts_routed") == 3
    assert snapshot_total(snapshot, "cub.inserts_performed") == 3
    assert snapshot_total(snapshot, "cub.blocks_sent") > 0
    assert snapshot_total(snapshot, "cub.viewer_states_forwarded") > 0


def test_sim_replay_with_kill_exercises_the_mirror_path():
    scenario = ClusterScenario(
        cubs=4, streams=4, duration=16.0, kill_cub=1
    )
    snapshot = run_scenario_in_sim(scenario)
    assert snapshot_total(snapshot, "cub.mirror_pieces_sent") > 0


def test_restripe_scenario_validation():
    with pytest.raises(ValueError, match="one entry per disk"):
        ClusterScenario(cubs=4, restripe_weights=(1, 2))
    with pytest.raises(ValueError, match=">= 1"):
        ClusterScenario(cubs=4, restripe_weights=(0,) * 8)
    with pytest.raises(ValueError, match="throttle"):
        ClusterScenario(cubs=4, restripe_throttle=0.0)
    with pytest.raises(ValueError, match="start"):
        ClusterScenario(
            cubs=4, duration=10.0, restripe_weights=(1,) * 8,
            restripe_start=10.0,
        )


def test_sim_replay_with_restripe_commits_moves():
    scenario = ClusterScenario(
        cubs=4, streams=3, duration=16.0,
        restripe_weights=(1, 1, 1, 1, 2, 2, 2, 2),
        restripe_throttle=0.5, restripe_start=2.0,
    )
    snapshot = run_scenario_in_sim(scenario)
    planned = snapshot_total(snapshot, "restripe.moves_planned")
    committed = snapshot_total(snapshot, "restripe.moves_committed")
    assert planned > 0
    assert 0 < committed <= planned
    # Same scenario, same plan: the replay is deterministic.
    assert committed == snapshot_total(
        run_scenario_in_sim(scenario), "restripe.moves_committed"
    )


def test_compare_counters_flags_only_out_of_band_values():
    scenario = ClusterScenario(cubs=4, streams=3, duration=12.0)
    snapshot = run_scenario_in_sim(scenario)
    rows = compare_counters(snapshot, snapshot)  # identical: all pass
    assert rows and all(ok for *_, ok in rows)

    drifted = {
        "cub.blocks_sent": _family(
            "counter",
            ({}, snapshot_total(snapshot, "cub.blocks_sent") * 10 + 1000),
        )
    }
    rows = compare_counters(snapshot, drifted)
    by_name = {row[0]: row for row in rows}
    assert not by_name["cub.blocks_sent"][4]


def test_relative_drift_is_zero_safe():
    assert relative_drift(0.0, 0.0) == 0.0
    assert relative_drift(0.0, 7.0) == 1.0
    assert relative_drift(7.0, 0.0) == 1.0
    assert relative_drift(100.0, 80.0) == pytest.approx(0.2)


def test_compare_counters_tolerates_zero_valued_baselines():
    """Regression: a no-kill scenario leaves mirror/deschedule counters
    at zero on the sim side — comparing (and rendering) those rows must
    not divide by zero, and zeros within the absolute floor pass."""
    live = {
        "cub.mirror_pieces_sent": _family("counter", ({}, 10)),
    }
    rows = compare_counters({}, live)  # every sim baseline is zero
    by_name = {row[0]: row for row in rows}
    # 10 live pieces against a zero baseline sit inside the floor of 40.
    assert by_name["cub.mirror_pieces_sent"][4]
    # Counters zero on both sides agree exactly.
    assert by_name["cub.blocks_sent"][1] == 0.0
    assert by_name["cub.blocks_sent"][4]


def test_report_render_shows_zero_safe_drift():
    scenario = ClusterScenario(cubs=4, streams=3, duration=12.0)
    report = ClusterReport(
        scenario=scenario,
        merged={},
        node_metrics={},
        byes={},
        unexpected_exits=[],
        wire_errors=[],
        kills=[],
        wall_seconds=1.0,
        workdir="/tmp/nowhere",
        comparison=[
            ("cub.blocks_sent", 0.0, 0.0, 30.0, True),
            ("cub.mirror_pieces_sent", 0.0, 10.0, 40.0, True),
        ],
        compared=True,
    )
    text = report.render()
    assert "drift=0%" in text
    assert "drift=100%" in text


def _report_with_slack(scenario, **slack):
    registry = MetricsRegistry()
    for address, value in slack.items():
        registry.gauge("live.epoch_slack", node=address).set(value)
    return ClusterReport(
        scenario=scenario, merged=registry.snapshot(), node_metrics={},
        byes={}, unexpected_exits=[], wire_errors=[], kills=[],
        wall_seconds=1.0, workdir="",
    )


def _readiness(report):
    (row,) = [
        row for row in report.checks()
        if row[0] == "nodes ready before the epoch"
    ]
    return row[1:]


def test_readiness_passes_when_every_node_was_ready_before_the_epoch():
    scenario = ClusterScenario(cubs=3, backup=False)
    slack = {"cub:0": 0.21, "cub:1": 0.19, "cub:2": 0.2, "controller": 0.22}
    assert sorted(slack) == sorted(scenario.node_addresses())
    ok, detail = _readiness(_report_with_slack(scenario, **slack))
    assert ok
    window = ClusterScenario().start_delta
    assert detail == f"min slack 190.0 ms of {window * 1e3:g} ms"


@pytest.mark.parametrize("late", [-0.004, 0.0], ids=["negative", "zero"])
def test_readiness_fails_a_node_that_was_not_ready_by_the_epoch(late):
    scenario = ClusterScenario(cubs=3, backup=False)
    report = _report_with_slack(
        scenario, **{"cub:0": 0.2, "cub:1": late, "cub:2": 0.2,
                     "controller": 0.2}
    )
    ok, detail = _readiness(report)
    assert not ok
    assert detail == f"cub:1 {late * 1e3:.1f} ms"
    assert not report.passed


def test_readiness_fails_a_node_that_never_reported():
    scenario = ClusterScenario(cubs=3, backup=False)
    report = _report_with_slack(
        scenario, **{"cub:0": 0.2, "cub:2": 0.2, "controller": 0.2}
    )
    ok, detail = _readiness(report)
    assert not ok
    assert detail == "cub:1 never reported"
    assert not report.passed


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--files", "0"], "at least one file"),
        (["--streams", "-3"], "streams"),
        (["--file-seconds", "0"], "file duration"),
        (["--kill-cub", "1", "--kill-at", "99"], "kill time"),
        (["--kill-cub", "1", "--kill-at", "-1"], "kill time"),
        (["--kill-at", "5"], "no kill target"),
    ],
)
def test_cluster_cli_rejects_a_scenario_that_could_not_run(
    argv, message, capsys
):
    from repro.cli import main

    assert main(["cluster", "--cubs", "3"] + argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert "Traceback" not in captured.out + captured.err


def test_cluster_cli_exit_codes_without_tracebacks(monkeypatch, capsys):
    """Documented exit codes: 2 for a rejected scenario, 3 when the
    driver dies — one stderr line each, never a traceback."""
    from repro.cli import main

    code = main(["cluster", "--cubs", "2"])
    assert code == 2
    assert "at least 3 cubs" in capsys.readouterr().err

    import repro.live.cluster as cluster_mod

    def boom(*_args, **_kwargs):
        raise RuntimeError("node cub:1 refused to boot")

    monkeypatch.setattr(cluster_mod, "run_cluster", boom)
    code = main(["cluster", "--cubs", "3", "--duration", "8"])
    assert code == 3
    assert "cluster driver failed" in capsys.readouterr().err


# ----------------------------------------------------------------------
# One real cluster, end to end
# ----------------------------------------------------------------------
def test_live_cluster_survives_a_cub_kill():
    scenario = ClusterScenario(
        cubs=3,
        streams=3,
        duration=10.0,
        kill_cub=1,
        kill_at=4.0,
        num_files=4,
        file_duration_s=60.0,
    )
    report = run_cluster(scenario)
    assert report.kills == [(pytest.approx(4.0, abs=0.5), "cub:1")]
    assert snapshot_total(report.merged, "invariant.violations") == 0
    assert snapshot_total(report.merged, "cub.mirror_pieces_sent") > 0
    assert snapshot_total(report.merged, "live.client_blocks_received") > 0
    assert not report.unexpected_exits
    assert not report.wire_errors
    (ready,) = [
        row for row in report.checks()
        if row[0] == "nodes ready before the epoch"
    ]
    assert ready[1], ready[2]
    assert report.passed, report.render()
