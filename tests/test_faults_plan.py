"""Tests for the declarative fault-plan layer (repro.faults.plan)."""

import pytest

from repro.faults.plan import (
    CUB_CRASH,
    CUB_RESTART,
    DISK_FAIL,
    DISK_RECOVER,
    NET_DROP,
    NET_ISOLATE,
    NET_PARTITION,
    FaultPlan,
    FaultSpec,
    parse_target,
)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("net.teleport", start=1.0, duration=1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(NET_DROP, start=-1.0, duration=1.0)

    def test_window_kind_needs_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(NET_DROP, start=1.0, duration=0.0)

    def test_point_kind_allows_zero_duration(self):
        spec = FaultSpec(CUB_CRASH, start=5.0, target="cub:1")
        assert spec.end == pytest.approx(5.0)

    def test_end_and_params(self):
        spec = FaultSpec(
            NET_DROP, start=2.0, duration=3.0,
            params=(("message_kind", "data"), ("rate", 0.5)),
        )
        assert spec.end == pytest.approx(5.0)
        assert spec.get("rate") == 0.5
        assert spec.get("absent", "fallback") == "fallback"

    def test_describe_mentions_kind_and_window(self):
        windowed = FaultSpec(NET_DROP, start=2.0, duration=3.0)
        assert "net.drop" in windowed.describe()
        assert "[2s, 5s)" in windowed.describe()
        point = FaultSpec(CUB_CRASH, start=7.0, target="cub:2")
        assert "@7s" in point.describe()
        assert "cub:2" in point.describe()


class TestBuilders:
    def test_builders_chain(self):
        plan = (
            FaultPlan()
            .drop_messages(0.01, start=1.0, duration=5.0)
            .slow_disk(0, factor=2.0, start=2.0, duration=2.0)
            .crash_cub(1, at=3.0)
        )
        assert isinstance(plan, FaultPlan)
        assert len(plan.events) == 3

    def test_rate_validation(self):
        plan = FaultPlan()
        with pytest.raises(ValueError):
            plan.drop_messages(1.5, start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            plan.duplicate_messages(-0.1, start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            plan.reorder_messages(0.5, shift=0.0, start=0.0, duration=1.0)
        with pytest.raises(ValueError):
            plan.slow_disk(0, factor=0.0, start=0.0, duration=1.0)

    def test_crash_with_restart_folds_in_recovery(self):
        plan = FaultPlan().crash_cub(2, at=10.0, restart_after=5.0)
        kinds = [event.kind for event in plan.events]
        assert kinds == [CUB_CRASH, CUB_RESTART]
        assert plan.events[1].start == pytest.approx(15.0)
        assert plan.events[1].target == "cub:2"

    def test_fail_disk_with_recovery(self):
        plan = FaultPlan().fail_disk(3, at=4.0, recover_after=2.0)
        kinds = [event.kind for event in plan.events]
        assert kinds == [DISK_FAIL, DISK_RECOVER]
        assert plan.events[1].start == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "verb, args, keyword",
        [
            ("fail_disk", (3,), "recover_after"),
            ("crash_cub", (1,), "restart_after"),
            ("crash_helper", (0,), "restart_after"),
            ("kill_controller", (), "recover_after"),
        ],
    )
    @pytest.mark.parametrize("after", [0.0, -1.0])
    def test_a_recovery_must_follow_its_fault(self, verb, args, keyword, after):
        """A recovery at or before its fault would be replayed first and
        leave the fault in force for good: every verb refuses one, and
        leaves the plan as it was."""
        plan = FaultPlan()
        with pytest.raises(ValueError, match=f"{keyword} must be positive"):
            getattr(plan, verb)(*args, at=5.0, **{keyword: after})
        assert plan.events == []

    def test_partition_and_isolate_targets(self):
        plan = (
            FaultPlan()
            .partition_link("cub:0", "cub:1", start=1.0, duration=2.0)
            .isolate_node("cub:2", start=3.0, duration=4.0)
        )
        assert plan.events[0].kind == NET_PARTITION
        assert plan.events[0].target == "link:cub:0->cub:1"
        assert plan.events[1].kind == NET_ISOLATE
        assert plan.events[1].target == "node:cub:2"


class TestQueries:
    def test_end_time(self):
        plan = (
            FaultPlan()
            .drop_messages(0.1, start=1.0, duration=5.0)
            .crash_cub(0, at=20.0)
        )
        assert plan.end_time() == pytest.approx(20.0)
        assert FaultPlan().end_time() == 0.0

    def test_event_partitions(self):
        """The installer walks ``events`` once, in plan order: a kind's
        family is the prefix before its dot."""
        plan = (
            FaultPlan()
            .drop_messages(0.1, start=0.0, duration=1.0)
            .isolate_node("cub:1", start=0.0, duration=1.0)
            .slow_disk(0, factor=2.0, start=0.0, duration=1.0)
            .crash_cub(1, at=1.0)
            .kill_controller(at=2.0, recover_after=1.0)
        )
        assert [event.kind.split(".")[0] for event in plan.events] == [
            "net", "net", "disk", "cub", "controller", "controller",
        ]

    def test_describe_sorted_by_start(self):
        plan = FaultPlan().crash_cub(0, at=9.0).drop_messages(
            0.1, start=1.0, duration=2.0
        )
        lines = plan.describe().splitlines()
        assert lines[0].startswith("net.drop")
        assert lines[1].startswith("cub.crash")
        assert FaultPlan().describe() == "(no faults)"


class TestParseTarget:
    def test_numeric_targets(self):
        assert parse_target("disk:3", "disk") == 3
        assert parse_target("cub:12", "cub") == 12

    def test_link_target(self):
        assert parse_target("link:a->b", "link") == ("a", "b")

    def test_node_target(self):
        assert parse_target("node:cub:2", "node") == "cub:2"

    def test_malformed_targets_rejected(self):
        with pytest.raises(ValueError):
            parse_target(None, "disk")
        with pytest.raises(ValueError):
            parse_target("disk", "disk")
        with pytest.raises(ValueError):
            parse_target("disk:3", "cub")
        with pytest.raises(ValueError):
            parse_target("link:a", "link")
