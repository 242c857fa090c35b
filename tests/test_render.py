"""Tests for the schedule renderers."""

import pytest

from repro import TigerSystem, small_config
from repro.analysis.render import (
    render_disk_schedule,
    render_network_schedule,
    render_view_summary,
)
from repro.core.netschedule import NetworkSchedule
from repro.core.slots import SlotClock


class TestDiskScheduleRender:
    def test_renders_occupancy_and_pointers(self):
        clock = SlotClock(8, 32, 1.0)
        text = render_disk_schedule(clock, {0: "A", 1: "A", 30: "B"}, now=2.5)
        assert "32 slots" in text
        assert "disk 0" in text
        assert "[" in text and "]" in text

    def test_free_schedule_is_dots(self):
        clock = SlotClock(4, 16, 1.0)
        text = render_disk_schedule(clock, {}, now=0.0)
        bar = text.splitlines()[1]
        assert set(bar.strip("[]")) == {"."}

    def test_pointer_rows_capped(self):
        clock = SlotClock(56, 602, 1.0)
        text = render_disk_schedule(clock, {}, now=0.0, max_pointer_rows=3)
        assert "more disks" in text

    def test_too_narrow_rejected(self):
        clock = SlotClock(4, 16, 1.0)
        with pytest.raises(ValueError):
            render_disk_schedule(clock, {}, now=0.0, width=4)


class TestNetworkScheduleRender:
    def test_bars_scale_with_load(self):
        schedule = NetworkSchedule(8.0, 10e6, 1.0)
        schedule.insert("a", 0.0, 10e6)  # full height at the start
        text = render_network_schedule(schedule, width=16, height=5)
        first_row = text.splitlines()[0]
        assert "#" in first_row  # reaches the capacity line

    def test_empty_schedule_is_blank(self):
        schedule = NetworkSchedule(8.0, 10e6, 1.0)
        text = render_network_schedule(schedule, width=16, height=4)
        assert "#" not in text
        assert "0% of plane" in text

    def test_too_small_rejected(self):
        schedule = NetworkSchedule(8.0, 10e6, 1.0)
        with pytest.raises(ValueError):
            render_network_schedule(schedule, width=4)


class TestViewSummaryRender:
    def test_summarizes_every_cub(self):
        system = TigerSystem(small_config(), seed=81)
        system.add_standard_content(num_files=2, duration_s=60)
        client = system.add_client()
        client.start_stream(file_id=0)
        system.run_for(5.0)
        text = render_view_summary(system)
        for cub in system.cubs:
            assert f"cub {cub.cub_id}" in text

    def test_marks_failed_cubs(self):
        system = TigerSystem(small_config(), seed=82)
        system.add_standard_content(num_files=2, duration_s=60)
        system.start()
        system.fail_cub(2)
        system.run_for(10.0)
        text = render_view_summary(system)
        assert "FAILED" in text
        assert "believes failed: [2]" in text
