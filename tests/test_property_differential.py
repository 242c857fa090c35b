"""Differential and property-based tests on core data structures."""

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.netschedule import NetworkSchedule
from repro.core.slots import SlotClock
from repro.core.view import ScheduleView
from repro.core.viewerstate import ViewerState

LENGTH = 8.0
CAPACITY = 10e6
WIDTH = 1.0


class TestNetworkScheduleDifferential:
    """The prefix-sum index must agree with the brute-force definition."""

    @staticmethod
    def brute_force_load(schedule: NetworkSchedule, x: float) -> float:
        return sum(
            entry.bitrate_bps
            for entry in schedule.entries()
            if schedule._covers(entry, x)
        )

    @staticmethod
    def peak_by_point_loads(schedule: NetworkSchedule, offset: float) -> float:
        """``load_at`` at the window start and at every entry start in
        the one-width window: the definition the single walk replaces."""
        starts = sorted(entry.offset for entry in schedule.entries())
        offset %= schedule.length
        spans = [(offset, min(offset + WIDTH, schedule.length))]
        if offset + WIDTH > schedule.length:
            spans.append((0.0, offset + WIDTH - schedule.length))
        probes = [offset] + [
            x
            for lo, hi in spans
            for x in starts[bisect_left(starts, lo - 1e-9):bisect_left(starts, hi)]
        ]
        return max(schedule.load_at(x) for x in probes)

    # Offsets/probes on a millisecond grid: the two implementations
    # use slightly different epsilon conventions at sub-nanosecond
    # adjacency (and Python's float modulo misbehaves on subnormals),
    # neither of which a schedule with millisecond-scale slots can hit.
    _grid = st.integers(0, int(LENGTH * 1000) - 1).map(lambda i: i / 1000.0)

    @given(
        st.lists(
            st.tuples(_grid, st.sampled_from([1e6, 2e6, 3e6])),
            max_size=25,
        ),
        _grid,
    )
    @settings(max_examples=80, deadline=None)
    def test_load_at_matches_brute_force(self, entries, probe):
        schedule = NetworkSchedule(LENGTH, CAPACITY, WIDTH)
        for offset, rate in entries:
            if schedule.can_insert(offset, rate):
                schedule.insert("v", offset, rate)
        indexed = schedule.load_at(probe)
        brute = self.brute_force_load(schedule, probe)
        assert indexed == pytest.approx(brute, abs=1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, LENGTH - 1e-6),
                st.sampled_from([1e6, 2e6, 4e6]),
            ),
            max_size=20,
        ),
        st.floats(0.0, LENGTH - 1e-6),
    )
    @settings(max_examples=60, deadline=None)
    def test_peak_load_bounds_point_loads(self, entries, window_start):
        schedule = NetworkSchedule(LENGTH, CAPACITY, WIDTH)
        for offset, rate in entries:
            if schedule.can_insert(offset, rate):
                schedule.insert("v", offset, rate)
        peak = schedule.peak_load_in(window_start, WIDTH)
        assert peak == self.peak_by_point_loads(schedule, window_start)
        for step in range(10):
            x = (window_start + step * WIDTH / 10) % LENGTH
            assert schedule.load_at(x) <= peak + 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, LENGTH - 1e-6),
                st.sampled_from([1e6, 2e6]),
            ),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_remove_restores_headroom(self, entries):
        schedule = NetworkSchedule(LENGTH, CAPACITY, WIDTH)
        inserted = []
        for offset, rate in entries:
            if schedule.can_insert(offset, rate):
                inserted.append(schedule.insert("v", offset, rate))
        for entry in inserted:
            schedule.remove(entry.entry_id)
        for step in range(8):
            assert schedule.load_at(step * LENGTH / 8) == 0.0


class TestSlotClockProperties:
    @given(
        st.integers(2, 40),
        st.integers(1, 4),
        st.integers(2, 12),
        st.floats(0.25, 2.0),
        st.floats(0.0, 200.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_serving_disk_is_consistent_with_pointer(
        self, cubs, disks_per, slots_per_disk, bpt, when
    ):
        num_disks = cubs * disks_per
        clock = SlotClock(num_disks, num_disks * slots_per_disk, bpt)
        for slot in (0, clock.num_slots // 2, clock.num_slots - 1):
            disk = clock.serving_disk(slot, when)
            # That disk's last visit to the slot is within one full
            # block play time of `when`.
            visit = clock.visit_time(disk, slot, after=when - bpt - 1e-6)
            assert visit <= when + 1e-6 or math.isclose(
                visit, when, abs_tol=1e-6
            )

    @given(st.integers(0, 55), st.floats(0.0, 300.0))
    @settings(max_examples=60, deadline=None)
    def test_next_slot_visit_monotone(self, disk, after):
        clock = SlotClock(56, 602, 1.0)
        slot1, t1 = clock.next_slot_visit(disk, after)
        slot2, t2 = clock.next_slot_visit(disk, t1)
        assert t2 > t1
        assert t2 - t1 == pytest.approx(clock.block_service_time, abs=1e-6)


class TestViewProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 3)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_admitting_any_order_keeps_max_due(self, events):
        """Whatever order states arrive in, the slot records the one
        with the latest due time (redundant copies can arrive first)."""
        view = ScheduleView(0, 1.0, hold_time=100.0, is_final=lambda s: False)
        best = {}
        for seqno, slot in events:
            state = ViewerState(
                viewer_id="v",
                instance=slot + 1,  # one play per slot
                slot=slot,
                file_id=0,
                block_index=seqno,
                disk_id=0,
                due_time=float(seqno),
                play_seqno=seqno,
            )
            view.admit(state, now=0.0)
            key = (slot, state.instance)
            best[slot] = max(best.get(slot, -1.0), float(seqno))
        for slot, expected_due in best.items():
            recorded = view.state_for_slot(slot)
            assert recorded is not None
            assert recorded.due_time == pytest.approx(expected_due)

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_duplicates_never_double_admit(self, seqnos):
        view = ScheduleView(0, 1.0, hold_time=1000.0, is_final=lambda s: False)
        admitted = 0
        for seqno in seqnos:
            state = ViewerState("v", 1, 0, 0, seqno, 0, float(seqno), seqno)
            if view.admit(state, now=0.0) == "new":
                admitted += 1
        assert admitted == len(set(seqnos))
