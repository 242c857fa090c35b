"""Tests for slot-schedule arithmetic (paper §3.1)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.config import paper_config, small_config
from repro.core.slots import SlotClock


@pytest.fixture
def clock():
    """The paper's system: 56 disks, 602 slots, 1 s block play time."""
    return SlotClock(num_disks=56, num_slots=602, block_play_time=1.0)


class TestGeometry:
    def test_schedule_duration_is_bpt_times_disks(self, clock):
        """"the entire schedule is the block play time times the number
        of disks in the system." """
        assert clock.duration == pytest.approx(56.0)

    def test_block_service_time_from_rounding(self, clock):
        """602 slots in 56 s: the lengthened service time of §3.1."""
        assert clock.block_service_time == pytest.approx(56.0 / 602)

    def test_integral_slot_count(self, clock):
        assert clock.num_slots * clock.block_service_time == pytest.approx(
            clock.duration
        )

    def test_paper_config_capacity(self):
        config = paper_config()
        assert config.num_slots == 602
        assert config.schedule_duration == pytest.approx(56.0)

    def test_capacity_rounds_down(self):
        """"the actual hardware capacity of the system as a whole is
        rounded down to the nearest stream." """
        config = small_config(streams_per_disk_override=3.9)
        assert config.num_slots == int(math.floor(8 * 3.9))

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SlotClock(0, 10, 1.0)
        with pytest.raises(ValueError):
            SlotClock(10, 0, 1.0)
        with pytest.raises(ValueError):
            SlotClock(10, 10, 0.0)
        with pytest.raises(ValueError):
            SlotClock(10, 10, float("nan"))

    def test_derived_geometry_is_stored_not_compared(self, clock):
        """``duration`` and ``block_service_time`` are fields computed
        once, left out of construction, equality and ``repr``."""
        assert (clock.duration, clock.block_service_time) == (56.0, 56.0 / 602)
        assert clock == SlotClock(56, 602, 1.0)
        assert hash(clock) == hash(SlotClock(56, 602, 1.0))
        assert repr(clock) == (
            "SlotClock(num_disks=56, num_slots=602, block_play_time=1.0)"
        )
        with pytest.raises(TypeError):
            SlotClock(56, 602, 1.0, 56.0)


class TestPointerMotion:
    def test_disk0_pointer_equals_time_mod_duration(self, clock):
        assert clock.pointer_offset(0, 10.0) == pytest.approx(10.0)
        assert clock.pointer_offset(0, 60.0) == pytest.approx(4.0)

    def test_successor_trails_by_one_block_play_time(self, clock):
        """"The pointer for each disk is one block play time behind the
        pointer for its predecessor." """
        t = 25.3
        lead = clock.pointer_offset(3, t)
        trail = clock.pointer_offset(4, t)
        assert (lead - trail) % clock.duration == pytest.approx(1.0)

    def test_last_to_first_distance_also_one_bpt(self, clock):
        """The wraparound property the schedule length guarantees."""
        t = 100.0
        last = clock.pointer_offset(55, t)
        first = clock.pointer_offset(0, t)
        assert (last - first) % clock.duration == pytest.approx(
            clock.duration - 55.0
        )
        # i.e. disk 0 is one bpt *ahead* of disk 55's position + 56.
        assert (first - last) % clock.duration == pytest.approx(55.0)

    def test_slot_under_pointer(self, clock):
        bst = clock.block_service_time
        assert clock.slot_under_pointer(0, 0.0) == 0
        assert clock.slot_under_pointer(0, bst * 5 + bst / 2) == 5

    def test_out_of_range_disk_rejected(self, clock):
        with pytest.raises(ValueError):
            clock.pointer_offset(56, 0.0)


class TestVisits:
    def test_visit_time_basic(self, clock):
        bst = clock.block_service_time
        assert clock.visit_time(0, 5, after=0.0) == pytest.approx(5 * bst)

    def test_visit_time_respects_after(self, clock):
        first = clock.visit_time(0, 5, after=0.0)
        later = clock.visit_time(0, 5, after=first + 0.001)
        assert later == pytest.approx(first + clock.duration)

    def test_consecutive_disks_visit_one_bpt_apart(self, clock):
        """The lockstep property: a viewer's consecutive blocks come
        from consecutive disks exactly one block play time apart."""
        slot = 17
        t0 = clock.visit_time(10, slot, after=0.0)
        t1 = clock.visit_time(11, slot, after=t0)
        assert t1 - t0 == pytest.approx(1.0)

    def test_slot_visited_every_block_play_time(self, clock):
        """Pointers are one bpt apart, so some disk starts a slot's
        service every block play time."""
        slot = 100
        visits = sorted(
            clock.visit_time(disk, slot, after=0.0) for disk in range(56)
        )
        gaps = [b - a for a, b in zip(visits, visits[1:])]
        assert all(gap == pytest.approx(1.0) for gap in gaps)

    def test_next_slot_visit_strictly_future(self, clock):
        slot, when = clock.next_slot_visit(7, after=12.34)
        assert when > 12.34
        assert 0 <= slot < clock.num_slots

    def test_next_slot_visit_matches_visit_time(self, clock):
        slot, when = clock.next_slot_visit(3, after=5.0)
        assert clock.visit_time(3, slot, after=5.0) == pytest.approx(when)

    def test_serving_disk_inverts_visit_time(self, clock):
        for disk in (0, 13, 55):
            for slot in (0, 301, 601):
                visit = clock.visit_time(disk, slot, after=123.0)
                assert clock.serving_disk(slot, visit + 1e-6) == disk

    def test_visits_per_block_play_time(self, clock):
        """One disk crosses streams-per-disk slots per block play time."""
        assert clock.visits_per_block_play_time() == pytest.approx(602 / 56)

    @given(
        st.integers(0, 55),
        st.integers(0, 601),
        st.floats(0.0, 500.0),
    )
    def test_visit_time_at_or_after(self, disk, slot, after):
        clock = SlotClock(56, 602, 1.0)
        visit = clock.visit_time(disk, slot, after)
        assert visit >= after - 1e-6
        # And it really is that disk's visit to that slot:
        offset = clock.pointer_offset(disk, visit)
        assert offset == pytest.approx(slot * clock.block_service_time, abs=1e-6)

    @given(st.integers(2, 30), st.integers(1, 4), st.floats(0.1, 3.0))
    def test_geometry_consistency_random_systems(self, cubs, disks_per, bpt):
        num_disks = cubs * disks_per
        num_slots = num_disks * 5
        clock = SlotClock(num_disks, num_slots, bpt)
        assert clock.num_slots * clock.block_service_time == pytest.approx(
            clock.duration
        )
