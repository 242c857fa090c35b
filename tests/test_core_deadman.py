"""Tests for the deadman failure detector (§2.3)."""

import pytest

from repro.core.deadman import DeadmanMonitor


@pytest.fixture
def monitor():
    return DeadmanMonitor(cub_id=5, num_cubs=14, timeout=6.0)


class TestDetection:
    def test_watches_two_neighbours_each_side(self, monitor):
        assert set(monitor.watched) == {6, 4, 7, 3}

    def test_fresh_heartbeats_keep_alive(self, monitor):
        monitor.note_heartbeat(4, now=1.0, epoch=0.0)
        assert monitor.check(now=5.0) == ()
        assert not monitor.believes_failed(4)

    def test_silence_declares_failure(self, monitor):
        monitor.note_heartbeat(4, now=1.0, epoch=0.0)
        declared = monitor.check(now=8.0)
        assert 4 in declared

    def test_a_declaration_is_returned_once(self, monitor):
        monitor.note_heartbeat(4, now=1.0, epoch=0.0)
        assert 4 in monitor.check(now=8.0)
        assert 4 not in monitor.check(now=9.0)

    def test_heartbeat_resurrects(self, monitor):
        monitor.note_heartbeat(4, now=1.0, epoch=0.0)
        monitor.check(now=8.0)
        assert monitor.believes_failed(4)
        assert monitor.note_heartbeat(4, now=9.0, epoch=0.0) is True
        assert not monitor.believes_failed(4)
        assert monitor.note_heartbeat(4, now=9.5, epoch=0.0) is None

    def test_non_neighbour_heartbeats_ignored(self, monitor):
        assert 10 not in monitor.watched
        assert monitor.note_heartbeat(10, now=1.0, epoch=0.0) is None
        assert monitor.note_heartbeat(10, now=2.0, epoch=1.5) is None
        assert not monitor.believes_failed(10)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DeadmanMonitor(0, 14, timeout=0.0)
        with pytest.raises(ValueError):
            DeadmanMonitor(0, 14, timeout=1.0, watch_distance=0)


class TestEpochs:
    def test_a_larger_epoch_declares_then_the_next_beat_brings_back(self, monitor):
        """A reboot inside the timeout: declared on the new life's first
        beat, alive on its second — two verdicts, not one."""
        assert monitor.note_heartbeat(4, now=1.0, epoch=0.0) is None
        assert monitor.note_heartbeat(4, now=3.0, epoch=2.5) is False
        assert monitor.believes_failed(4)
        assert monitor.check(now=3.5) == ()  # already declared
        assert monitor.note_heartbeat(4, now=3.25, epoch=2.5) is True
        assert not monitor.believes_failed(4)
        assert monitor.recently_resurrected(4, now=3.5)

    def test_a_smaller_epoch_is_a_late_beat_and_is_ignored(self, monitor):
        monitor.note_heartbeat(4, now=1.0, epoch=0.0)
        monitor.note_heartbeat(4, now=3.0, epoch=2.5)
        monitor.note_heartbeat(4, now=3.25, epoch=2.5)
        assert monitor.note_heartbeat(4, now=7.0, epoch=0.0) is None
        assert monitor._last_heard[4] == 3.25
        assert not monitor.believes_failed(4)
        assert 4 in monitor.check(now=9.5)  # silence since 3.25

    def test_a_new_epoch_from_a_cub_believed_dead_is_back_at_once(self, monitor):
        monitor.note_heartbeat(4, now=1.0, epoch=0.0)
        monitor.check(now=8.0)
        assert monitor.note_heartbeat(4, now=9.0, epoch=8.5) is True
        assert not monitor.believes_failed(4)
        assert monitor.note_heartbeat(4, now=9.25, epoch=8.5) is None

    def test_the_first_beat_heard_sets_the_epoch(self):
        """A rebooted monitor knows no epoch: its neighbours' first beats
        are not reboots, whenever those neighbours booted."""
        monitor = DeadmanMonitor(cub_id=5, num_cubs=14, timeout=6.0, now=40.0)
        assert monitor.note_heartbeat(4, now=40.25, epoch=0.0) is None
        assert monitor.note_heartbeat(6, now=40.25, epoch=33.0) is None
        assert monitor.believed_failed == frozenset()


class TestRouting:
    def test_living_successors_normal(self, monitor):
        assert monitor.living_successors(2) == (6, 7)

    def test_living_successors_skip_dead(self, monitor):
        monitor.note_heartbeat(6, now=0.0, epoch=0.0)
        for alive in (4, 7, 3):
            monitor.note_heartbeat(alive, now=9.0, epoch=0.0)
        monitor.check(now=10.0)  # only 6 has gone silent
        assert monitor.believes_failed(6)
        successors = monitor.living_successors(2)
        assert 6 not in successors
        assert successors == (7, 8)

    def test_next_living_cub(self, monitor):
        assert monitor.next_living_cub(5) == 6

    def test_next_living_cub_skips_believed_failed(self, monitor):
        monitor.check(now=10.0)  # everyone watched is silent -> dead
        assert monitor.next_living_cub(5) == 8  # 6,7 dead; 8 unmonitored

    def test_small_ring(self):
        monitor = DeadmanMonitor(cub_id=0, num_cubs=3, timeout=1.0)
        assert set(monitor.watched) == {1, 2}
        assert monitor.living_successors(2) == (1, 2)


class TestLateConstruction:
    def test_construction_time_seeds_last_heard(self):
        """Regression: a monitor built mid-run (cub restart) must grant
        every neighbour a full timeout before declaring it dead."""
        monitor = DeadmanMonitor(cub_id=5, num_cubs=14, timeout=6.0, now=100.0)
        assert monitor.check(now=105.0) == ()
        declared = monitor.check(now=107.0)
        assert set(declared) == set(monitor.watched)


class TestResurrection:
    def test_recently_resurrected_window(self):
        monitor = DeadmanMonitor(cub_id=5, num_cubs=14, timeout=6.0)
        monitor.note_heartbeat(4, now=1.0, epoch=0.0)
        monitor.check(now=8.0)
        assert monitor.believes_failed(4)
        monitor.note_heartbeat(4, now=9.0, epoch=0.0)
        assert monitor.recently_resurrected(4, now=9.5)
        assert monitor.recently_resurrected(4, now=14.9)
        assert not monitor.recently_resurrected(4, now=15.1)

    def test_never_resurrected_cub(self):
        monitor = DeadmanMonitor(cub_id=5, num_cubs=14, timeout=6.0)
        monitor.note_heartbeat(4, now=1.0, epoch=0.0)
        assert not monitor.recently_resurrected(4, now=2.0)


class TestRingExhaustion:
    def test_next_living_cub_wraps_to_self(self):
        """Regression: an isolated cub that believes the whole rest of
        the ring dead is still alive itself — routing falls back to self
        instead of raising."""
        monitor = DeadmanMonitor(cub_id=1, num_cubs=4, timeout=6.0)
        monitor.check(now=10.0)  # silence everywhere -> all watched dead
        assert set(monitor.believed_failed) == {0, 2, 3}
        assert monitor.next_living_cub(1) == 1
        assert monitor.living_successors(2) == ()

    def test_wrap_prefers_living_cubs_over_self(self):
        monitor = DeadmanMonitor(cub_id=1, num_cubs=4, timeout=6.0)
        monitor.note_heartbeat(0, now=9.0, epoch=0.0)
        monitor.check(now=10.0)  # cubs 2 and 3 silent -> dead; 0 alive
        assert set(monitor.believed_failed) == {2, 3}
        assert monitor.next_living_cub(1) == 0
