"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.core import SimulationError, Simulator
from repro.sim.events import Event


class TestScheduling:
    def test_call_after_fires_in_order(self, sim):
        fired = []
        sim.call_after(2.0, fired.append, "late")
        sim.call_after(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "late"]

    def test_call_at_absolute_time(self, sim):
        fired = []
        sim.call_at(5.0, fired.append, sim)
        sim.run()
        assert sim.now == 5.0
        assert fired

    def test_clock_advances_to_event_time(self, sim):
        sim.call_after(3.5, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(3.5)

    def test_same_time_fifo_order(self, sim):
        fired = []
        for tag in range(5):
            sim.call_at(1.0, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_scheduling_in_past_raises(self, sim):
        sim.call_after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.5, lambda: None)

    def test_scheduling_at_nan_raises(self, sim):
        """A NaN time compares False against everything: it must be
        refused at the door, not let into the heap to scramble the
        order of its neighbours."""
        fired = []
        sim.call_at(3.0, fired.append, 3.0)
        with pytest.raises(SimulationError):
            sim.call_at(float("nan"), fired.append, "nan")
        sim.call_at(1.0, fired.append, 1.0)
        sim.call_at(2.0, fired.append, 2.0)
        with pytest.raises(SimulationError):
            sim.call_after(float("nan"), fired.append, "nan")
        sim.call_at(0.5, fired.append, 0.5)
        sim.run(until=10.0)
        assert fired == [0.5, 1.0, 2.0, 3.0]
        assert sim.now == 10.0

    def test_scheduling_at_now_is_allowed(self, sim):
        fired = []
        sim.call_after(1.0, lambda: sim.call_at(sim.now, fired.append, "x"))
        sim.run()
        assert fired == ["x"]

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.call_after(-0.1, lambda: None)

    def test_nan_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.call_after(float("nan"), lambda: None)
        assert not sim._heap

    def test_none_callback_raises(self):
        with pytest.raises(ValueError):
            Event(0.0, None)

    def test_events_chain(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.call_after(1.0, second)

        def second():
            fired.append("second")

        sim.call_after(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == pytest.approx(2.0)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.call_after(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.call_after(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert not event.active

    def test_cancel_from_earlier_event(self, sim):
        fired = []
        victim = sim.call_after(2.0, fired.append, "victim")
        sim.call_after(1.0, victim.cancel)
        sim.run()
        assert fired == []

    def test_cancelled_events_do_not_advance_clock(self, sim):
        event = sim.call_after(10.0, lambda: None)
        sim.call_after(1.0, lambda: None)
        event.cancel()
        sim.run()
        assert sim.now == pytest.approx(1.0)


class TestRunControl:
    def test_run_until_stops_before_future_events(self, sim):
        fired = []
        sim.call_after(1.0, fired.append, "a")
        sim.call_after(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == pytest.approx(2.0)

    def test_run_until_then_continue(self, sim):
        fired = []
        sim.call_after(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["b"]

    def test_run_until_advances_clock_with_no_events(self, sim):
        sim.run(until=7.0)
        assert sim.now == pytest.approx(7.0)

    def test_run_is_not_reentrant(self, sim):
        def nested():
            sim.run()

        sim.call_after(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_dispatches_the_next_active_event(self, sim):
        fired = []
        dead = sim.call_after(1.0, fired.append, "dead")
        sim.call_after(1.5, fired.append, "live")
        dead.cancel()
        assert sim.step() is True
        assert fired == ["live"]
        assert sim.now == pytest.approx(1.5)
        assert sim.events_dispatched == 1
        assert not sim._heap  # the tombstone was popped on the way
        assert sim.step() is False

    def test_peek_time_skips_cancelled(self, sim):
        event = sim.call_after(1.0, lambda: None)
        sim.call_after(2.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == pytest.approx(2.0)

    def test_events_dispatched_counter(self, sim):
        for _ in range(4):
            sim.call_after(1.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 4

    def test_the_clock_never_runs_backwards_across_runs(self, sim):
        """A bounded run ends at ``until``; a later run to an earlier
        horizon dispatches nothing and leaves the clock where it is."""
        fired = []
        sim.call_after(12.0, fired.append, "late")
        sim.run(until=10.0)
        assert sim.now == 10.0
        sim.run(until=5.0)
        assert sim.now == 10.0 and fired == []
        sim.run(until=20.0)
        assert fired == ["late"] and sim.now == 20.0

    def test_a_raising_callback_ends_the_run_at_its_own_time(self, sim):
        """An exception is the only early exit: the clock stays at the
        callback that raised, the rest stays queued, and the next run
        carries on from there."""
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.call_after(1.0, fired.append, "a")
        sim.call_after(2.0, boom)
        sim.call_after(3.0, fired.append, "b")
        with pytest.raises(RuntimeError):
            sim.run(until=10.0)
        assert fired == ["a"] and sim.now == 2.0
        assert sim.events_dispatched == 2
        sim.run(until=10.0)
        assert fired == ["a", "b"] and sim.now == 10.0


class TestTombstones:
    """A cancelled event waits in the heap until its own time comes up,
    and is then dropped without moving the clock or the count."""

    def test_tombstones_neither_move_the_clock_nor_count(self, sim):
        fired = []
        victims = [sim.call_after(float(i + 1), lambda: None) for i in range(50)]
        for tag in range(3):
            sim.call_after(100.0 + tag, fired.append, tag)
        for event in victims:
            event.cancel()
        assert len(sim._heap) == 53  # cancelling removes nothing
        sim.run(until=100.5)
        assert fired == [0] and sim.now == 100.5
        assert sim.events_dispatched == 1
        sim.run()
        assert fired == [0, 1, 2] and sim.now == 102.0
        assert sim.events_dispatched == 3 and not sim._heap

    def test_a_run_bounded_among_tombstones_ends_at_until(self, sim):
        """Everything left before and past ``until`` was cancelled: the
        clock lands on the horizon, never on a tombstone's time."""
        victims = [sim.call_after(10.0 + i, lambda: None) for i in range(40)]
        sim.call_after(1.0, lambda: [event.cancel() for event in victims])
        sim.run(until=20.0)
        assert sim.now == 20.0
        assert sim.events_dispatched == 1
        sim.run(until=60.0)
        assert sim.now == 60.0
        assert sim.events_dispatched == 1 and not sim._heap


class TestTupleKeyedTimeline:
    """Heap entries are ``(time, seq, event)`` and ``(time, seq, fn,
    arg)`` tuples: the order is decided by the first two fields, in C,
    and an ``Event`` is never compared."""

    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=80),
        st.sets(st.integers(0, 79)),
        st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_dispatch_order_is_sorted_time_priority_insertion(
        self, schedule, cancelled, split
    ):
        """Property: any mix of ``call_at`` (coarse time grid, so ties
        abound) and cancels dispatches the survivors in
        ``sorted((time, insertion))`` order — the same whether the run
        stops at ``split`` and resumes or not.  Events carry no priority
        field, so a tie at one time falls to insertion order alone."""
        sim = Simulator()
        fired = []
        events = [
            sim.call_at(tick / 10.0, fired.append, index)
            for index, tick in enumerate(schedule)
        ]
        for victim in cancelled:
            if victim < len(events):
                events[victim].cancel()
        sim.run(until=split / 10.0)
        assert sim.now == split / 10.0
        sim.run()
        expected = [
            index
            for _tick, index in sorted(
                (tick, index) for index, tick in enumerate(schedule)
            )
            if index not in cancelled
        ]
        assert fired == expected
        assert sim.events_dispatched == len(expected)

    def test_loaded_system_never_compares_events_in_python(
        self, monkeypatch, loaded_system
    ):
        """Guard: a loaded system runs with every ``Event`` rich
        comparison rigged to raise, so the heap cannot go back to
        ordering events through a Python-level ``__lt__``."""

        def compared(self, other):
            raise AssertionError("the heap compared two Event objects")

        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Event, name, compared, raising=False)
        before = loaded_system.sim.events_dispatched
        loaded_system.run_for(5.0)
        assert loaded_system.sim.events_dispatched > before + 200


class _Recorder:
    """A duck-typed profiler: every ``record`` call, in order."""

    def __init__(self):
        self.calls = []

    def record(self, fn, wall_s, sim_now):
        assert wall_s >= 0.0
        self.calls.append((fn, sim_now))


class TestPost:
    """``Simulator.post`` is the fire-and-forget entry: a plain
    ``(time, seq, fn, arg)`` heap tuple, no ``Event``.  Every kernel
    path must treat it as an event that cannot be cancelled."""

    def test_a_post_is_one_plain_heap_tuple(self, sim):
        fired = []
        assert sim.post(1.0, fired.append, "x") is None
        ((time, seq, fn, arg),) = sim._heap
        assert (time, fn, arg) == (1.0, fired.append, "x")
        assert isinstance(seq, int)
        event = sim.call_at(1.0, fired.append, "y")
        assert sim._heap[1] == (1.0, event.seq, event) and event.seq > seq
        sim.run()
        assert fired == ["x", "y"] and sim.now == 1.0

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 6)),
            min_size=1,
            max_size=60,
        ),
        st.sets(st.integers(0, 59)),
    )
    @settings(max_examples=60, deadline=None)
    def test_posts_and_events_interleave_in_time_priority_seq_order(
        self, schedule, cancelled
    ):
        """Property: posts and ``call_at`` events on a coarse grid, some
        events cancelled, fire in exactly ``sorted((time, insertion))``
        order: both draw ``seq`` from one counter, and neither carries a
        priority to reorder a tie."""
        sim = Simulator()
        fired = []
        events = {}
        for index, (posted, tick) in enumerate(schedule):
            if posted:
                sim.post(tick / 10.0, fired.append, index)
            else:
                events[index] = sim.call_at(tick / 10.0, fired.append, index)
        for victim in cancelled:
            if victim in events:
                events[victim].cancel()
        sim.run()
        expected = [
            index
            for _tick, index in sorted(
                (tick, index) for index, (_posted, tick) in enumerate(schedule)
            )
            if index not in cancelled or index not in events
        ]
        assert fired == expected
        assert sim.events_dispatched == len(expected)

    def test_a_post_into_the_past_or_at_nan_is_refused(self, sim):
        fired = []
        sim.post(2.0, fired.append, "a")
        sim.run()
        with pytest.raises(SimulationError):
            sim.post(1.5, fired.append, "past")
        with pytest.raises(SimulationError):
            sim.post(float("nan"), fired.append, "nan")
        assert not sim._heap
        sim.post(sim.now, fired.append, "now")  # the current instant is fine
        sim.run()
        assert fired == ["a", "now"] and sim.now == 2.0

    def test_peek_time_and_step_see_posts_under_tombstones(self, sim):
        fired = []
        sim.call_at(1.0, fired.append, "gone").cancel()
        sim.post(2.0, fired.append, "post")
        sim.call_at(3.0, fired.append, "event")
        assert sim.peek_time() == 2.0
        assert len(sim._heap) == 2  # the tombstone was popped
        assert sim.step() and fired == ["post"] and sim.now == 2.0
        assert sim.peek_time() == 3.0
        assert sim.step() and fired == ["post", "event"]
        assert not sim.step() and sim.peek_time() is None
        assert sim.events_dispatched == 2

    def test_an_attached_profiler_records_every_posted_callback(self, sim):
        recorder = _Recorder()
        sim.set_profiler(recorder)
        fired = []
        sim.post(1.0, fired.append, "a")
        sim.call_at(1.5, fired.append, "b")
        sim.post(2.0, fired.append, "c")
        sim.run(until=1.8)
        sim.step()
        assert fired == ["a", "b", "c"]
        assert recorder.calls == [
            (fired.append, 1.0), (fired.append, 1.5), (fired.append, 2.0),
        ]
