"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.core as sim_core
from repro.sim.core import SimulationError, Simulator
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, Event


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

    def test_priority_breaks_ties(self, sim):
        fired = []
        sim.call_at(1.0, fired.append, "normal")
        sim.call_at(1.0, fired.append, "low", priority=PRIORITY_LOW)
        sim.call_at(1.0, fired.append, "high", priority=PRIORITY_HIGH)
        sim.run()
        assert fired == ["high", "normal", "low"]

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

    def test_max_events_limits_dispatch(self, sim):
        fired = []
        for tag in range(10):
            sim.call_after(float(tag + 1), fired.append, tag)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_until_with_max_events_keeps_clock_monotonic(self, sim):
        """Regression: a ``max_events`` exit must not jump the clock to
        ``until`` while earlier events are still pending — the next run
        would otherwise move time backwards."""
        fired = []
        for tag in range(5):
            sim.call_after(float(tag + 1), fired.append, tag)
        sim.run(until=10.0, max_events=2)
        assert fired == [0, 1]
        assert sim.now == pytest.approx(2.0)
        sim.run(until=10.0)
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == pytest.approx(10.0)

    def test_stop_with_until_does_not_advance_clock(self, sim):
        sim.call_after(1.0, sim.stop)
        sim.call_after(5.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == pytest.approx(1.0)

    def test_stop_aborts_run(self, sim):
        fired = []
        sim.call_after(1.0, fired.append, "a")
        sim.call_after(2.0, sim.stop)
        sim.call_after(3.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

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
        live = sim.call_after(1.5, fired.append, "live")
        dead.cancel()
        assert sim.step() is True
        assert fired == ["live"]
        assert sim.now == pytest.approx(1.5)
        assert sim.events_dispatched == 1
        assert sim._cancelled_in_heap == 0 and live.owner is None
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

    def test_start_time_offset(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0
        sim.call_after(1.0, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(101.0)


class TestPendingStop:
    """A stop() requested while no run is active must stop the next run.

    Regression: ``run()`` used to reset the stop flag on entry, silently
    erasing any stop requested between runs (e.g. by a live-backend
    shutdown handler firing while the driver was between drive calls).
    """

    def test_stop_between_runs_halts_next_run(self, sim):
        fired = []
        sim.call_after(1.0, fired.append, "a")
        sim.stop()
        sim.run()
        assert fired == []
        assert sim.now == 0.0
        # The stop was consumed by the aborted run; the one after it
        # proceeds normally.
        sim.run()
        assert fired == ["a"]

    def test_pending_stop_does_not_advance_until(self, sim):
        sim.stop()
        sim.run(until=5.0)
        assert sim.now == 0.0

    def test_each_run_consumes_one_stop(self, sim):
        sim.stop()
        sim.stop()  # stop is a flag, not a queue: two requests, one abort
        sim.run()
        fired = []
        sim.call_after(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]


def _run_cancel_scenario(times, cancels, compact_floor):
    """Drive one schedule/cancel scenario at a given compaction floor.

    ``times`` schedules one recording event per entry (on a 0.1 s grid);
    each ``(when, victim)`` in ``cancels`` schedules a canceller event
    that cancels the victim-th recorded event mid-run — after it fired,
    cancellation is a no-op, same as the real kernel's callers.
    """
    original = sim_core._COMPACT_MIN_TOMBSTONES
    sim_core._COMPACT_MIN_TOMBSTONES = compact_floor
    try:
        sim = Simulator()
        fired = []
        events = [
            sim.call_at(tick / 10.0, fired.append, index)
            for index, tick in enumerate(times)
        ]
        for tick, victim in cancels:
            sim.call_at(tick / 10.0, events[victim % len(events)].cancel)
        sim.run()
        return fired, sim.events_dispatched, sim.now
    finally:
        sim_core._COMPACT_MIN_TOMBSTONES = original


class TestHeapCompaction:
    """Lazy tombstone compaction must be invisible to dispatch."""

    def test_mass_cancellation_shrinks_heap(self, sim):
        keepers = []
        for index in range(10):
            sim.call_after(float(index + 1), keepers.append, index)
        victims = [
            sim.call_after(1000.0 + index, lambda: None) for index in range(500)
        ]
        for event in victims:
            event.cancel()
        # Without compaction all 500 tombstones would sit in the heap
        # until their pop time; with it, repeated rebuilds keep the heap
        # near the live population.
        assert len(sim._heap) < 150
        sim.run()
        assert keepers == list(range(10))
        assert sim.events_dispatched == 10

    def test_compaction_resets_tombstone_count(self, sim):
        victims = [sim.call_after(1.0, lambda: None) for _ in range(200)]
        for event in victims:
            event.cancel()
        assert sim._cancelled_in_heap < len(victims)
        sim.run()
        assert sim._cancelled_in_heap == 0
        assert sim.events_dispatched == 0

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=120),
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 119)), max_size=80
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_compaction_preserves_dispatch_order(self, times, cancels):
        """Property: an aggressively compacting kernel dispatches the
        exact same sequence (order, count, final clock) as one that
        never compacts, for any schedule/cancel interleaving."""
        eager = _run_cancel_scenario(times, cancels, compact_floor=0)
        reference = _run_cancel_scenario(
            times, cancels, compact_floor=10**9
        )
        assert eager == reference


class TestTupleKeyedTimeline:
    """Heap entries are ``(time, priority, seq, event)`` tuples: the
    order is decided by the first three fields, in C, and an ``Event``
    is never compared."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 12),
                st.sampled_from([PRIORITY_HIGH, 0, 3, PRIORITY_LOW]),
            ),
            min_size=1,
            max_size=80,
        ),
        st.sets(st.integers(0, 79)),
        st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_dispatch_order_is_sorted_time_priority_insertion(
        self, schedule, cancelled, split
    ):
        """Property: any mix of ``call_at`` (coarse time grid, so ties
        abound) and cancels dispatches the survivors in
        ``sorted((time, priority, insertion))`` order — up to ``split``
        on the heap as built, past it on a heap a compaction rebuilt."""
        original = sim_core._COMPACT_MIN_TOMBSTONES
        sim_core._COMPACT_MIN_TOMBSTONES = 0
        try:
            sim = Simulator()
            fired = []
            events = [
                sim.call_at(tick / 10.0, fired.append, index, priority=priority)
                for index, (tick, priority) in enumerate(schedule)
            ]
            for victim in cancelled:
                if victim < len(events):
                    events[victim].cancel()
            sim.run(until=split / 10.0)
            # Force a rebuild: tombstones outnumbering what is left.
            entries = len(sim._heap)
            fillers = [
                sim.call_at(99.0, fired.append, "filler")
                for _ in range(entries + 2)
            ]
            for filler in fillers:
                filler.cancel()
            assert len(sim._heap) < entries + len(fillers)
            sim.run()
        finally:
            sim_core._COMPACT_MIN_TOMBSTONES = original
        expected = [
            index
            for _tick, _priority, index in sorted(
                (tick, priority, index)
                for index, (tick, priority) in enumerate(schedule)
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


class TestBudgetVsTombstones:
    """Audit pin-downs: the ``run(until, max_events)`` budget counts
    dispatched events only.  ``run`` peeks past tombstones before every
    step, so a cancelled event can never consume budget or clock — these
    tests freeze that property against future kernel refactors."""

    def test_cancelled_events_do_not_consume_max_events(self, sim):
        fired = []
        victims = [sim.call_after(float(i + 1), lambda: None) for i in range(50)]
        for event in victims:
            event.cancel()
        # Live events scheduled after the 50 tombstones in time order.
        for tag in range(3):
            sim.call_after(100.0 + tag, fired.append, tag)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.events_dispatched == 3

    def test_budget_exhaustion_clock_ignores_earlier_tombstones(self, sim):
        fired = []
        sim.call_after(1.0, fired.append, "a")
        victim = sim.call_after(2.0, lambda: None)
        victim.cancel()
        sim.call_after(3.0, fired.append, "b")
        sim.call_after(4.0, fired.append, "c")
        sim.run(until=10.0, max_events=2)
        # Both live events fit the budget; the tombstone at t=2 neither
        # burned budget nor stalled the clock at its own time, and the
        # budget-exhaustion exit leaves the clock at the last dispatch.
        assert fired == ["a", "b"]
        assert sim.now == pytest.approx(3.0)
        sim.run(until=10.0)
        assert fired == ["a", "b", "c"]
        assert sim.now == pytest.approx(10.0)

    def test_compaction_mid_run_keeps_monotonic_exit_clock(self):
        """A compaction triggered between dispatches must not perturb
        where the clock lands when ``until`` passes with the remaining
        heap all tombstones."""
        original = sim_core._COMPACT_MIN_TOMBSTONES
        sim_core._COMPACT_MIN_TOMBSTONES = 4
        try:
            sim = Simulator()
            victims = [
                sim.call_after(50.0 + i, lambda: None) for i in range(40)
            ]
            sim.call_after(1.0, lambda: [e.cancel() for e in victims])
            sim.run(until=20.0)
            # Everything left in the heap was cancelled; the clock must
            # advance to the horizon, not to any tombstone's time.
            assert sim.now == pytest.approx(20.0)
            assert sim.events_dispatched == 1
            sim.run(until=60.0)
            assert sim.now == pytest.approx(60.0)
            assert sim.events_dispatched == 1
        finally:
            sim_core._COMPACT_MIN_TOMBSTONES = original


class _Recorder:
    """A duck-typed profiler: every ``record`` call, in order."""

    def __init__(self):
        self.calls = []

    def record(self, fn, wall_s, sim_now):
        assert wall_s >= 0.0
        self.calls.append((fn, sim_now))


class TestPost:
    """``Simulator.post`` is the fire-and-forget entry: a plain
    ``(time, priority, seq, fn, arg)`` heap tuple, no ``Event``.  Every
    kernel path must treat it as an event that cannot be cancelled."""

    def test_a_post_is_one_plain_heap_tuple(self, sim):
        fired = []
        assert sim.post(1.0, fired.append, "x") is None
        ((time, priority, seq, fn, arg),) = sim._heap
        assert (time, priority, fn, arg) == (1.0, 0, fired.append, "x")
        assert isinstance(seq, int)
        sim.run()
        assert fired == ["x"] and sim.now == 1.0

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 6),
                st.sampled_from([PRIORITY_HIGH, 0, PRIORITY_LOW]),
            ),
            min_size=1,
            max_size=60,
        ),
        st.sets(st.integers(0, 59)),
    )
    @settings(max_examples=60, deadline=None)
    def test_posts_and_events_interleave_in_time_priority_seq_order(
        self, schedule, cancelled
    ):
        """Property: posts (priority 0) and ``call_at`` events on a
        coarse grid, some events cancelled, fire in exactly
        ``sorted((time, priority, insertion))`` order: both draw
        ``seq`` from one counter."""
        sim = Simulator()
        fired = []
        events = {}
        for index, (posted, tick, priority) in enumerate(schedule):
            if posted:
                sim.post(tick / 10.0, fired.append, index)
            else:
                events[index] = sim.call_at(
                    tick / 10.0, fired.append, index, priority=priority
                )
        for victim in cancelled:
            if victim in events:
                events[victim].cancel()
        sim.run()
        expected = [
            index
            for _tick, _priority, index in sorted(
                (tick, 0 if posted else priority, index)
                for index, (posted, tick, priority) in enumerate(schedule)
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

    def test_posts_count_against_max_events_and_in_events_dispatched(self, sim):
        fired = []
        for tag in range(4):
            sim.post(1.0 + tag, fired.append, tag)
        sim.call_at(2.5, fired.append, "event")
        sim.run(until=10.0, max_events=3)
        assert fired == [0, 1, "event"]
        assert sim.events_dispatched == 3
        assert sim.now == 2.5  # budget exit: posts at 3 and 4 still due
        sim.run(until=10.0)
        assert fired == [0, 1, "event", 2, 3]
        assert sim.events_dispatched == 5
        assert sim.now == 10.0

    def test_stop_from_a_posted_callback_ends_the_run(self, sim):
        fired = []

        def halt(tag):
            fired.append(tag)
            sim.stop()

        sim.post(1.0, halt, "stop")
        sim.post(2.0, fired.append, "after")
        sim.run(until=5.0)
        assert fired == ["stop"] and sim.now == 1.0
        sim.run()
        assert fired == ["stop", "after"]

    def test_peek_time_and_step_see_posts_under_tombstones(self, sim):
        fired = []
        sim.call_at(1.0, fired.append, "gone").cancel()
        sim.post(2.0, fired.append, "post")
        sim.call_at(3.0, fired.append, "event")
        assert sim.peek_time() == 2.0
        assert sim._cancelled_in_heap == 0  # the tombstone was purged
        assert sim.step() and fired == ["post"] and sim.now == 2.0
        assert sim.peek_time() == 3.0
        assert sim.step() and fired == ["post", "event"]
        assert not sim.step() and sim.peek_time() is None
        assert sim.events_dispatched == 2

    def test_compaction_keeps_every_post(self):
        """Tombstones outnumbering everything else, posts among them: a
        rebuild drops the tombstones only."""
        original = sim_core._COMPACT_MIN_TOMBSTONES
        sim_core._COMPACT_MIN_TOMBSTONES = 4
        try:
            sim = Simulator()
            fired = []
            victims = []
            for index in range(60):
                sim.post(index / 10.0, fired.append, index)
                victims.append(sim.call_at(index / 10.0, fired.append, "x"))
                victims.append(sim.call_at(index / 20.0, fired.append, "y"))
            for victim in victims:
                victim.cancel()
            assert len(sim._heap) < 60 + len(victims) // 2
            sim.run()
        finally:
            sim_core._COMPACT_MIN_TOMBSTONES = original
        assert fired == list(range(60))
        assert sim.events_dispatched == 60
        assert sim._cancelled_in_heap == 0

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
