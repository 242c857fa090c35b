"""Tests for RNG streams, tracing, and the Process base class."""

import pytest

from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer, format_trace


class TestRngRegistry:
    def test_same_name_same_stream(self, rngs):
        assert rngs.stream("a") is rngs.stream("a")

    def test_different_names_different_streams(self, rngs):
        assert rngs.stream("a") is not rngs.stream("b")

    def test_deterministic_across_registries(self):
        first = RngRegistry(seed=5).stream("disk.0")
        second = RngRegistry(seed=5).stream("disk.0")
        assert [first.random() for _ in range(10)] == [
            second.random() for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        first = RngRegistry(seed=1).stream("x")
        second = RngRegistry(seed=2).stream("x")
        assert first.random() != second.random()

    def test_streams_are_independent(self):
        """Drawing from one stream must not perturb another."""
        reference = RngRegistry(seed=9)
        expected = [reference.stream("b").random() for _ in range(5)]

        registry = RngRegistry(seed=9)
        registry.stream("a").random()  # interleaved draw on another stream
        actual = [registry.stream("b").random() for _ in range(5)]
        assert actual == expected

    def test_fork_changes_streams(self):
        base = RngRegistry(seed=3)
        fork = base.fork("salt")
        assert base.stream("x").random() != fork.stream("x").random()


class TestTracer:
    def test_disabled_by_default(self):
        tracer = Tracer()
        tracer.emit(1.0, "cat", "msg")
        assert len(tracer.records) == 0

    def test_enabled_records(self):
        tracer = Tracer()
        tracer.enable()
        tracer.emit(1.0, "cat", "msg", key="value")
        assert len(tracer.records) == 1
        assert tracer.records[0].fields["key"] == "value"

    def test_category_filter(self):
        tracer = Tracer()
        tracer.enable("keep")
        tracer.emit(1.0, "keep", "a")
        tracer.emit(1.0, "drop", "b")
        assert [record.category for record in tracer.records] == ["keep"]

    def test_select_and_matching(self):
        tracer = Tracer()
        tracer.enable()
        tracer.emit(1.0, "insert", "x", slot=3)
        tracer.emit(2.0, "insert", "y", slot=4)
        tracer.emit(3.0, "other", "z")
        assert len(tracer.select("insert")) == 2
        assert len(tracer.matching("insert", slot=4)) == 1

    def test_capacity_bound(self):
        tracer = Tracer(capacity=10)
        tracer.enable()
        for index in range(100):
            tracer.emit(float(index), "cat", "m")
        assert len(tracer.records) == 10

    def test_format_trace(self):
        tracer = Tracer()
        tracer.enable()
        tracer.emit(1.5, "cat", "hello", a=1)
        text = format_trace(tracer.records)
        assert "hello" in text and "a=1" in text


class TestProcess:
    def test_after_schedules(self, sim):
        proc = Process(sim, "p")
        fired = []
        proc.after(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]

    def test_every_repeats(self, sim):
        proc = Process(sim, "p")
        fired = []
        proc.every(1.0, lambda: fired.append(sim.now))
        sim.run(until=5.5)
        assert len(fired) == 5

    def test_every_rejects_nonpositive_period(self, sim):
        with pytest.raises(ValueError):
            Process(sim, "p").every(0.0, lambda: None)

    def test_cancel_timers_stops_periodic(self, sim):
        proc = Process(sim, "p")
        fired = []
        proc.every(1.0, lambda: fired.append(1))
        sim.call_at(2.5, proc.cancel_timers)
        sim.run(until=10.0)
        assert len(fired) == 2

    def test_callback_cancelling_timers_is_not_rearmed(self, sim):
        """Regression: the tick used to re-arm after ``fn()`` whatever
        ``fn`` did, so a timer that cancelled itself on its 2nd tick
        (``NetworkNode.fail`` from a timer callback) kept firing."""
        proc = Process(sim, "p")
        fired = []

        def callback():
            fired.append(sim.now)
            if len(fired) == 2:
                proc.cancel_timers()

        proc.every(1.0, callback)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_same_instant_same_period_timers_share_one_event(self, sim):
        proc = Process(sim, "p")
        fired = []
        for name in "abc":

            def record(name=name):
                fired.append((name, sim.now))

            assert proc.every(0.5, record) is None  # no handle to keep
        assert len(sim._heap) == 1
        sim.run(until=2.0)
        # One kernel event per period, members in registration order,
        # at the times three separate timers would have fired.
        assert sim.events_dispatched == 4
        assert fired == [
            (name, when) for when in (0.5, 1.0, 1.5, 2.0) for name in "abc"
        ]

    def test_other_period_or_later_registration_gets_its_own_event(self, sim):
        proc = Process(sim, "p")
        fired = []
        proc.every(0.5, lambda: fired.append("a"))
        proc.every(0.4, lambda: fired.append("pump"))
        proc.every(0.5, lambda: fired.append("b"))
        other = Process(sim, "q")
        other.every(0.5, lambda: fired.append("q"))
        assert len(sim._heap) == 3  # a+b, pump, and the other process
        sim.run(until=0.25)
        proc.every(0.5, lambda: fired.append("late"))
        assert len(sim._heap) == 4
        sim.run(until=1.0)
        assert fired == [
            "pump", "a", "b", "q", "late", "pump", "a", "b", "q",
        ]
        # pump x2, a+b x2, q x2, late x1
        assert sim.events_dispatched == 7

    def test_member_cancelling_timers_stops_the_rest_of_its_group(self, sim):
        proc = Process(sim, "p")
        fired = []

        def second():
            fired.append("second")
            if len(fired) == 5:
                proc.cancel_timers()

        proc.every(1.0, lambda: fired.append("first"))
        proc.every(1.0, second)
        proc.every(1.0, lambda: fired.append("third"))
        sim.run(until=10.0)
        assert fired == ["first", "second", "third", "first", "second"]
        assert not sim._heap

    def test_timer_registered_after_a_cancel_does_not_join_the_dead_group(self, sim):
        proc = Process(sim, "p")
        fired = []
        proc.every(1.0, lambda: fired.append("old"))
        proc.cancel_timers()
        proc.every(1.0, lambda: fired.append("new"))
        sim.run(until=2.0)
        assert fired == ["new", "new"]

    def test_trace_through_process(self, sim):
        tracer = Tracer()
        tracer.enable()
        proc = Process(sim, "proc-x", tracer)
        proc.trace("cat", "did a thing", n=2)
        assert tracer.records[0].message.startswith("proc-x:")
