"""Tests for the zoned disk model and simulated drives."""

from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.drive import SimDisk
from repro.disk.model import (
    DiskParameters,
    unfailed_utilization_at_capacity,
    worst_case_streams_per_disk,
)
from repro.disk.zones import ULTRASTAR_LIKE, ZONE_INNER, ZONE_OUTER, ZoneGeometry
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry


class TestZoneGeometry:
    def test_outer_faster_than_inner(self):
        assert ULTRASTAR_LIKE.outer_rate > ULTRASTAR_LIKE.inner_rate

    def test_inner_faster_rejected(self):
        with pytest.raises(ValueError):
            ZoneGeometry(outer_rate=1e6, inner_rate=2e6)

    def test_transfer_time(self):
        geom = ZoneGeometry(outer_rate=1e6, inner_rate=0.5e6)
        assert geom.transfer_time(ZONE_OUTER, 1_000_000) == pytest.approx(1.0)
        assert geom.transfer_time(ZONE_INNER, 1_000_000) == pytest.approx(2.0)

    def test_unknown_zone_rejected(self):
        with pytest.raises(ValueError):
            ULTRASTAR_LIKE.rate("middle")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ULTRASTAR_LIKE.transfer_time(ZONE_OUTER, -1)


class TestDiskParameters:
    def test_expected_read_time_components(self):
        params = DiskParameters()
        expected = (
            params.mean_seek
            + params.rotational_latency
            + 250_000 / params.geometry.outer_rate
        )
        assert params.expected_read_time(ZONE_OUTER, 250_000) == pytest.approx(expected)

    def test_worst_case_exceeds_expected(self):
        params = DiskParameters()
        assert params.worst_case_read_time(ZONE_OUTER, 250_000) > params.expected_read_time(
            ZONE_OUTER, 250_000
        )

    def test_inner_zone_slower(self):
        params = DiskParameters()
        assert params.expected_read_time(ZONE_INNER, 250_000) > params.expected_read_time(
            ZONE_OUTER, 250_000
        )

    def test_bad_outlier_probability_rejected(self):
        with pytest.raises(ValueError):
            DiskParameters(outlier_probability=1.5)

    def test_bad_seek_config_rejected(self):
        with pytest.raises(ValueError):
            DiskParameters(min_seek=0.02, mean_seek=0.01)

    def test_sample_mean_close_to_expected(self, rngs):
        params = DiskParameters()
        rng = rngs.stream("sample")
        samples = [
            params.sample_read_time(rng, ZONE_OUTER, 250_000) for _ in range(3000)
        ]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(
            params.expected_read_time(ZONE_OUTER, 250_000), rel=0.02
        )

    def test_outliers_appear_at_configured_rate(self, rngs):
        params = DiskParameters(outlier_probability=0.2)
        rng = rngs.stream("outliers")
        baseline = params.worst_case_read_time(ZONE_OUTER, 250_000)
        samples = [
            params.sample_read_time(rng, ZONE_OUTER, 250_000) for _ in range(2000)
        ]
        outliers = sum(1 for sample in samples if sample > baseline + 0.1)
        assert 0.1 < outliers / len(samples) < 0.3

    @given(st.integers(10_000, 2_000_000))
    def test_sample_bounded_below_by_transfer(self, size):
        params = DiskParameters()
        rng = RngRegistry(0).stream("bound")
        sample = params.sample_read_time(rng, ZONE_OUTER, size)
        assert sample >= params.geometry.transfer_time(ZONE_OUTER, size)


class TestCapacityModel:
    """The §2.3/§5 capacity arithmetic."""

    def test_paper_streams_per_disk(self):
        """0.25 MB blocks, decluster 4 → about 10.75-11 streams/disk."""
        streams = worst_case_streams_per_disk(DiskParameters(), 250_000, 4)
        assert 10.4 < streams < 11.6

    def test_larger_decluster_more_streams(self):
        """Bigger decluster factor reserves less failed-mode bandwidth."""
        params = DiskParameters()
        assert worst_case_streams_per_disk(
            params, 250_000, 4
        ) > worst_case_streams_per_disk(params, 250_000, 2)

    def test_decluster_below_one_rejected(self):
        with pytest.raises(ValueError):
            worst_case_streams_per_disk(DiskParameters(), 250_000, 0)

    def test_unfailed_utilization_below_one(self):
        """Rated capacity reserves headroom for mirror reads."""
        util = unfailed_utilization_at_capacity(DiskParameters(), 250_000, 4)
        assert 0.5 < util < 0.85


class TestSimDisk:
    @pytest.fixture
    def disk(self, sim, rngs):
        return SimDisk(sim, "d0", DiskParameters(), rngs)

    def test_read_completes(self, sim, disk):
        read = disk.read(250_000, ZONE_OUTER)
        assert read.done_at > 0.04  # at least the transfer time
        sim.run(until=read.done_at + 1e-9)
        assert disk.finished(read) and not read.errored

    def test_fifo_service(self, sim, disk):
        first = disk.read(250_000, ZONE_OUTER)
        second = disk.read(250_000, ZONE_OUTER)
        assert first.done_at < second.done_at
        sim.run(until=first.done_at + 1e-9)
        assert disk.finished(first) and not disk.finished(second)

    def test_utilization_tracks_busy(self, sim, disk):
        reads = [disk.read(250_000, ZONE_OUTER) for _ in range(10)]
        sim.run(until=reads[-1].done_at)
        assert disk.utilization() == pytest.approx(1.0, abs=0.01)

    def test_counters(self, sim, disk):
        read = disk.read(100_000, ZONE_OUTER)
        sim.run(until=read.done_at)
        assert disk.reads_completed.count == 1
        assert disk.bytes_read.count == 100_000

    def test_failed_disk_errors_immediately(self, sim, disk):
        disk.fail()
        read = disk.read(100_000, ZONE_OUTER)
        assert read.errored and read.done_at == sim.now
        sim.run(until=1.0)
        assert not disk.finished(read)
        assert (disk.reads_completed.count, disk.reads_errored.count) == (0, 1)

    def test_failure_mid_flight_errors(self, sim, disk):
        read = disk.read(250_000, ZONE_OUTER)
        sim.run(until=0.001)
        disk.fail()
        sim.run(until=read.done_at + 1e-9)
        assert not disk.finished(read) and read.errored
        assert (disk.reads_completed.count, disk.reads_errored.count) == (0, 1)

    def test_recovery_allows_reads(self, sim, disk):
        disk.fail()
        disk.recover()
        read = disk.read(100_000, ZONE_OUTER)
        sim.run(until=read.done_at + 1e-9)
        assert disk.finished(read)

    def test_queue_backlog(self, sim, disk):
        disk.read(250_000, ZONE_OUTER)
        assert disk.queue_backlog > 0.0

    def test_nonpositive_read_rejected(self, sim, disk):
        with pytest.raises(ValueError):
            disk.read(0, ZONE_OUTER)

    def test_nan_read_rejected(self, sim, disk):
        with pytest.raises(ValueError):
            disk.read(float("nan"), ZONE_OUTER)
        assert disk.queue_backlog == 0.0

    def test_inner_reads_slower_on_average(self, sim, rngs):
        disk = SimDisk(sim, "dz", DiskParameters(), rngs)
        times = {ZONE_OUTER: [], ZONE_INNER: []}
        for _ in range(50):
            for zone in (ZONE_OUTER, ZONE_INNER):
                start = sim.now
                read = disk.read(250_000, zone)
                sim.run(until=read.done_at)
                times[zone].append(read.done_at - start)
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(times[ZONE_INNER]) > mean(times[ZONE_OUTER])

    def test_a_read_without_callbacks_costs_no_event(self, sim, disk):
        read = disk.read(250_000, ZONE_OUTER)
        assert sim.peek_time() is None
        assert 0.04 < read.done_at < inf and not disk.finished(read)
        sim.run(until=read.done_at)
        assert not disk.finished(read), "done_at == now is not ready yet"
        assert disk.reads_completed.count == 1
        sim.run(until=read.done_at + 1e-9)
        assert disk.finished(read) and not read.errored
        # Nor does a read in any other state of the drive.
        disk.fail()
        disk.read(250_000, ZONE_OUTER)
        assert sim.peek_time() is None
        disk.recover()
        disk.set_stuck(True)
        stalled = disk.read(250_000, ZONE_OUTER)
        assert sim.peek_time() is None
        disk.set_stuck(False)
        assert stalled.done_at < inf
        assert sim.peek_time() is None
        disk.read(250_000, ZONE_OUTER)
        assert sim.peek_time() is None

    def test_die_and_recover_inside_a_flight_completes_the_read(self, sim, disk):
        read = disk.read(250_000, ZONE_OUTER)
        sim.run(until=read.done_at / 3)
        disk.fail()
        sim.run(until=2 * read.done_at / 3)
        disk.recover()
        sim.run(until=read.done_at + 1.0)
        assert disk.finished(read)
        assert (disk.reads_completed.count, disk.reads_errored.count) == (1, 0)

    def test_dead_at_done_at_errors_the_read_even_if_asked_after_recovery(
        self, sim, disk
    ):
        read = disk.read(250_000, ZONE_OUTER)
        sim.run(until=read.done_at / 2)
        disk.fail()
        sim.run(until=read.done_at + 1.0)
        disk.recover()
        assert read.errored and not disk.finished(read)
        assert (disk.reads_completed.count, disk.reads_errored.count) == (0, 1)

    def test_stuck_drive_queues_reads_and_starts_them_on_unstick(self, sim, disk):
        disk.set_stuck(True)
        reads = [disk.read(250_000, ZONE_OUTER) for _ in range(3)]
        sim.run(until=5.0)
        assert all(read.done_at == inf for read in reads)
        assert not any(disk.finished(read) for read in reads)
        disk.set_stuck(False)
        assert 5.0 < reads[0].done_at < reads[1].done_at < reads[2].done_at
        sim.run(until=6.0)
        assert all(disk.finished(read) for read in reads)
        assert disk.reads_completed.count == 3


# ----------------------------------------------------------------------
# The event-less drive against the drive that armed an event per read
# ----------------------------------------------------------------------
class EventPerReadDisk(SimDisk):
    """The reference: the drive as it was, where every read arms a
    completion event (``_finish``) — or an error callback when the drive
    is dead — and the counters move when that event fires."""

    def read(self, size_bytes, zone, on_complete, on_error=None):
        if size_bytes <= 0:
            raise ValueError("read size must be positive")
        if self.failed:
            self._reads_errored.increment()
            if on_error is not None:
                self.sim.call_after(0.0, on_error)
            return
        if self.stuck:
            self._stalled.append((size_bytes, zone, on_complete, on_error))
            return
        service = (
            self.params.sample_read_time(self._rng, zone, size_bytes)
            * self.slow_factor
        )
        start = max(self.sim.now, self._free_at)
        completion = start + service
        self._free_at = completion
        self.busy.add_busy(self.sim.now, service)
        self.sim.call_at(
            completion, self._finish, size_bytes, on_complete, on_error
        )

    def _finish(self, size_bytes, on_complete, on_error):
        if self.failed:
            self._reads_errored.increment()
            if on_error is not None:
                on_error()
            return
        self._reads_completed.increment()
        self._bytes_read.increment(size_bytes)
        on_complete(self.sim.now)

    def fail(self):
        if self.failed:
            return
        self.failed = True
        stalled, self._stalled = self._stalled, []
        for _size, _zone, _on_complete, on_error in stalled:
            self._reads_errored.increment()
            if on_error is not None:
                self.sim.call_after(0.0, on_error)

    def recover(self):
        self.failed = False
        self._free_at = self.sim.now

    def set_stuck(self, stuck):
        if stuck == self.stuck:
            return
        self.stuck = stuck
        if not stuck:
            stalled, self._stalled = self._stalled, []
            for size_bytes, zone, on_complete, on_error in stalled:
                self.read(size_bytes, zone, on_complete, on_error)


class _Differential:
    """Drives an event-less drive and the reference through one script,
    same seed, and holds them to each other after every step."""

    def __init__(self, seed):
        self.sims = (Simulator(), Simulator())
        self.new = SimDisk(self.sims[0], "d0", DiskParameters(), RngRegistry(seed))
        self.ref = EventPerReadDisk(
            self.sims[1], "d0", DiskParameters(), RngRegistry(seed)
        )
        self.reads = []      # the event-less drive's Read per read issued
        self.ref_fired = []  # per read: None | ("done", t) | ("error", t)
        self.ties = []       # (asked of the new drive, asked of the reference)

    def _recorders(self):
        fired, sim = self.ref_fired, self.sims[1]
        index = len(fired)
        fired.append(None)

        def done(when):
            assert fired[index] is None and when == sim.now
            fired[index] = ("done", when)

        def error():
            assert fired[index] is None
            fired[index] = ("error", sim.now)

        return done, error

    def read(self, size, zone, ask_at_tie=True):
        """Issue one read on both drives.  Before the reference's read,
        an event is armed at the read's completion time on both sides —
        the order a cub's send has with the read it waits for — which
        asks "ready?" at that exact instant."""
        new_sim, ref_sim = self.sims
        index = len(self.reads)
        read = self.new.read(size, zone)
        self.reads.append(read)
        # settle-on-read: what is left really is in flight, in order.
        flying = [r.done_at for r in self.new._in_flight]
        assert flying == sorted(flying) and all(t > new_sim.now for t in flying)
        if ask_at_tie and new_sim.now <= read.done_at < inf and not read.errored:
            tie = [None, None]
            self.ties.append(tie)
            new_sim.call_at(
                read.done_at,
                lambda: tie.__setitem__(0, self.new.finished(read)),
            )
            ref_sim.call_at(
                read.done_at,
                lambda: tie.__setitem__(1, self.ref_fired[index] is not None),
            )
        self.ref.read(size, zone, *self._recorders())

    def step(self, step, look=True):
        op, *args = step
        if op == "read":
            self.read(*args, ask_at_tie=look)
        elif op == "run":
            for sim in self.sims:
                sim.run(until=sim.now + args[0])
        elif op == "run_to_done":
            started = [r.done_at for r in self.reads if r.done_at < inf]
            if started:
                target = started[args[0] % len(started)]
                for sim in self.sims:
                    sim.run(until=max(sim.now, target))
        else:
            for disk in (self.new, self.ref):
                getattr(disk, op)(*args)
        for sim in self.sims:
            sim.run(until=sim.now)  # the reference's zero-delay error callbacks
        if look:
            self.check()

    def check(self):
        new, ref = self.new, self.ref
        now = self.sims[0].now
        assert now == self.sims[1].now
        assert new.reads_completed.count == ref.reads_completed.count
        assert new.bytes_read.count == ref.bytes_read.count
        assert new.reads_errored.count == ref.reads_errored.count
        assert new.utilization() == ref.utilization()
        assert new.queue_backlog == ref.queue_backlog
        for read, fired in zip(self.reads, self.ref_fired):
            kind = fired[0] if fired is not None else None
            assert read.errored == (kind == "error")
            if read.done_at != now:
                # At the exact completion time "ready" depends on who
                # asks; the armed tie events ask in the cub's order.
                assert new.finished(read) == (kind == "done")
                if kind == "done":
                    assert fired[1] == read.done_at
        for asked_new, asked_ref in self.ties:
            assert asked_new == asked_ref
            assert asked_new in (None, False)


_ZONES = st.sampled_from([ZONE_OUTER, ZONE_INNER])
_DRIVE_STEP = st.one_of(
    st.tuples(st.just("read"), st.integers(20_000, 400_000), _ZONES),
    st.tuples(st.just("run"), st.floats(0.0, 0.12)),
    st.tuples(st.just("run_to_done"), st.integers(0, 50)),
    st.tuples(st.just("fail")),
    st.tuples(st.just("recover")),
    st.tuples(st.just("set_stuck"), st.booleans()),
    st.tuples(st.just("set_slow"), st.sampled_from([0.5, 1.0, 3.0])),
)


def _run_differential(seed, steps, look_every_step=True):
    """Looking settles the event-less drive, so a script is also run
    without looking until its end: a settlement the drive owes at a
    fail() or recover() is then not made for it by the comparison."""
    pair = _Differential(seed)
    for step in steps:
        pair.step(step, look_every_step)
    pair.step(("run", 5.0))
    return pair


@given(
    st.integers(0, 2**16), st.lists(_DRIVE_STEP, max_size=40), st.booleans()
)
@settings(max_examples=200, deadline=None)
def test_event_less_drive_matches_an_event_per_read(seed, steps, look_every_step):
    _run_differential(seed, steps, look_every_step)


_READ = ("read", 250_000, ZONE_OUTER)
_READ_INNER = ("read", 250_000, ZONE_INNER)


@pytest.mark.parametrize("look_every_step", [True, False])
@pytest.mark.parametrize(
    "steps",
    [
        # die and recover inside one read's flight: it completes
        [_READ, ("run", 0.01), ("fail",), ("run", 0.01), ("recover",)],
        # ... and a read started after the recovery overtakes it
        [("set_slow", 3.0), _READ_INNER, ("run", 0.01), ("fail",), ("recover",),
         ("set_slow", 0.5), _READ, _READ_INNER, ("run_to_done", 1)],
        # dead at the completion time: errored, whoever asks and when
        [_READ, _READ_INNER, ("run", 0.01), ("fail",), ("run", 0.5), ("recover",)],
        # issued on a dead drive
        [("fail",), _READ, _READ_INNER, ("run", 0.1), ("recover",), _READ],
        # stalled on a stuck drive that then dies
        [("set_stuck", True), _READ, _READ_INNER, ("run", 0.2), ("fail",),
         ("run", 0.1), ("recover",), _READ, ("set_stuck", False), _READ],
        # stalled, then started late
        [("set_stuck", True), _READ, _READ_INNER, _READ, ("run", 0.3),
         ("set_stuck", False), ("run_to_done", 0), ("run_to_done", 2)],
        # the clock stops exactly on a completion time, drive alive and dead
        [_READ, _READ, ("run_to_done", 0), ("fail",), ("run_to_done", 1)],
        # completed, then the drive dies: still completed
        [_READ, ("run", 0.5), ("fail",), ("run", 0.5), ("recover",)],
    ],
)
def test_named_interleavings(steps, look_every_step):
    pair = _run_differential(7, steps, look_every_step)
    assert pair.reads


def test_the_tie_is_really_asked():
    """The differential's tie events do fire with a verdict, and it is
    "not ready" on both drives."""
    pair = _run_differential(7, [_READ, _READ_INNER, ("run", 1.0)])
    assert pair.ties == [[False, False], [False, False]]
