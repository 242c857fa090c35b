"""The start order and the slot-machinery bugfix sweep.

At an ownership instant a cub inserts the longest-waiting start queued
for that disk (`ScheduleOwner.ownership_instant`, paper §4.1.3), and
only at the owned (slot, visit).  Wait queues fill in request order, so
the oldest start is the queue head unless a controller failover lands
retried starts in inverted age order.  Plus regressions for the bugs
fixed alongside:

* a stale ``stop_viewer`` keyed by slot must not evict a later start
  that reused the slot (centralized baseline);
* startup latency is measured from the *client's* request time, not
  from admission time, on both the primary and the failover path, and
  still-queued starts enter fig-10 as censored waits;
* VCR pause releases the slot (deschedule + bookmark) so a queued
  start can claim it;
* ``NetworkSchedule.peak_load_in`` probes entries within float fuzz of
  the window top (skipping them let ``can_insert`` admit past NIC
  capacity).
"""

from __future__ import annotations

import pytest

from repro import TigerSystem, small_config
from repro.core import owner as owner_module
from repro.core.netschedule import NetworkSchedule
from repro.faults.harness import ChaosHarness, standard_chaos_plan
from repro.sim.rng import RngRegistry

from tests.test_core_centralized import build_centralized
from tests.test_schedule_owner import (
    DISK, _never_blocked, _occupant, _owner, _request,
)

#: Chaos fingerprints of the code before start orders existed, at 95%
#: load (seeds 0, 1): the oldest-first order must keep them
#: bit-identical.
CHAOS_BASELINE_FINGERPRINTS = {
    0: "29d212ddd9921abc32ded9e1a9baa24976f048ee1ae04578d7fc2a07e36b2d82",
    1: "8779deb214dc51b2a623700807c6d8e2c375607a8c1ae0207c630a402e0f61a4",
}


# ======================================================================
# The start order, unit by unit
# ======================================================================


def _random_queue(owner, rng, count):
    """Queue ``count`` starts for :data:`DISK` with random request
    times; returns them in arrival order."""
    requests = [
        _request(instance, DISK, request_time=float(rng.randrange(8)))
        for instance in range(1, count + 1)
    ]
    for request in requests:
        owner.start_request(0.0, request)
    return requests


def _insert_once(owner, now):
    """Run ``DISK``'s next ownership instant after ``now``; returns
    (the inserted state, the owned slot, the owned visit)."""
    when, slot, visit = owner.next_instant(now, DISK)
    state = owner.ownership_instant(when, DISK, slot, visit, _never_blocked)
    return state, slot, visit


class TestStartOrder:
    def test_an_instant_inserts_only_a_queued_start(self):
        """Property: the owner only orders the starts it was given — it
        inserts one of the queued starts, at the owned (slot, visit),
        and never invents (or evicts into) another."""
        rng = RngRegistry(99).stream("start-order-candidates")
        for trial in range(50):
            owner = _owner()
            requests = _random_queue(owner, rng, 1 + rng.randrange(6))
            state, slot, visit = _insert_once(owner, 0.0)
            assert state.instance in {r.instance for r in requests}
            assert (state.slot, state.due_time) == (slot, visit)
            assert owner.queued(DISK) == len(requests) - 1

    def test_no_start_is_deferred(self):
        """However long a start has waited, and after an occupied
        instant, the next free owned visit takes it."""
        owner = _owner()
        owner.start_request(0.0, _request(1, DISK))
        when, slot, visit = owner.next_instant(0.0, DISK)
        owner.view.admit(_occupant(slot, visit), now=0.0)
        assert owner.ownership_instant(
            when, DISK, slot, visit, _never_blocked
        ) is None
        state, next_slot, next_visit = _insert_once(owner, when + 30.0)
        assert (state.instance, state.slot, state.due_time) == (
            1, next_slot, next_visit,
        )

    def test_the_oldest_request_goes_first(self):
        """Property: the start inserted is the one with the earliest
        request time, the one nearest the head among equals."""
        rng = RngRegistry(3).stream("start-order-oldest")
        for trial in range(50):
            owner = _owner()
            requests = _random_queue(owner, rng, 1 + rng.randrange(6))
            state, _slot, _visit = _insert_once(owner, 0.0)
            assert state.instance == min(
                requests, key=lambda r: (r.request_time, r.instance)
            ).instance
        # Ties within float tolerance go to the head as well.
        tied = _owner()
        tied.start_request(0.0, _request(1, DISK, request_time=2.0))
        tied.start_request(0.0, _request(2, DISK, request_time=2.0 - 1e-13))
        state, _slot, _visit = _insert_once(tied, 10.0)
        assert state.instance == 1


# ======================================================================
# The order the paper's rule changes: retries after a controller failover
# ======================================================================


def test_a_failover_retry_inversion_still_starts_the_oldest_first():
    """Clients retry a start against the backup controller on their own
    ack-timeout phase, so a later request can reach a cub's wait queue
    first.  With the ring full, A (asked at +1.9 s) and B (asked at
    +3.0 s) both wait for file 0's disk; B lands first.  The one slot a
    stop frees goes to A, the longest-waiting viewer; taking the queue
    head would have started B and left A waiting."""
    system = TigerSystem(small_config(), seed=0)
    system.add_standard_content(num_files=5, duration_s=120.0)
    system.enable_controller_backup()
    client = system.add_client()
    prefail = [
        client.start_stream(index % 5)
        for index in range(system.config.num_slots)
    ]
    system.run_for(20.0)

    system.fail_controller()
    system.run_for(1.9)
    first = client.start_stream(0)
    system.run_for(1.1)
    second = client.start_stream(0)
    system.run_for(7.0)
    client.stop_stream(prefail[0])
    system.run_for(30.0)

    first_block = client.streams[first].first_block_time
    second_block = client.streams[second].first_block_time
    assert first_block is not None
    assert second_block is None or second_block > first_block


# ======================================================================
# The chaos suite replays as before start orders existed
# ======================================================================


def _chaos_report(seed):
    harness = ChaosHarness(
        small_config(),
        standard_chaos_plan(duration=30.0),
        seed=seed,
        load=0.95,
        duration=30.0,
        num_files=4,
        file_seconds=60.0,
    )
    return harness.run()


@pytest.mark.parametrize("seed", sorted(CHAOS_BASELINE_FINGERPRINTS))
def test_chaos_fingerprint_matches_pre_policy_baseline(seed):
    """The chaos suite, controller kill included, must replay
    bit-identically to the code before start orders existed."""
    report = _chaos_report(seed)
    assert report.fingerprint == CHAOS_BASELINE_FINGERPRINTS[seed]


@pytest.mark.parametrize("seed", [0, 1])
def test_failover_free_churn_inserts_each_queue_head(monkeypatch, seed):
    """Under VCR churn with no failover, every wait queue stays in
    request order, so each insert is the head of its queue: the oldest
    start costs no reordering on the paths the paper measures."""
    oldest = owner_module._oldest
    picks = []

    def recording_oldest(queue):
        request = oldest(queue)
        picks.append(request is queue[0])
        return request

    monkeypatch.setattr(owner_module, "_oldest", recording_oldest)
    system = TigerSystem(small_config(), seed=seed)
    system.add_standard_content(num_files=5, duration_s=120.0)
    client = system.add_client()
    rng = RngRegistry(seed).stream("start-order-churn")

    active, paused = [], []
    for _ in range(30):
        roll = rng.random()
        if roll < 0.4 and len(active) < system.config.num_slots - 2:
            active.append(client.start_stream(rng.randrange(5)))
        elif roll < 0.6 and active:
            victim = active.pop(rng.randrange(len(active)))
            if client.pause_stream(victim) is not None:
                paused.append(victim)
        elif roll < 0.8 and paused:
            resumed = client.resume_stream(paused.pop(rng.randrange(len(paused))))
            if resumed is not None:
                active.append(resumed)
        elif active:
            client.stop_stream(active.pop(rng.randrange(len(active))))
        system.run_for(rng.uniform(0.3, 1.2))
    system.run_for(10.0)
    system.finalize_clients()
    system.assert_invariants()

    assert picks and all(picks)


# ======================================================================
# Satellite 1: stale stop_viewer must not evict the slot's new occupant
# ======================================================================


class TestStaleStopRegression:
    def test_stale_stop_does_not_evict_reused_slot(self, sim, rngs):  # noqa: F811
        config = small_config()
        network, controller, cubs, catalog = build_centralized(
            sim, rngs, config
        )
        catalog.add_file("movie", 2e6, 60.0)
        # Fill the schedule completely so the next start must reuse the
        # exact slot the stop frees.
        for index in range(config.num_slots):
            assert controller.start_viewer(f"client:0#{index}", index, 0)
        victim_slot = next(
            slot
            for slot in range(config.num_slots)
            if controller.schedule.occupant(slot).instance == 3
        )
        controller.stop_viewer(3, victim_slot)
        assert controller.schedule.is_free(victim_slot)
        assert controller.start_viewer("client:0#999", 999, 0)
        occupant = controller.schedule.occupant(victim_slot)
        assert occupant is not None and occupant.instance == 999

        # The regression: a duplicate/stale stop for the *old* instance
        # arrives after the slot was reused.  Keyed-by-slot removal used
        # to evict instance 999; the occupant-identity check must keep
        # it scheduled.
        controller.stop_viewer(3, victim_slot)
        occupant = controller.schedule.occupant(victim_slot)
        assert occupant is not None and occupant.instance == 999

    def test_legitimate_stop_still_frees_slot(self, sim, rngs):  # noqa: F811
        config = small_config()
        network, controller, cubs, catalog = build_centralized(
            sim, rngs, config
        )
        catalog.add_file("movie", 2e6, 60.0)
        assert controller.start_viewer("client:0#1", 1, 0)
        slot = controller.schedule.occupied_slots()[0]
        controller.stop_viewer(1, slot)
        assert controller.schedule.is_free(slot)


# ======================================================================
# Satellite 2: latency from the client's request time, queued waits in
# ======================================================================


class TestRequestTimeLatency:
    def test_queued_wait_charged_to_startup_latency(self):
        """A start queued behind a full schedule is charged its whole
        wait — from the client's request, not from when a slot freed."""
        system = TigerSystem(small_config(), seed=11)
        system.add_standard_content(num_files=5, duration_s=120.0)
        client = system.add_client()
        active = [
            client.start_stream(index % 5)
            for index in range(system.config.num_slots)
        ]
        system.run_for(12.0)

        requested_at = system.sim.now
        queued = client.start_stream(0)
        system.run_for(5.0)  # still full: the start waits, queued
        assert client.streams[queued].startup_latency is None
        client.stop_stream(active[0])
        system.run_for(10.0)

        latency = client.streams[queued].startup_latency
        assert latency is not None
        # The slot only freed 5 s after the request; admission-time
        # stamping would report well under that.
        assert latency >= 5.0 - 1e-9
        assert client.streams[queued].request_time == pytest.approx(
            requested_at
        )

    def test_failover_retry_keeps_original_request_time(self):
        """The backup controller must honor the request_time carried in
        the retried ClientStart instead of stamping its own receive
        time — the dead-window wait belongs in the histogram."""
        system = TigerSystem(small_config(), seed=12)
        system.add_standard_content(num_files=5, duration_s=120.0)
        system.enable_controller_backup()
        client = system.add_client()
        for index in range(4):
            client.start_stream(index % 5)
        system.run_for(10.0)

        system.fail_controller()
        system.run_for(0.5)
        requested_at = system.sim.now
        instance = client.start_stream(0)
        # Dead window: the request is retried against the backup after
        # takeover; at this light load it is served promptly once it
        # lands.
        system.run_for(14.0)

        monitor = client.streams[instance]
        assert monitor.first_block_time is not None
        assert monitor.request_time == pytest.approx(requested_at)
        # The measured latency must include the multi-second dead
        # window, not just the post-landing service time.
        assert monitor.startup_latency >= 4.0
        # The regression proper: the backup's play record must carry
        # the client's original request time, not the backup's receive
        # time (which is at least one 2 s ack-timeout retry later) —
        # the cubs insert the oldest request first, so their order
        # depends on it.
        record = system.backup_controller.plays[instance]
        assert record.request_time == pytest.approx(requested_at)


# ======================================================================
# Satellite 3: pause releases the slot for queued starts
# ======================================================================


class TestPauseReclaimsSlot:
    def test_pause_frees_slot_for_queued_start(self):
        system = TigerSystem(small_config(), seed=13)
        system.add_standard_content(num_files=5, duration_s=120.0)
        client = system.add_client()
        active = [
            client.start_stream(index % 5)
            for index in range(system.config.num_slots)
        ]
        system.run_for(12.0)

        queued = client.start_stream(1)
        system.run_for(4.0)
        assert client.streams[queued].startup_latency is None

        resume_block = client.pause_stream(active[0])
        assert resume_block is not None
        system.run_for(10.0)

        # The paused viewer's deschedule freed its slot; the queued
        # start claimed it.
        assert client.streams[queued].startup_latency is not None
        system.finalize_clients()
        system.assert_invariants()

    def test_resume_is_a_fresh_instance_at_bookmark(self):
        system = TigerSystem(small_config(), seed=14)
        system.add_standard_content(num_files=5, duration_s=120.0)
        client = system.add_client()
        instance = client.start_stream(2)
        system.run_for(6.0)
        resume_block = client.pause_stream(instance)
        assert resume_block is not None and resume_block > 0
        system.run_for(2.0)
        resumed = client.resume_stream(instance)
        assert resumed is not None and resumed != instance
        assert client.streams[resumed].first_block == resume_block
        system.run_for(5.0)
        assert client.streams[resumed].first_block_time is not None


# ======================================================================
# NetworkSchedule capacity probe regression
# ======================================================================


class TestPeakLoadFuzzRegression:
    def test_entry_within_fuzz_of_window_top_is_probed(self):
        """Falsifying example from the capacity property: an entry at
        ``hi - ulp`` overlaps the probe window, and skipping it as a
        probe point let ``can_insert`` under-count the peak and admit a
        third 4 Mbit/s stream over an 8 Mbit/s NIC."""
        schedule = NetworkSchedule(length=14.0, capacity_bps=8e6, width=1.0)
        schedule.insert("a", 13.5, 4e6)
        schedule.insert("b", 13.999999999999998, 4e6)
        # Both existing entries cover the position of entry "b": load
        # there is already at capacity.
        assert schedule.load_at(13.999999999999998) == pytest.approx(8e6)
        assert not schedule.can_insert(13.5, 4e6)
        with pytest.raises(ValueError):
            schedule.insert("c", 13.5, 4e6)

    def test_capacity_never_exceeded_under_greedy_fill(self):
        rng = RngRegistry(21).stream("netfill")
        schedule = NetworkSchedule(length=14.0, capacity_bps=8e6, width=1.0)
        offsets = []
        for trial in range(300):
            offset = rng.uniform(0.0, 14.0)
            if schedule.can_insert(offset, 4e6):
                schedule.insert(f"v{trial}", offset, 4e6)
                offsets.append(offset % 14.0)
        assert offsets
        for position in offsets:
            assert schedule.load_at(position) <= 8e6 + 1e-3


# ======================================================================
# CLI smoke
# ======================================================================


class TestPlacementCli:
    @pytest.mark.parametrize("verb", ["demo", "chaos", "cluster"])
    def test_load_spread_is_gone(self, verb, capsys):
        """There is one start order, so no verb takes ``--placement``:
        argparse refuses the flag, load-spread or any other policy,
        with exit code 2."""
        from repro.cli import main

        for policy in ("load-spread", "first-fit"):
            with pytest.raises(SystemExit) as exit_info:
                main([verb, "--placement", policy])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: --placement {policy}" in err
