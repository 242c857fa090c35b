"""Start-order policies and the slot-machinery bugfix sweep.

A placement policy is the order in which a cub serves the starts
waiting for one disk (`ScheduleOwner.ownership_instant`): first-fit
takes the head of the queue, deadline-greedy the oldest
``request_time``.  Either inserts only at the owned (slot, visit), so
first-fit is bit-identical to the historical behavior and the two
policies diverge deterministically.  Plus regressions for the bugs
fixed alongside the policies:

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

import dataclasses

import pytest

from repro import TigerSystem, small_config
from repro.config import PLACEMENT_POLICIES, TigerConfig
from repro.core.metrics import PROTOCOL_COUNTERS
from repro.core.netschedule import NetworkSchedule
from repro.faults.harness import ChaosHarness, standard_chaos_plan
from repro.obs.registry import snapshot_total
from repro.sim.rng import RngRegistry

from tests.test_core_centralized import build_centralized
from tests.test_schedule_owner import (
    DISK, _never_blocked, _occupant, _owner, _request,
)

#: Chaos fingerprints of the pre-policy code at 95% load (seeds 0, 1).
#: The first-fit default must keep these bit-identical: any drift means
#: the refactor changed observable behavior.
FIRST_FIT_BASELINE_FINGERPRINTS = {
    0: "29d212ddd9921abc32ded9e1a9baa24976f048ee1ae04578d7fc2a07e36b2d82",
    1: "8779deb214dc51b2a623700807c6d8e2c375607a8c1ae0207c630a402e0f61a4",
}


# ======================================================================
# Policy contract units
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


class TestPolicyContract:
    def test_factory_builds_every_policy(self):
        for name in PLACEMENT_POLICIES:
            assert TigerConfig(placement=name).placement == name
        with pytest.raises(ValueError, match="unknown placement policy"):
            TigerConfig(placement="best-fit")

    @pytest.mark.parametrize("name", PLACEMENT_POLICIES)
    def test_choose_returns_only_offered_candidates(self, name):
        """Property: a policy only orders the starts it was given — it
        inserts one of the queued starts, at the owned (slot, visit) it
        was offered, and never invents (or evicts into) another."""
        rng = RngRegistry(99).stream(f"candidates-{name}")
        for trial in range(50):
            owner = _owner(policy=name)
            requests = _random_queue(owner, rng, 1 + rng.randrange(6))
            state, slot, visit = _insert_once(owner, 0.0)
            assert state.instance in {r.instance for r in requests}
            assert (state.slot, state.due_time) == (slot, visit)
            assert owner.queued(DISK) == len(requests) - 1

    @pytest.mark.parametrize("name", PLACEMENT_POLICIES)
    def test_patience_degenerates_to_first_fit(self, name):
        """No policy defers: however long a start has waited, and after
        an occupied instant, the next free owned visit takes it."""
        owner = _owner(policy=name)
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

    def test_first_fit_always_rank_zero(self):
        """First-fit inserts the head of the queue, whatever the
        request times behind it."""
        rng = RngRegistry(3).stream("ff")
        for trial in range(50):
            owner = _owner(policy="first-fit")
            requests = _random_queue(owner, rng, 1 + rng.randrange(6))
            state, _slot, _visit = _insert_once(owner, 0.0)
            assert state.instance == requests[0].instance

    def test_deadline_greedy_serves_oldest_request(self):
        owner = _owner(policy="deadline-greedy")
        for instance, request_time in ((1, 5.0), (2, 1.5), (3, 3.0)):
            owner.start_request(0.0, _request(instance, DISK, request_time))
        state, _slot, _visit = _insert_once(owner, 10.0)
        assert state.instance == 2
        # FIFO on ties (within float tolerance): the head wins.
        tied = _owner(policy="deadline-greedy")
        tied.start_request(0.0, _request(1, DISK, request_time=2.0))
        tied.start_request(0.0, _request(2, DISK, request_time=2.0 - 1e-13))
        state, _slot, _visit = _insert_once(tied, 10.0)
        assert state.instance == 1


# ======================================================================
# First-fit bit-identity + cross-policy differential
# ======================================================================


def _chaos_report(seed, placement="first-fit"):
    config = dataclasses.replace(small_config(), placement=placement)
    harness = ChaosHarness(
        config,
        standard_chaos_plan(duration=30.0),
        seed=seed,
        load=0.95,
        duration=30.0,
        num_files=4,
        file_seconds=60.0,
    )
    return harness.run()


@pytest.mark.parametrize("seed", sorted(FIRST_FIT_BASELINE_FINGERPRINTS))
def test_first_fit_fingerprint_matches_pre_policy_baseline(seed):
    """The refactor acceptance bar: with the default policy the chaos
    suite must replay bit-identically to the pre-policy code."""
    report = _chaos_report(seed)
    assert report.fingerprint == FIRST_FIT_BASELINE_FINGERPRINTS[seed]


def _churn_counters(placement, seed):
    """A failover-free VCR-churn run; returns the 7 gated counters."""
    config = dataclasses.replace(small_config(), placement=placement)
    system = TigerSystem(config, seed=seed)
    system.add_standard_content(num_files=5, duration_s=120.0)
    client = system.add_client()
    rng = RngRegistry(seed).stream("placement-differential")

    active, paused = [], []
    for _ in range(30):
        roll = rng.random()
        if roll < 0.4 and len(active) < config.num_slots - 2:
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

    snapshot = system.export_metrics().snapshot()
    return {
        name: int(snapshot_total(snapshot, name)) for name in PROTOCOL_COUNTERS
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_policy_differential_on_protocol_counters(seed):
    """Policy differential on the seven golden protocol counters.

    Under VCR churn with no failover, cub wait queues stay in request-
    time order, so deadline-greedy's oldest-first order is FIFO — the
    two must agree on every counter (the `assert_invariants` inside
    each run holds the no-double-booking oracle for every policy).
    """
    counters = {
        policy: _churn_counters(policy, seed) for policy in PLACEMENT_POLICIES
    }
    assert counters["deadline-greedy"] == counters["first-fit"]
    for policy, values in counters.items():
        assert values["cub.inserts_performed"] > 0, policy
        assert values["cub.blocks_sent"] > 0, policy
        assert values["cub.deadman_resurrections"] == 0, policy
        assert all(value >= 0 for value in values.values()), policy


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
        # deadline-greedy's EDF ordering depends on it.
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
    def test_placement_flag_parses_everywhere(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in ("demo", "chaos", "cluster"):
            args = parser.parse_args([command, "--placement", "deadline-greedy"])
            assert args.placement == "deadline-greedy"
        with pytest.raises(SystemExit):
            parser.parse_args(["demo", "--placement", "best-fit"])

    @pytest.mark.parametrize("verb", ["demo", "chaos", "cluster"])
    def test_load_spread_is_gone(self, verb, capsys):
        """A policy is a start order, and load-spread was a slot search:
        the config refuses it, and argparse refuses it on every verb
        with exit code 2."""
        from repro.cli import main

        with pytest.raises(ValueError, match="unknown placement policy"):
            TigerConfig(placement="load-spread")
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--placement", "load-spread"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'load-spread'" in capsys.readouterr().err

    def test_demo_runs_with_deadline_greedy(self, capsys):
        from repro.cli import main

        code = main(
            [
                "demo",
                "--streams",
                "6",
                "--seconds",
                "12",
                "--files",
                "4",
                "--placement",
                "deadline-greedy",
            ]
        )
        assert code == 0
        assert "slots" in capsys.readouterr().out
