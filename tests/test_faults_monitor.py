"""Tests for the runtime invariant monitor (repro.faults.monitor)."""

import math

import pytest

from repro import TigerSystem, small_config
from repro.core.world import World
from repro.faults.injectors import install_plan
from repro.faults.monitor import CUB_CHECKS, InvariantMonitor, InvariantViolation
from repro.faults.plan import FaultPlan
from repro.live.node import build_component
from repro.net.switch import SwitchedNetwork
from repro.obs.registry import MetricsRegistry, snapshot_total
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.workloads import ContinuousWorkload


def build_running(seed=21, streams=8, warmup=10.0):
    system = TigerSystem(small_config(), seed=seed)
    system.add_standard_content(num_files=4, duration_s=90)
    workload = ContinuousWorkload(system)
    workload.add_streams(streams)
    system.start()
    system.run_until(warmup)
    return system


def violations(system, cub, check=None):
    """What a one-cub monitor of ``cub`` counted (of ``check``)."""
    labels = {"node": cub.name}
    if check is not None:
        labels["check"] = check
    return snapshot_total(
        system.registry.snapshot(), "invariant.violations", **labels
    )


class TestSweeps:
    def test_clean_run_passes(self):
        system = build_running()
        monitor = InvariantMonitor(system)
        monitor.install()
        system.run_until(20.0)
        assert monitor.checks_run >= 9
        monitor.final_check()

    def test_install_idempotent(self):
        system = build_running(warmup=1.0)
        monitor = InvariantMonitor(system)
        monitor.install()
        monitor.install()
        system.run_until(4.0)
        # One sweep chain, not two: about one check per period.
        assert monitor.checks_run <= 4

    def test_stop_halts_sweeps(self):
        system = build_running(warmup=1.0)
        monitor = InvariantMonitor(system)
        monitor.install()
        system.run_until(3.0)
        seen = monitor.checks_run
        monitor.stop()
        system.run_until(8.0)
        assert monitor.checks_run == seen


class TestGraceWindows:
    def test_note_fault_opens_relaxed_window(self):
        system = build_running(warmup=1.0)
        monitor = InvariantMonitor(system)
        spec = FaultPlan().crash_cub(1, at=5.0).events[0]
        monitor.note_fault(spec)
        assert not monitor._relaxed(4.9)
        assert monitor._relaxed(5.0)
        assert monitor._relaxed(5.0 + monitor.settle_margin - 0.1)
        assert not monitor._relaxed(5.0 + monitor.settle_margin + 0.1)
        assert monitor._converge_after == pytest.approx(
            5.0 + monitor.settle_margin
        )

    def test_helper_faults_open_no_window(self):
        """A helper owns no schedule state: its death and reboot must
        leave every staleness check armed."""
        system = build_running(warmup=1.0)
        monitor = InvariantMonitor(system)
        for spec in FaultPlan().crash_helper(0, at=5.0, restart_after=3.0).events:
            monitor.note_fault(spec)
        assert not monitor._relaxed(5.0)
        assert not monitor._relaxed(8.0)
        assert monitor._converge_after == 0.0

    def test_hard_checks_never_stand_down(self):
        """Delivery conservation must hold even mid-fault-window."""
        system = build_running()
        monitor = InvariantMonitor(system)
        spec = FaultPlan().crash_cub(1, at=0.0, restart_after=100.0).events[0]
        monitor.note_fault(spec)
        assert monitor._relaxed(system.sim.now)
        victim = system.clients[0].all_monitors()[0]
        victim.blocks_missed += 1  # break the ledger
        with pytest.raises(InvariantViolation, match=r"\[conservation\]"):
            monitor.check_now()

    def test_deadman_check_waits_for_convergence_window(self):
        system = build_running()
        monitor = InvariantMonitor(system)
        spec = FaultPlan().crash_cub(1, at=system.sim.now).events[0]
        monitor.note_fault(spec)
        system.fail_cub(1)
        # Beliefs lag reality, but the grace window covers the fault.
        monitor.check_now()


class TestDetection:
    def test_deadman_divergence_detected_outside_grace(self):
        system = build_running()
        monitor = InvariantMonitor(system)
        system.fail_cub(1)  # no note_fault: monitor expects convergence
        with pytest.raises(InvariantViolation, match=r"\[deadman-convergence\]"):
            monitor.check_now()

    def test_never_started_stream_detected(self):
        system = build_running()
        monitor = InvariantMonitor(system, startup_grace=5.0)
        victim = system.clients[0].all_monitors()[0]
        victim.first_block_time = None
        victim.request_time = system.sim.now - 10.0
        with pytest.raises(InvariantViolation, match=r"\[stream-liveness\]"):
            monitor.check_now()

    def test_stalled_stream_detected(self):
        system = build_running()
        monitor = InvariantMonitor(system)
        victim = system.clients[0].all_monitors()[0]
        # Backdate the stream so its next block is long overdue.
        victim.first_block_time = -1000.0
        with pytest.raises(
            InvariantViolation, match="undelivered-block leak"
        ):
            monitor.check_now()

    def test_corruption_detected(self):
        system = build_running()
        monitor = InvariantMonitor(system)
        victim = system.clients[0].all_monitors()[0]
        victim.blocks_corrupt += 1
        with pytest.raises(InvariantViolation, match=r"\[corruption\]"):
            monitor.check_now()

    @pytest.mark.parametrize("damage", [
        "unindexed", "unstored", "unmapped",
        "stranded-seen", "stranded-slot", "stranded-redundant",
        "view-size", "forward-queue",
    ])
    def test_index_incoherence_detected(self, damage):
        """Cub-scope damage raises on the DES and is counted by a
        one-cub monitor, which runs the same check."""
        system = build_running(streams=34)  # two more than fit: they queue
        cub = next(
            cub for cub in system.cubs
            if cub.owner._redundant_states and cub.owner.queued()
        )
        monitor = InvariantMonitor(system)
        own = InvariantMonitor(system, cub)
        monitor.check_now()
        own.check_now()
        assert violations(system, cub) == 0
        check = "index-coherence"
        if damage == "unindexed":  # a record no deschedule can reach
            cub.owner._redundant_index.popitem()
        elif damage == "unstored":  # an index entry outliving its record
            cub.owner._redundant_states.popitem()
        elif damage == "unmapped":
            cub.owner._queued_requests.popitem()
        elif damage == "view-size":  # a view that outgrew its leads
            check = damage
            for key in range(monitor.view_bound + 1):
                cub.view._tombstones[("ghost", key, 0)] = math.inf
        elif damage == "forward-queue":  # a pump that stopped draining
            check = damage
            cub.owner.mirror_forward_queue.extend([None] * (monitor.queue_bound + 1))
        else:  # a record no prune can reach: held forever
            view = cub.view
            index, records = {
                "stranded-seen": (view._seen_expiry, view._seen.items()),
                "stranded-slot": (view._slot_expiry, (
                    (slot, state.due_time)
                    for slot, state in view._slot_states.items()
                )),
                "stranded-redundant": (cub.owner._redundant_expiry, (
                    (key, state.due_time)
                    for key, state in cub.owner._redundant_states.items()
                )),
            }[damage]
            key, due_time = next(iter(records))
            index._buckets[math.floor(due_time)].remove(key)
        with pytest.raises(InvariantViolation, match=rf"\[{check}\]"):
            monitor.check_now()
        own.check_now()
        assert violations(system, cub, check) == 1

    def test_violation_carries_trace_dump(self):
        system = build_running()
        monitor = InvariantMonitor(system)
        victim = system.clients[0].all_monitors()[0]
        victim.blocks_missed += 1
        with pytest.raises(InvariantViolation, match="trace records"):
            monitor.check_now()


class TestOneCubMonitor:
    def test_counts_a_violation_and_sweeps_on(self):
        system = build_running(warmup=1.0)
        cub = system.cubs[0]
        own = InvariantMonitor(system, cub)
        own.install()
        for key in range(own.view_bound + 1):  # inert: never expires
            cub.view._tombstones[("ghost", key, 0)] = math.inf
        system.run_until(4.5)
        assert own.checks_run == 3
        assert violations(system, cub, "view-size") == 3
        assert violations(system, cub) == 3

    @pytest.mark.parametrize("num_cubs", [4, 5, 8])
    def test_an_isolated_cub_believes_its_ring_dead(self, num_cubs):
        """A cub watches at most four neighbours: at 8 cubs, believing
        those four dead is the whole ring it can see."""
        system = TigerSystem(small_config(num_cubs=num_cubs), seed=3)
        system.add_standard_content(num_files=4, duration_s=90)
        install_plan(
            FaultPlan().isolate_node("cub:0", start=1.0, duration=40.0),
            system,
        )
        system.start()
        system.run_until(21.0)
        cub = system.cubs[0]
        assert cub.deadman.believed_failed == set(cub.deadman.watched)
        own = InvariantMonitor(system, cub)
        own.check_now()
        assert violations(system, cub, "whole-ring-dead") == 1

    def test_a_live_cub_node_runs_only_the_cub_scope_checks(self):
        config = small_config()
        sim, rngs, tracer = Simulator(), RngRegistry(0), Tracer()
        world = World(
            config, sim, SwitchedNetwork(sim, rngs, tracer=tracer),
            MetricsRegistry(), tracer, rngs,
        )
        world.add_standard_content(num_files=4, duration_s=90)
        cub, monitor = build_component({"role": "cub", "node_id": 1}, world)
        assert monitor.system is None
        monitor.check_now()
        checks = world.registry.snapshot()["invariant.checks"]["series"]
        assert {row["labels"]["check"]: row["value"] for row in checks} == {
            name: 1 for name in CUB_CHECKS
        }
        assert {row["labels"]["node"] for row in checks} == {cub.name}


def test_assert_invariants_runs_the_cub_scope_checks():
    system = build_running(streams=34)
    system.assert_invariants()
    cub = next(cub for cub in system.cubs if cub.owner._redundant_states)
    cub.owner._redundant_index.popitem()
    with pytest.raises(InvariantViolation, match=r"\[index-coherence\]"):
        system.assert_invariants()
