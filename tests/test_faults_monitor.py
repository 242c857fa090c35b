"""Tests for the runtime invariant monitor (repro.faults.monitor)."""

import math

import pytest

from repro import TigerSystem, small_config
from repro.faults.live import CubInvariantProbe
from repro.faults.monitor import InvariantMonitor, InvariantViolation
from repro.faults.plan import FaultPlan
from repro.workloads import ContinuousWorkload


def build_running(seed=21, streams=8, warmup=10.0):
    system = TigerSystem(small_config(), seed=seed)
    system.add_standard_content(num_files=4, duration_s=90)
    workload = ContinuousWorkload(system)
    workload.add_streams(streams)
    system.start()
    system.run_until(warmup)
    return system


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
    ])
    def test_index_incoherence_detected(self, damage):
        """The DES monitor and the live probe run the same check."""
        system = build_running(streams=34)  # two more than fit: they queue
        cub = next(
            cub for cub in system.cubs
            if cub._redundant_states and cub._queued_requests
        )
        monitor = InvariantMonitor(system)
        probe = CubInvariantProbe(cub, system.registry)
        monitor.check_now()
        probe._sweep()
        assert probe.violations.count == 0
        if damage == "unindexed":  # a record no deschedule can reach
            cub._redundant_index.popitem()
        elif damage == "unstored":  # an index entry outliving its record
            cub._redundant_states.popitem()
        elif damage == "unmapped":
            cub._queued_requests.popitem()
        else:  # a record no prune can reach: held forever
            view = cub.view
            index, records = {
                "stranded-seen": (view._seen_expiry, view._seen.items()),
                "stranded-slot": (view._slot_expiry, (
                    (slot, state.due_time)
                    for slot, state in view._slot_states.items()
                )),
                "stranded-redundant": (cub._redundant_expiry, (
                    (key, state.due_time)
                    for key, state in cub._redundant_states.items()
                )),
            }[damage]
            key, due_time = next(iter(records))
            index._buckets[math.floor(due_time)].remove(key)
        with pytest.raises(InvariantViolation, match=r"\[index-coherence\]"):
            monitor.check_now()
        probe._sweep()
        assert probe.violations.count == 1

    def test_violation_carries_trace_dump(self):
        system = build_running()
        monitor = InvariantMonitor(system)
        victim = system.clients[0].all_monitors()[0]
        victim.blocks_missed += 1
        with pytest.raises(InvariantViolation, match="trace records"):
            monitor.check_now()
