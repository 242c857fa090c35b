"""Online restriper tests: completion, crash-resume, faults, monitor.

The satellite acceptance pair lives here:

* **estimate lower-bounds the online run** — a restripe that shares
  disks and NICs with live viewers can never beat the analytic
  dedicated-resource estimate from ``storage/restripe.py``.
* **crash-resume converges** — a restripe killed mid-run and resumed
  from its journal commits exactly the complement of the first run's
  moves (zero duplicated moves) and lands on a bit-identical placement
  fingerprint.
"""

from __future__ import annotations

import pytest

from repro.config import TigerConfig, small_config
from repro.core.protocol import RestripeCommit
from repro.core.tiger import TigerSystem
from repro.disk.zones import ZONE_OUTER
from repro.faults.monitor import InvariantMonitor, InvariantViolation
from repro.storage.journal import MoveJournal
from repro.storage.rebalance import (
    MOVE_COMMITTED,
    MOVE_SKIPPED,
    placement_fingerprint,
    plan_rebalance,
)
from repro.storage.restripe import (
    BlockMove,
    RestripePlan,
    estimate_restripe_time,
)
from repro.workloads.generator import ContinuousWorkload

#: Never loop a sim forever when a restripe regresses into not finishing.
SIM_CAP_S = 400.0


def mixed_generation_weights(config: TigerConfig):
    """Every cub's last local disk doubles its capacity weight."""
    return tuple(
        2 if disk // config.num_cubs == config.disks_per_cub - 1 else 1
        for disk in range(config.num_disks)
    )


def build_restripe_system(
    config=None, seed=7, journal=None, load=0.0, num_files=6,
    **attach_kwargs
):
    """System + attached (unstarted) restriper for the weighted plan."""
    system = TigerSystem(config or small_config(), seed=seed)
    files = system.add_standard_content(num_files=num_files, duration_s=120)
    weighted = system.layout.with_weights(
        mixed_generation_weights(system.config)
    )
    block_bytes = {
        entry.file_id: entry.content_bytes_per_block for entry in files
    }
    plan = plan_rebalance(system.layout, weighted, files, block_bytes)
    restriper = system.attach_restriper(
        plan, journal=journal, **attach_kwargs
    )
    if load > 0:
        workload = ContinuousWorkload(system)
        workload.add_streams(
            max(1, round(load * system.config.num_slots))
        )
    return system, restriper


def drive_to_completion(system, restriper):
    while not restriper.finished and system.sim.now < SIM_CAP_S:
        system.run_for(5.0)


def dedicated_estimate(system, plan):
    """Analytic lower bound: full disks and NICs, no viewers."""
    config = system.config
    block_bytes = config.block_bytes
    disk_rate = block_bytes / config.disk.expected_read_time(
        ZONE_OUTER, block_bytes
    )
    return estimate_restripe_time(
        plan, disk_rate, disk_rate, config.cub_nic_bps
    )


class TestCompletion:
    def test_all_moves_commit(self):
        system, restriper = build_restripe_system(throttle=0.5)
        system.sim.call_at(1.0, restriper.start)
        drive_to_completion(system, restriper)
        assert restriper.finished
        assert restriper.progress_ratio() == 1.0
        assert all(
            state == MOVE_COMMITTED for state in restriper.move_state
        )
        assert int(restriper.moves_committed.value()) == len(
            restriper.plan.moves
        )
        assert int(restriper.bytes_moved.value()) == (
            restriper.plan.total_bytes
        )
        assert restriper.journal.done_fingerprint == (
            restriper.result_fingerprint()
        )
        system.assert_invariants()

    def test_fingerprint_matches_full_commit_set(self):
        system, restriper = build_restripe_system(throttle=0.5)
        system.sim.call_at(1.0, restriper.start)
        drive_to_completion(system, restriper)
        expected = placement_fingerprint(
            restriper.plan, set(range(len(restriper.plan.moves)))
        )
        assert restriper.result_fingerprint() == expected

    def test_viewers_unharmed_under_load(self):
        system, restriper = build_restripe_system(throttle=0.25, load=0.5)
        system.sim.call_at(2.0, restriper.start)
        drive_to_completion(system, restriper)
        system.finalize_clients()
        assert restriper.finished
        assert system.total_client_missed() == 0
        system.assert_invariants()


class TestEstimateLowerBound:
    """Property: online completion time >= the analytic estimate."""

    @pytest.mark.parametrize("num_cubs", [4, 8])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_online_never_beats_dedicated_estimate(self, num_cubs, seed):
        config = small_config(num_cubs=num_cubs)
        system, restriper = build_restripe_system(
            config=config, seed=seed, throttle=0.5, load=0.5
        )
        system.sim.call_at(1.0, restriper.start)
        drive_to_completion(system, restriper)
        assert restriper.finished
        elapsed = restriper.finished_at - restriper.started_at
        assert elapsed >= dedicated_estimate(system, restriper.plan)


def test_online_restripe_time_flat_across_system_sizes():
    """The dynamic form of the §2.2 size-independence claim: with the
    catalog growing in step with the system (so every cub holds the
    same amount), an idle 16-cub restripe of ~4x the moves takes about
    as long as the 4-cub one."""
    elapsed = []
    for num_cubs in (4, 8, 16):
        system, restriper = build_restripe_system(
            config=small_config(num_cubs=num_cubs), num_files=2 * num_cubs,
            throttle=0.5,
        )
        system.sim.call_at(1.0, restriper.start)
        drive_to_completion(system, restriper)
        assert restriper.finished
        elapsed.append(restriper.finished_at - restriper.started_at)
    assert max(elapsed) < 1.6 * min(elapsed), elapsed


class TestCrossCubCopy:
    """There is none: a block's schedule slot is anchored to its cub, so
    ``plan_rebalance`` keeps every move inside one cub and the restriper
    refuses a plan that does not, as it refuses a disk outside the
    running system.  A copy is staged on the cub that owns both disks."""

    def system_and_file(self):
        system = TigerSystem(small_config(), seed=7)
        entry = system.add_standard_content(num_files=2, duration_s=60)[0]
        return system, system.layout, entry

    def test_a_cross_cub_move_is_refused_at_construction(self):
        system, layout, entry = self.system_and_file()
        src = layout.disk_of_block(entry.start_disk, 1)
        # Same geometry, the next cub over.
        plan = RestripePlan(layout, layout, [
            BlockMove(entry.file_id, 1, src, (src + 1) % layout.num_disks,
                      entry.content_bytes_per_block),
        ])
        with pytest.raises(ValueError, match="crosses cubs"):
            system.attach_restriper(plan, throttle=0.5)
        assert system.restriper is None

    def test_reboot_drops_the_staged_copy(self):
        """An acknowledged copy waits, staged, for its commit; a crash in
        between drops it (the restriper's retry re-creates it), while a
        committed migration is on-disk metadata and survives one."""
        system, layout, entry = self.system_and_file()
        moves = []
        for block in (0, layout.num_cubs):  # two blocks of one cub
            src = layout.disk_of_block(entry.start_disk, block)
            moves.append(BlockMove(
                entry.file_id, block, src,
                (src + layout.num_cubs) % layout.num_disks,
                entry.content_bytes_per_block,
            ))
        restriper = system.attach_restriper(
            RestripePlan(layout, layout, moves), throttle=0.5
        )
        system.sim.call_at(1.0, restriper.start)
        cub = system.cubs[layout.cub_of_disk(moves[0].src_disk)]
        staged = cub.handlers[RestripeCommit].__self__.staged  # the service's
        migrations = cub.block_index.migrations
        system.start()
        # Move 0 committed, move 1 written and acknowledged, not committed.
        while not (staged and migrations):
            assert system.sim.now < 20.0 and system.sim.step()
        assert list(staged) == [1]
        system.fail_cub(cub.cub_id)
        system.run_for(1.0)
        system.recover_cub(cub.cub_id)
        assert staged == {}
        assert list(migrations) == [(entry.file_id, 0)]


class TestDualPresence:
    """A committed migration is where its block is read from — until the
    disk it moved to fails: the original copy was never dropped, so the
    read goes back to it and the block still arrives on time."""

    BLOCK = 2

    def committed_move(self):
        system = TigerSystem(small_config(), seed=7)
        layout = system.layout
        entry = system.add_standard_content(num_files=2, duration_s=60)[0]
        src = layout.disk_of_block(entry.start_disk, self.BLOCK)
        dst = (src + layout.num_cubs) % layout.num_disks  # same cub
        restriper = system.attach_restriper(RestripePlan(layout, layout, [
            BlockMove(entry.file_id, self.BLOCK, src, dst,
                      entry.content_bytes_per_block),
        ]), throttle=0.5)
        system.sim.call_at(1.0, restriper.start)
        drive_to_completion(system, restriper)
        system.run_for(1.0)  # the commit reaches the cub
        assert restriper.moves_committed.value() == 1
        return system, entry, src, dst

    def moved_block_read(self, system, entry, src, first_block=BLOCK - 1):
        """Play the file from ``first_block``: by default the block
        before the moved one, so the moved block rides a viewer state;
        from the moved block itself, it is the insert's first block.  The
        disks its cub's primary reads went to, and the play's monitor."""
        reads = []
        cub = system.cubs[system.layout.cub_of_disk(src)]
        for disk_id, disk in cub.disks.items():
            def read(size, zone, *rest, _id=disk_id, _read=disk.read):
                if zone == ZONE_OUTER:
                    reads.append(_id)
                return _read(size, zone, *rest)
            disk.read = read
        client = system.add_client()
        instance = client.start_stream(entry.file_id, first_block=first_block)
        system.run_for(8.0)
        return reads, client.streams[instance]

    def test_a_committed_migration_is_read_from_its_new_disk(self):
        system, entry, src, dst = self.committed_move()
        reads, monitor = self.moved_block_read(system, entry, src)
        assert reads[:1] == [dst]
        assert monitor.blocks_received >= 2
        assert (monitor.blocks_late, monitor.blocks_missed) == (0, 0)

    def test_a_failed_new_disk_sends_the_read_back_to_the_original(self):
        system, entry, src, dst = self.committed_move()
        system.fail_disk(dst)
        reads, monitor = self.moved_block_read(system, entry, src)
        assert reads[:1] == [src]
        assert monitor.blocks_received >= 2
        assert (monitor.blocks_late, monitor.blocks_missed) == (0, 0)

    def test_a_play_inserted_on_the_moved_block_reads_its_new_disk(self):
        system, entry, src, dst = self.committed_move()
        reads, monitor = self.moved_block_read(
            system, entry, src, first_block=self.BLOCK
        )
        assert reads[:1] == [dst]
        assert monitor.blocks_received >= 2
        assert (monitor.blocks_late, monitor.blocks_missed) == (0, 0)

    def test_an_insert_reads_the_moved_block_past_a_failed_original(self):
        """Dual presence the other way round: the original disk has
        failed, the migrated copy is up, so the insert's first block is
        read from the new disk, not sent to the mirrors."""
        system, entry, src, dst = self.committed_move()
        system.fail_disk(src)
        system.tracer.enable("mirror.cover")
        reads, monitor = self.moved_block_read(
            system, entry, src, first_block=self.BLOCK
        )
        assert reads[:1] == [dst]
        covered = [record.fields["block"] for record in system.tracer.records]
        assert self.BLOCK not in covered
        assert monitor.blocks_received >= 2
        assert (monitor.blocks_late, monitor.blocks_missed) == (0, 0)


class TestCrashResume:
    def test_resume_converges_bit_identically(self, tmp_path):
        path = str(tmp_path / "restripe.jsonl")

        # Undisturbed reference run (in-memory journal).
        reference_system, reference = build_restripe_system(throttle=0.5)
        reference_system.sim.call_at(1.0, reference.start)
        drive_to_completion(reference_system, reference)
        assert reference.finished

        # Run 1: journaled, killed (discarded) mid-restripe.
        system, restriper = build_restripe_system(
            journal=MoveJournal.load(path), throttle=0.5
        )
        system.sim.call_at(1.0, restriper.start)
        system.run_for(6.0)
        first_committed = set(restriper.journal.committed)
        assert not restriper.finished
        assert 0 < len(first_committed) < len(restriper.plan.moves)

        # Run 2: fresh process, journal reloaded from disk.
        resumed_system, resumed = build_restripe_system(
            journal=MoveJournal.load(path), throttle=0.5
        )
        skipped = [
            move_id
            for move_id, state in enumerate(resumed.move_state)
            if state == MOVE_SKIPPED
        ]
        assert set(skipped) == first_committed
        resumed_system.sim.call_at(1.0, resumed.start)
        drive_to_completion(resumed_system, resumed)
        assert resumed.finished

        # Zero duplicated moves: the resumed run commits exactly the
        # complement (the journal raises on any double commit anyway).
        second_committed = {
            move_id
            for move_id, state in enumerate(resumed.move_state)
            if state == MOVE_COMMITTED
        }
        assert not (first_committed & second_committed)
        assert first_committed | second_committed == set(
            range(len(resumed.plan.moves))
        )
        assert int(resumed.moves_skipped.value()) == len(first_committed)

        # Bit-identical final placement.
        assert resumed.result_fingerprint() == (
            reference.result_fingerprint()
        )
        assert MoveJournal.load(path).done_fingerprint == (
            reference.result_fingerprint()
        )


class TestOperatorControls:
    def test_pause_stops_commits_resume_continues(self):
        system, restriper = build_restripe_system(throttle=0.5)
        system.sim.call_at(1.0, restriper.start)
        system.run_for(5.0)
        restriper.pause()
        in_flight_drain = restriper.in_flight()
        at_pause = int(restriper.moves_committed.value())
        system.run_for(10.0)
        # Only already-launched copies may land during the pause.
        paused_delta = int(restriper.moves_committed.value()) - at_pause
        assert paused_delta <= in_flight_drain
        restriper.resume()
        drive_to_completion(system, restriper)
        assert restriper.finished

    def test_abort_is_permanent_and_journaled(self):
        system, restriper = build_restripe_system(throttle=0.5)
        system.sim.call_at(1.0, restriper.start)
        system.run_for(5.0)
        restriper.abort("operator abort")
        at_abort = int(restriper.moves_committed.value())
        restriper.resume()  # must be a no-op after abort
        system.run_for(10.0)
        assert restriper.aborted
        assert not restriper.finished
        assert int(restriper.moves_committed.value()) == at_abort
        assert restriper.journal.aborted
        # Dual presence: unmoved blocks still serve from their source.
        system.assert_invariants()


class TestRetrySuspend:
    def test_dead_cub_suspends_then_recovery_resumes(self):
        system, restriper = build_restripe_system(
            throttle=0.5, ack_timeout=1.0, retry_base=0.25,
            suspend_after=3,
        )
        system.sim.call_at(1.0, restriper.start)
        system.sim.call_at(2.0, system.fail_cub, 1)
        system.run_for(12.0)
        assert restriper.suspended
        assert int(restriper.retries.value()) >= 3
        assert int(restriper.suspensions.value()) == 1
        # Repairing the cub is the event the suspension waits for.
        system.recover_cub(1)
        assert not restriper.suspended
        drive_to_completion(system, restriper)
        assert restriper.finished
        assert int(restriper.moves_committed.value()) == len(
            restriper.plan.moves
        )


class TestChaosRestripeDrill:
    def test_cub_kill_mid_restripe_survives(self):
        from repro.faults.harness import ChaosHarness
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(name="restripe-kill")
        plan.crash_cub(1, at=10.0, restart_after=8.0)
        config = small_config()
        harness = ChaosHarness(
            config, plan, seed=3, load=0.5, duration=60.0,
            restripe_weights=mixed_generation_weights(config),
            restripe_throttle=0.5, restripe_start=5.0,
        )
        report = harness.run()  # raises on any invariant violation
        restriper = harness.system.restriper
        assert restriper.finished
        assert report.totals["restripe_committed"] == len(
            restriper.plan.moves
        )
        # Copies in flight at the kill instant must have timed out and
        # been re-issued once the cub came back.
        assert report.totals["restripe_retries"] >= 1

    def test_pause_window_and_abort_faults(self):
        from repro.faults.harness import ChaosHarness
        from repro.faults.plan import FaultPlan

        plan = FaultPlan(name="restripe-ops")
        plan.pause_restripe(8.0, duration=5.0)
        plan.abort_restripe(20.0, reason="drill")
        config = small_config()
        harness = ChaosHarness(
            config, plan, seed=3, load=0.5, duration=40.0,
            restripe_weights=mixed_generation_weights(config),
            restripe_throttle=0.5, restripe_start=5.0,
        )
        report = harness.run()
        restriper = harness.system.restriper
        assert restriper.aborted
        assert not restriper.finished
        assert restriper.journal.aborted
        committed = report.totals["restripe_committed"]
        assert 0 < committed < len(restriper.plan.moves)


class TestRestripePresenceInvariant:
    def test_monitor_clean_during_restripe(self):
        system, restriper = build_restripe_system(throttle=0.5, load=0.25)
        monitor = InvariantMonitor(system, period=1.0)
        system.sim.call_at(1.0, restriper.start)
        monitor.install()
        # check_now raises InvariantViolation on any dual-presence break.
        drive_to_completion(system, restriper)
        monitor.final_check()
        assert restriper.finished
        assert monitor.checks_run > 0

    def test_foreign_disk_migration_flagged(self):
        import dataclasses

        system, restriper = build_restripe_system(throttle=0.5)
        monitor = InvariantMonitor(system, period=1.0)
        cub = system.cubs[0]
        foreign_disk = next(
            disk
            for disk in range(system.config.num_disks)
            if disk not in cub.disks
        )
        location = next(
            cub.block_index.lookup_primary(file_id, block)
            for file_id in range(6)
            for block in range(8)
            if cub.block_index.lookup_primary(file_id, block) is not None
        )
        cub.block_index.migrations[(0, 0)] = dataclasses.replace(
            location, disk_id=foreign_disk
        )
        with pytest.raises(InvariantViolation, match="restripe-presence"):
            monitor.check_now()
