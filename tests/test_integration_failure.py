"""Integration tests for fault tolerance (§2.3, §4.1.1)."""


from repro import TigerSystem, small_config
from repro.core.owner import COVERED, LOST
from repro.core.protocol import CONTROLLER_ADDRESS, PlayEnded, StartCommitted, StartRequest
from repro.workloads.generator import ContinuousWorkload


def build_loaded(seed=9, streams=12, duration=240.0):
    system = TigerSystem(small_config(), seed=seed)
    system.add_standard_content(num_files=6, duration_s=duration)
    client = system.add_client()
    for index in range(streams):
        client.start_stream(file_id=index % 6)
    system.run_for(15.0)
    return system, client


class TestCubFailure:
    def test_streams_continue_via_mirrors(self):
        system, client = build_loaded()
        system.fail_cub(1)
        system.run_for(40.0)
        system.finalize_clients()
        # Mirror pieces flow and streams keep advancing.
        assert system.total_mirror_pieces_sent() > 0
        for monitor in client.all_monitors():
            assert monitor.blocks_received > 30

    def test_losses_confined_to_detection_window(self):
        """After the deadman fires, mirror coverage stops the bleeding;
        the §5 reconfiguration measurement found an ~8 s loss window."""
        system, client = build_loaded()
        failure_time = system.sim.now
        system.fail_cub(1)
        system.run_for(60.0)
        system.finalize_clients()
        loss_times = sorted(
            when
            for monitor in client.all_monitors()
            for when in monitor.loss_times
        )
        assert loss_times, "a real failure loses some blocks"
        window = loss_times[-1] - loss_times[0]
        timeout = system.config.deadman_timeout
        assert window < timeout + 4.0
        assert loss_times[-1] < failure_time + timeout + 6.0

    def test_no_losses_after_coverage_established(self):
        system, client = build_loaded()
        system.fail_cub(1)
        system.run_for(20.0)  # detection + settling
        counted = {
            monitor.instance: monitor.blocks_missed
            for monitor in client.all_monitors()
        }
        system.run_for(30.0)
        system.finalize_clients()
        for monitor in client.all_monitors():
            assert monitor.blocks_missed == counted.get(monitor.instance, 0)

    def test_mirror_pieces_spread_over_covering_cubs(self):
        system, client = build_loaded()
        system.fail_cub(1)
        system.run_for(40.0)
        senders = [
            cub.cub_id
            for cub in system.cubs
            if cub.mirror_pieces_sent.count > 0
        ]
        expected = set(system.mirror.covering_cubs(1))
        assert set(senders) <= expected | {1}
        assert len(senders) >= 2

    def test_control_traffic_roughly_doubles_at_bridge(self):
        """§5: 'the control traffic in failed mode is roughly double
        that in non-failed mode' for a mirroring cub."""
        system, client = build_loaded(streams=16)
        bridge = system.cubs[2]  # successor of the cub we'll fail
        system.run_for(10.0)
        system.network.control_bytes_from[bridge.address].snapshot(system.sim.now)
        system.run_for(10.0)
        healthy_rate = system.network.control_bytes_from[bridge.address].snapshot(
            system.sim.now
        )
        system.fail_cub(1)
        system.run_for(20.0)  # past detection
        system.network.control_bytes_from[bridge.address].snapshot(system.sim.now)
        system.run_for(10.0)
        failed_rate = system.network.control_bytes_from[bridge.address].snapshot(
            system.sim.now
        )
        # Small config has decluster 2, so the bridge forwards only
        # one extra mirror state per passing chain (~+25-50%); the
        # paper's ~2x is measured at decluster 4 (see the Fig 9 bench).
        assert failed_rate > 1.15 * healthy_rate
        assert failed_rate < 4.0 * healthy_rate

    def test_new_starts_work_during_failure(self):
        system, client = build_loaded()
        system.fail_cub(1)
        system.run_for(12.0)  # let the deadman fire
        newcomer = client.start_stream(file_id=3)
        system.run_for(20.0)
        monitor = client.streams[newcomer]
        assert monitor.blocks_received > 5

    def test_start_targeted_at_dead_cub_covered_by_successor(self):
        """§4.1.3: the successor holds a redundant copy of the start
        request and acts on it when the primary target is dead."""
        system = TigerSystem(small_config(), seed=21)
        system.add_standard_content(num_files=6, duration_s=240)
        client = system.add_client()
        system.run_for(10.0)
        system.fail_cub(1)
        system.run_for(10.0)  # detection
        # File 1 starts on disk 1, which lives on dead cub 1.
        instance = client.start_stream(file_id=1)
        system.run_for(25.0)
        monitor = client.streams[instance]
        assert monitor.blocks_received > 5

    def test_a_covering_insert_commits_before_its_play_ends(self):
        """A one-block play inserted on a dead cub's disk is served by
        mirrors and ends inside its own insert: the controller must hear
        the commit first, or the slot audit books a play already over."""
        system = TigerSystem(small_config(), seed=21)
        system.add_standard_content(num_files=6, duration_s=240)
        client = system.add_client()
        system.run_for(10.0)
        system.fail_cub(1)
        system.run_for(10.0)  # detection
        told = []
        send = system.network.send

        def record(message):
            if message.dst == CONTROLLER_ADDRESS:
                told.append(type(message.payload))
            return send(message)

        system.network.send = record
        entry = next(
            entry for entry in system.catalog.files()
            if system.layout.cub_of_block(entry.start_disk, entry.num_blocks - 1) == 1
        )
        instance = client.start_stream(entry.file_id, first_block=entry.num_blocks - 1)
        system.run_for(10.0)
        assert client.streams[instance].finished
        assert [kind for kind in told if kind in (StartCommitted, PlayEnded)] == [
            StartCommitted, PlayEnded,
        ]
        assert system.oracle.num_occupied == 0

    def test_recovered_cub_rejoins(self):
        system, client = build_loaded()
        system.fail_cub(1)
        system.run_for(30.0)
        system.recover_cub(1)
        system.run_for(30.0)
        # The recovered cub serves blocks again.
        sent_before = system.cubs[1].blocks_sent.count
        system.run_for(20.0)
        assert system.cubs[1].blocks_sent.count > sent_before
        system.finalize_clients()
        system.assert_invariants()

    def test_rebooted_cub_takes_a_start_routed_to_it_again(self):
        """The crash lost the queued start, so the reboot must forget it
        was ever seen: the client's retry via the backup controller is
        then the only copy, not a duplicate to suppress."""
        system = TigerSystem(small_config(), seed=21)
        system.add_standard_content(num_files=6, duration_s=240)
        system.run_for(2.0)
        cub = system.cubs[1]
        request = StartRequest(
            "client:0#7", 7, file_id=1, first_block=0, target_disk=1,
            request_time=system.sim.now,
        )
        cub.handlers[StartRequest](request, "controller")
        assert cub.owner.queued() == 1
        system.fail_cub(1)
        system.recover_cub(1)  # inside the deadman timeout: nobody noticed
        assert cub.owner.queued() == 0
        cub.handlers[StartRequest](request, "backup-controller")
        assert cub.owner.queued() == 1

    def test_small_system_does_not_bridge_long_expired_states(self):
        """The redundant store is pruned whatever its size.  Left alone
        below 64 records it kept states a minute past due, and a
        neighbour's death "bridged" every one of them, each counting a
        minute of blocks as lost in failover (1,601 here, for 3 viewers
        and 5 blocks really missed)."""
        system, client = build_loaded(streams=3)
        system.run_for(45.0)
        config = system.config
        bpt = config.block_play_time
        # What prune keeps, plus the four pump ticks between prunes.
        retention = (
            config.deadman_timeout + 2.0 + 4 * config.forward_pump_interval
        )
        for cub in system.cubs:
            assert cub.owner._redundant_states
            for state in cub.owner._redundant_states.values():
                assert state.due_time >= system.sim.now - retention
        system.fail_cub(1)
        system.run_for(30.0)
        # Each viewer has at most `retention` of held states to bridge,
        # and a bridged state is at most that far behind.
        per_viewer = (retention / bpt + 1) ** 2
        assert 0 < system.total_failover_losses() <= 3 * per_viewer


class TestRebootInsideTheTimeout:
    def test_a_new_epoch_is_bridged_before_the_cub_is_believed_alive(self):
        """Cub 1 is down half a second, far inside the deadman timeout.
        Cub 2, its first living successor, hears the new boot epoch and
        bridges every state it holds for cub 1's disks while it still
        believes cub 1 dead — after the belief flips back, ``adopts``
        is false and those chains would die in the held store."""
        system, client = build_loaded()
        cub = system.cubs[2]
        dead_disks = set(system.layout.disks_of_cub(1))
        events = []
        owner = cub.owner
        membership = owner.membership

        def recording_membership(now, cub_id, alive):
            events.append(("alive" if alive else "dead", cub_id))
            records, disks = membership(now, cub_id, alive)

            def bridges():
                # Checked as the cub carries each record out.
                for verb, state in records:
                    if verb in (COVERED, LOST) and state.disk_id in dead_disks:
                        events.append(("bridge", owner.deadman.adopts(1)))
                    yield verb, state

            return bridges(), disks

        owner.membership = recording_membership
        resurrections = cub.deadman_resurrections.count
        system.fail_cub(1)
        system.run_for(0.5)
        system.recover_cub(1)
        system.run_for(2.0)

        assert events[0] == ("dead", 1)
        alive_at = events.index(("alive", 1))
        bridged = events[1:alive_at]
        assert bridged and set(bridged) == {("bridge", True)}
        assert not cub.deadman.believes_failed(1)
        assert cub.deadman_resurrections.count == resurrections + 1
        system.run_for(20.0)
        for monitor in client.streams.values():
            assert monitor.blocks_received > 30
        system.finalize_clients()
        system.assert_invariants()


class TestDiskFailure:
    def test_single_disk_covered_without_deadman(self):
        """A live cub detects its own disk failure instantly and takes
        the mirror decision itself — losses should be minimal."""
        system, client = build_loaded()
        before = system.total_client_missed()
        system.fail_disk(1)  # one disk on cub 1
        system.run_for(40.0)
        system.finalize_clients()
        assert system.total_mirror_pieces_sent() > 0
        missed = system.total_client_missed() - before
        assert missed <= 4  # at most the blocks already past their read

    def test_other_disks_on_cub_still_serve(self):
        system, client = build_loaded()
        system.fail_disk(1)
        sent_before = system.cubs[1].blocks_sent.count
        system.run_for(20.0)
        assert system.cubs[1].blocks_sent.count > sent_before


    def test_a_drive_dying_mid_read_is_seen_at_the_due_time(self):
        """The drive dies between a block's read issue and its due time
        and nobody tells the cub (no ``on_local_disk_failed``): no event
        fires for the lost read, yet the send finds it errored — the
        drive settles its reads in flight when it dies — and counts the
        block missed.  So does every block already accepted for that
        drive, its read refused at issue; later states see the dead
        drive on arrival and go to the mirrors.  Same numbers as with a
        completion event per read."""
        system = TigerSystem(small_config(), seed=7)
        system.add_standard_content(num_files=6, duration_s=90)
        ContinuousWorkload(system).add_streams(system.config.num_slots // 2)
        system.run_for(15.0)
        cub, disk = next(
            (cub, disk)
            for cub in system.cubs
            for disk in cub.disks.values()
            if disk.queue_backlog > 0.0  # a read is in flight
        )
        completed = disk.reads_completed.count
        assert (cub.server_missed_blocks.value(), disk.reads_errored.count) == (0, 0)
        disk.fail()
        system.run_for(12.0)
        assert disk.reads_completed.count == completed == 31
        assert disk.reads_errored.count == 15
        assert cub.server_missed_blocks.value() == 15
        assert cub.mirror_covers.value() == 29
        assert system.total_client_missed() == 15


class TestSecondFailures:
    def test_adjacent_double_failure_loses_some_data_but_not_service(self):
        """§2.3: two consecutive failed cubs lose the overlapping mirror
        pieces, but Tiger 'will attempt to continue to send streams'."""
        system, client = build_loaded(duration=300.0)
        system.fail_cub(1)
        system.run_for(20.0)
        system.fail_cub(2)
        system.run_for(40.0)
        system.finalize_clients()
        lost_pieces = sum(
            cub.pieces_lost_to_second_failure.count for cub in system.cubs
        )
        assert lost_pieces > 0
        # Streams still make progress.
        for monitor in client.all_monitors():
            assert monitor.blocks_received > 40

    def test_distant_double_failure_no_data_loss(self):
        system, client = build_loaded(duration=300.0)
        system.fail_cub(0)
        system.run_for(20.0)
        system.fail_cub(2)  # decluster=2 but cubs 0 and 2 share no pieces?
        # In a 4-cub ring with decluster 2, cub 0's pieces live on cubs
        # 1 and 2 — so this IS a vulnerable pair; check the predicate
        # agrees with runtime behaviour instead.
        vulnerable = set(system.mirror.second_failure_vulnerable_cubs(0))
        system.run_for(40.0)
        lost_pieces = sum(
            cub.pieces_lost_to_second_failure.count for cub in system.cubs
        )
        assert (lost_pieces > 0) == (2 in vulnerable)
