"""Integration tests for stop-play / deschedule (§4.1.2)."""

from repro.core.viewerstate import MirrorViewerState, ViewerState


class TestStopPlaying:
    def test_stop_mid_play_halts_delivery(self, small_system):
        client = small_system.add_client()
        instance = client.start_stream(file_id=0)
        small_system.run_for(10.0)
        received_before = client.streams[instance].blocks_received
        client.stop_stream(instance)
        small_system.run_for(15.0)
        received_after = client.streams[instance].blocks_received
        # At most a couple of in-flight blocks after the stop.
        assert received_after - received_before <= 3

    def test_stop_frees_slot_in_oracle(self, small_system):
        client = small_system.add_client()
        instance = client.start_stream(file_id=0)
        small_system.run_for(8.0)
        assert small_system.oracle.num_occupied == 1
        client.stop_stream(instance)
        small_system.run_for(5.0)
        assert small_system.oracle.num_occupied == 0

    def test_freed_slot_reusable(self, small_system):
        client = small_system.add_client()
        capacity = small_system.config.num_slots
        instances = [
            client.start_stream(file_id=index % 6) for index in range(capacity)
        ]
        small_system.run_for(15.0)
        assert small_system.oracle.num_occupied == capacity
        client.stop_stream(instances[0])
        small_system.run_for(5.0)
        newcomer = client.start_stream(file_id=1)
        small_system.run_for(15.0)
        assert client.streams[newcomer].startup_latency is not None
        small_system.assert_invariants()

    def test_stop_before_scheduled_cancels_queue(self, small_system):
        """Stopping a viewer still waiting in a cub queue withdraws it."""
        client = small_system.add_client()
        capacity = small_system.config.num_slots
        for index in range(capacity):
            client.start_stream(file_id=index % 6)
        small_system.run_for(12.0)
        waiting = client.start_stream(file_id=0)  # queues: schedule full
        small_system.run_for(1.0)
        client.stop_stream(waiting)
        small_system.run_for(5.0)
        assert sum(cub.owner.queued() for cub in small_system.cubs) == 0
        assert client.streams[waiting].blocks_received == 0

    def test_stop_is_idempotent(self, small_system):
        client = small_system.add_client()
        instance = client.start_stream(file_id=0)
        small_system.run_for(8.0)
        client.stop_stream(instance)
        client.stop_stream(instance)
        small_system.run_for(5.0)
        assert small_system.oracle.num_occupied == 0
        small_system.assert_invariants()

    def test_deschedule_does_not_kill_restarted_play(self, small_system):
        """A new instance of the same viewer in the same slot must not
        be removed by the old instance's deschedule — the 'instance'
        semantics of §4.1.2."""
        client = small_system.add_client()
        first = client.start_stream(file_id=0)
        small_system.run_for(8.0)
        client.stop_stream(first)
        second = client.start_stream(file_id=1)
        small_system.run_for(20.0)
        monitor = client.streams[second]
        assert monitor.blocks_received >= 10
        assert monitor.blocks_missed == 0

    def test_tombstones_do_not_leak(self, small_system):
        client = small_system.add_client()
        for round_index in range(6):
            instance = client.start_stream(file_id=round_index % 6)
            small_system.run_for(4.0)
            client.stop_stream(instance)
        small_system.run_for(30.0)
        for cub in small_system.cubs:
            assert cub.view.size() < 120

    def test_server_stops_spending_resources(self, small_system):
        """After a deschedule propagates, cubs stop reading/sending."""
        client = small_system.add_client()
        instance = client.start_stream(file_id=0)
        small_system.run_for(10.0)
        client.stop_stream(instance)
        small_system.run_for(6.0)
        sent_at_stop = small_system.total_blocks_sent()
        small_system.run_for(20.0)
        assert small_system.total_blocks_sent() == sent_at_stop


def _service_totals(system):
    """(disk reads completed, primary blocks sent, mirror pieces sent)."""
    return (
        sum(
            disk.reads_completed.count
            for cub in system.cubs
            for disk in cub.disks.values()
        ),
        system.total_blocks_sent(),
        system.total_mirror_pieces_sent(),
    )


def _unissued_reads(system, instance, record_type):
    """Reads for ``instance`` still waiting in a cub's pending table."""
    return [
        (cub.cub_id, when)
        for cub in system.living_cubs()
        for when, kind, state in cub.pending_service_records()
        if kind == "read"
        and type(state) is record_type
        and state.instance == instance
    ]


class TestCancellationByTombstone:
    """Pending service is never cancelled record by record: a deschedule
    that lands between a state's acceptance and its read-issue time
    leaves the records in the pending table, and the tombstone stops
    them when they fire — no read issued, no block or piece sent.  The
    totals are the ones the per-handle cancellation this replaced gave
    for the same seed (taken on the last commit that had it)."""

    def _stop_one_play(self, system):
        client = system.add_client()
        instance = client.start_stream(file_id=0)
        system.run_for(10.3)
        client.stop_stream(instance)
        system.run_for(0.5)  # the deschedule floods the ring
        return instance

    def _assert_service_stopped(self, system, expected):
        at_stop = _service_totals(system)
        system.run_for(20.0)
        assert _service_totals(system) == at_stop == expected
        for cub in system.living_cubs():
            assert not list(cub.pending_service_records())
        system.assert_invariants()

    def test_primary_path(self, small_system):
        instance = self._stop_one_play(small_system)
        # States arrive up to max_vstate_lead ahead, reads are issued
        # disk_read_lead ahead: most accepted states are still unread.
        assert len(_unissued_reads(small_system, instance, ViewerState)) >= 4
        self._assert_service_stopped(small_system, (11, 10, 0))

    def test_mirror_path(self, small_system):
        small_system.fail_cub(1)
        small_system.run_for(10.0)  # the deadman settles
        instance = self._stop_one_play(small_system)
        assert _unissued_reads(small_system, instance, MirrorViewerState)
        self._assert_service_stopped(small_system, (14, 7, 6))

    def test_after_fail_and_recover(self, small_system):
        small_system.run_for(2.0)
        small_system.fail_cub(1)
        small_system.run_for(10.0)
        small_system.recover_cub(1)
        small_system.run_for(10.0)
        instance = self._stop_one_play(small_system)
        rebooted = [
            when
            for cub_id, when in _unissued_reads(
                small_system, instance, ViewerState
            )
            if cub_id == 1
        ]
        assert rebooted, "the rebooted cub is serving the play again"
        self._assert_service_stopped(small_system, (11, 10, 0))

    def test_power_off_cancels_pending_drains(self, small_system):
        """fail() cancels the bucket drains (they are not process
        timers), recover() drops the buckets: nothing accepted before
        the crash is served after it."""
        client = small_system.add_client()
        client.start_stream(file_id=0)
        small_system.run_for(10.3)
        cub = small_system.cubs[1]
        pending = list(cub.pending_service_records())
        assert pending
        small_system.fail_cub(1)
        sent = cub.blocks_sent.value()
        small_system.run_for(3.0)
        # A drain that fired would have popped its bucket and issued
        # its reads: every record is still there, none was acted on.
        assert list(cub.pending_service_records()) == pending
        assert min(when for when, _kind, _state in pending) < small_system.sim.now
        small_system.recover_cub(1)
        assert not list(cub.pending_service_records())
        assert cub.blocks_sent.value() == sent

    def test_tombstone_outlives_service_accepted_beyond_the_hold(
        self, small_system
    ):
        """Bridging across dead cubs can accept a state further ahead
        than max_vstate_lead + deschedule_hold.  The tombstone's expiry
        covers the latest pending deadline, so even that service is
        still suppressed when it comes due."""
        config = small_system.config
        client = small_system.add_client()
        instance = client.start_stream(file_id=0)
        small_system.run_for(10.3)
        def sends(cub):
            return [
                state for _when, kind, state in cub.pending_service_records()
                if kind == "send" and state.instance == instance
            ]

        cub = next(cub for cub in small_system.cubs if sends(cub))
        state = max(sends(cub), key=lambda s: s.due_time)
        hops = 2 * config.num_cubs * config.disks_per_cub  # same disk again
        far = state.advanced(hops, config.num_disks, config.block_play_time)
        assert (
            far.due_time - small_system.sim.now
            > config.max_vstate_lead + config.deschedule_hold
        )
        cub._schedule_block_service(
            far, cub.disks[far.disk_id],
            cub.block_index.locate(far.file_id, far.block_index, cub.disks),
        )
        client.stop_stream(instance)
        small_system.run_for(0.5)
        at_stop = _service_totals(small_system)
        small_system.run_until(far.due_time - 1e-6)
        assert cub.view.has_tombstone(far.viewer_id, far.instance, far.slot)
        small_system.run_for(5.0)
        assert _service_totals(small_system) == at_stop
