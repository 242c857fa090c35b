"""End-to-end playback through the full distributed system."""

import pytest

from repro import TigerSystem, small_config
from repro.core.protocol import BlockData


class TestSingleStream:
    def test_all_blocks_delivered_in_order(self, small_system):
        client = small_system.add_client()
        instance = client.start_stream(file_id=0)
        small_system.run_for(95.0)  # file is 90 s long
        monitor = client.streams[instance]
        assert monitor.finished
        assert monitor.blocks_received == monitor.num_blocks
        assert monitor.blocks_missed == 0
        assert monitor.blocks_late == 0

    def test_blocks_arrive_one_per_block_play_time(self, small_system):
        from repro.core.protocol import BlockData

        client = small_system.add_client()
        arrivals = []
        original = client.handle_message

        def spy(message):
            if isinstance(message.payload, BlockData):
                arrivals.append(small_system.sim.now)
            original(message)

        client.handle_message = spy
        client.start_stream(file_id=0)
        small_system.run_for(20.0)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(gap == pytest.approx(1.0, abs=0.05) for gap in gaps)

    def test_startup_latency_floor(self, small_system):
        """§5/Figure 10: the floor is about one block play time of
        transmission plus scheduling lead and network latency."""
        client = small_system.add_client()
        instance = client.start_stream(file_id=0)
        small_system.run_for(8.0)
        latency = client.streams[instance].startup_latency
        config = small_system.config
        assert latency is not None
        assert latency >= config.block_play_time  # transmission alone
        assert latency < config.block_play_time + config.scheduling_lead + 1.5

    def test_blocks_come_from_consecutive_cubs(self, small_system):
        """The lockstep striping property, observed at the wire."""
        sources = []
        small_system.network.add_delivery_hook(
            BlockData, lambda message, when: sources.append(message.src)
        )
        client = small_system.add_client()
        client.start_stream(file_id=0)
        small_system.run_for(12.0)
        cub_ids = [int(src.split(":")[1]) for src in sources]
        for first, second in zip(cub_ids, cub_ids[1:]):
            assert second == (first + 1) % small_system.config.num_cubs

    def test_mid_file_start(self, small_system):
        client = small_system.add_client()
        instance = client.start_stream(file_id=0, first_block=50)
        small_system.run_for(45.0)
        monitor = client.streams[instance]
        assert monitor.finished
        assert monitor.blocks_received == monitor.num_blocks - 50


class TestManyStreams:
    def test_full_capacity_no_losses(self, small_system):
        clients = small_system.add_clients(2)
        capacity = small_system.config.num_slots
        for index in range(capacity):
            clients[index % 2].start_stream(file_id=index % 6)
        small_system.run_for(45.0)
        small_system.finalize_clients()
        assert small_system.oracle.num_occupied == capacity
        assert small_system.total_client_missed() == 0
        assert small_system.total_client_late() == 0
        small_system.assert_invariants()

    def test_over_capacity_queues_rather_than_conflicts(self, small_system):
        client = small_system.add_client()
        capacity = small_system.config.num_slots
        for index in range(capacity + 6):
            client.start_stream(file_id=index % 6)
        small_system.run_for(30.0)
        # Exactly capacity admitted; the rest wait (no double booking —
        # the oracle would have raised).
        assert small_system.oracle.num_occupied == capacity
        queued = sum(cub.owner.queued() for cub in small_system.cubs)
        assert queued == 6

    def test_queued_viewers_admitted_after_eof(self):
        system = TigerSystem(small_config(), seed=3)
        system.add_standard_content(num_files=4, duration_s=30)
        client = system.add_client()
        capacity = system.config.num_slots
        for index in range(capacity + 4):
            client.start_stream(file_id=index % 4)
        system.run_for(70.0)  # first wave EOFs at ~31 s
        admitted = sum(
            1 for monitor in client.all_monitors() if monitor.startup_latency is not None
        )
        assert admitted == capacity + 4

    def test_same_file_all_viewers(self, small_system):
        """Striping spreads a single hot file across all components."""
        client = small_system.add_client()
        for _ in range(12):
            client.start_stream(file_id=0)
        small_system.run_for(25.0)
        utils = [cub.mean_disk_utilization() for cub in small_system.cubs]
        assert max(utils) < 3 * (sum(utils) / len(utils) + 1e-9)

    def test_eof_frees_slots(self):
        system = TigerSystem(small_config(), seed=5)
        system.add_standard_content(num_files=4, duration_s=20)
        client = system.add_client()
        for index in range(8):
            client.start_stream(file_id=index % 4)
        system.run_for(50.0)
        assert system.oracle.num_occupied == 0

    def test_view_sizes_stay_bounded_under_load(self, small_system):
        client = small_system.add_client()
        for index in range(20):
            client.start_stream(file_id=index % 6)
        small_system.run_for(60.0)
        for cub in small_system.cubs:
            assert cub.view.size() < 600
