"""Tests for the centralized baseline and the §3.3 scalability math."""

import pytest

from repro.config import small_config
from repro.core.centralized import (
    CentralizedController,
    CommandCub,
    central_control_rate,
    distributed_control_rate_per_cub,
    scalability_table,
)
from repro.core.slots import SlotClock
from repro.net.node import NetworkNode
from repro.net.switch import SwitchedNetwork
from repro.storage.catalog import Catalog
from repro.storage.layout import StripeLayout


class RecordingClient(NetworkNode):
    def __init__(self, sim, address):
        super().__init__(sim, address)
        self.blocks = []

    def handle_message(self, message):
        self.blocks.append((message.payload.play_seqno, self.sim.now))


def build_centralized(sim, rngs, config):
    layout = StripeLayout(config.num_cubs, config.disks_per_cub)
    clock = SlotClock(config.num_disks, config.num_slots, config.block_play_time)
    catalog = Catalog(config.block_play_time, config.num_disks)
    network = SwitchedNetwork(sim, rngs, base_latency=0.001, latency_jitter=0.0)
    cubs = [
        CommandCub(sim, index, config, catalog, network)
        for index in range(config.num_cubs)
    ]
    for cub in cubs:
        network.register(cub, config.cub_nic_bps)
    controller = CentralizedController(
        sim, config, layout, catalog, clock, network
    )
    network.register(controller, config.controller_nic_bps)
    return network, controller, cubs, catalog


class TestAnalyticModel:
    def test_paper_40k_stream_figure(self):
        """§3.3: 40,000 streams -> 3-4 Mbytes/s of controller traffic."""
        rate = central_control_rate(40_000, block_play_time=1.0)
        assert 3e6 <= rate <= 4.5e6

    def test_distributed_per_cub_rate_flat_in_system_size(self):
        """Per-cub control traffic is constant as the system grows at
        constant per-cub load — the crux of the design choice."""
        small = distributed_control_rate_per_cub(602, 14)
        huge = distributed_control_rate_per_cub(43_000, 1000)
        assert small == pytest.approx(huge, rel=0.01)

    def test_distributed_rate_matches_measured_magnitude(self):
        """The paper measured <21 KB/s per cub at 602 streams."""
        rate = distributed_control_rate_per_cub(602, 14)
        assert 5_000 < rate < 21_000

    def test_central_rate_crosses_distributed(self):
        """Central wins tiny, loses big: there is a crossover."""
        assert central_control_rate(50) < 21_000
        assert central_control_rate(40_000) > 21_000

    def test_scalability_table_rows(self):
        rows = scalability_table([14, 100, 1000])
        assert rows[0]["streams"] == 602
        assert rows[-1]["central_controller_Bps"] > 100 * rows[0][
            "central_controller_Bps"
        ] / 50
        per_cub = [row["distributed_per_cub_Bps"] for row in rows]
        assert max(per_cub) == pytest.approx(min(per_cub), rel=0.01)

    def test_negative_streams_rejected(self):
        with pytest.raises(ValueError):
            central_control_rate(-1)
        with pytest.raises(ValueError):
            distributed_control_rate_per_cub(10, 0)


class TestSimulatedBaseline:
    def test_end_to_end_delivery(self, sim, rngs):
        config = small_config()
        network, controller, cubs, catalog = build_centralized(sim, rngs, config)
        catalog.add_file("movie", 2e6, 20.0)
        client = RecordingClient(sim, "client:0")
        network.register(client, config.client_nic_bps)
        assert controller.start_viewer("client:0#1", 1, 0)
        sim.run(until=10.0)
        seqnos = [seqno for seqno, _ in client.blocks]
        assert seqnos == sorted(seqnos)
        assert len(seqnos) >= 5

    def test_blocks_paced_one_per_block_play_time(self, sim, rngs):
        config = small_config()
        network, controller, cubs, catalog = build_centralized(sim, rngs, config)
        catalog.add_file("movie", 2e6, 20.0)
        client = RecordingClient(sim, "client:0")
        network.register(client, config.client_nic_bps)
        controller.start_viewer("client:0#1", 1, 0)
        sim.run(until=12.0)
        times = [when for _, when in client.blocks]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap == pytest.approx(1.0, abs=0.05) for gap in gaps)

    def test_control_traffic_proportional_to_streams(self, sim, rngs):
        config = small_config()
        network, controller, cubs, catalog = build_centralized(sim, rngs, config)
        catalog.add_file("movie", 2e6, 60.0)
        client = RecordingClient(sim, "client:0")
        network.register(client, config.client_nic_bps)
        for index in range(10):
            controller.start_viewer(f"client:0#{index}", index, 0)
        sim.run(until=20.0)
        measured = controller.control_bytes_per_second()
        assert measured == pytest.approx(
            central_control_rate(10), rel=0.25
        )

    def test_schedule_full_rejects(self, sim, rngs):
        config = small_config()
        network, controller, cubs, catalog = build_centralized(sim, rngs, config)
        catalog.add_file("movie", 2e6, 60.0)
        client = RecordingClient(sim, "client:0")
        network.register(client, config.client_nic_bps)
        admitted = 0
        for index in range(config.num_slots + 5):
            if controller.start_viewer(f"client:0#{index}", index, 0):
                admitted += 1
        assert admitted == config.num_slots

    def test_stop_viewer_frees_slot(self, sim, rngs):
        config = small_config()
        network, controller, cubs, catalog = build_centralized(sim, rngs, config)
        catalog.add_file("movie", 2e6, 60.0)
        client = RecordingClient(sim, "client:0")
        network.register(client, config.client_nic_bps)
        controller.start_viewer("client:0#1", 1, 0)
        slot = controller.schedule.occupied_slots()[0]
        controller.stop_viewer(1, slot)
        assert controller.schedule.is_free(slot)
        before = controller.commands_sent
        sim.run(until=5.0)
        assert controller.commands_sent == before
