"""Resource-accounting integration tests: NICs, index memory, cache of
derived capacity — the quantities §2-§3 budget against."""

import tracemalloc

import pytest

from repro import TigerSystem, paper_config, small_config
from repro.storage.blockindex import INDEX_ENTRY_BYTES


class TestNicBudgets:
    def test_cub_nic_utilization_matches_stream_share(self):
        """At N streams per cub of rate r, the NIC's serialization share
        is N*r/line_rate (§3.2's quantity)."""
        system = TigerSystem(small_config(), seed=71)
        system.add_standard_content(num_files=4, duration_s=120)
        client = system.add_client()
        for index in range(16):  # 4 streams/cub at 2 Mbit/s
            client.start_stream(file_id=index % 4)
        system.run_for(10.0)
        for cub in system.cubs:
            system.network.nic(cub.address).reset(system.sim.now)
        system.run_for(10.0)
        expected = 4 * 2e6 / system.config.cub_nic_bps
        for cub in system.cubs:
            measured = system.network.nic(cub.address).utilization(system.sim.now)
            assert measured == pytest.approx(expected, rel=0.3)

    def test_nic_never_oversubscribed_at_capacity(self):
        """The schedule's purpose: full load must not overrun any NIC."""
        system = TigerSystem(small_config(), seed=72)
        system.add_standard_content(num_files=4, duration_s=120)
        client = system.add_client()
        for index in range(system.config.num_slots):
            client.start_stream(file_id=index % 4)
        system.run_for(25.0)
        for cub in system.cubs:
            util = system.network.nic(cub.address).utilization(system.sim.now)
            assert util < 1.0

    def test_controller_nic_negligible(self):
        """The controller moves requests, not data (§2.1)."""
        system = TigerSystem(small_config(), seed=73)
        system.add_standard_content(num_files=4, duration_s=120)
        client = system.add_client()
        for index in range(16):
            client.start_stream(file_id=index % 4)
        system.run_for(15.0)
        util = system.network.nic("controller").utilization(system.sim.now)
        assert util < 0.01


class TestIndexMemory:
    def test_index_memory_matches_64bit_entry_model(self):
        """§4.1.1: in-memory metadata at 64 bits per entry.  Per cub:
        (blocks on its disks) primaries + decluster x as many pieces."""
        system = TigerSystem(small_config(), seed=74)
        entry = system.add_file("movie", duration_s=80)
        blocks_per_cub = {}
        for block in range(entry.num_blocks):
            cub = system.layout.cub_of_block(entry.start_disk, block)
            blocks_per_cub[cub] = blocks_per_cub.get(cub, 0) + 1
        for cub_id, index in enumerate(system.indexes):
            assert index.num_primary_entries == blocks_per_cub.get(cub_id, 0)
            expected_bytes = (
                index.num_primary_entries + index.num_secondary_entries
            ) * INDEX_ENTRY_BYTES
            assert index.memory_bytes() == expected_bytes

    def test_secondary_entries_are_decluster_fold(self):
        system = TigerSystem(small_config(), seed=75)
        system.add_file("movie", duration_s=80)
        total_primary = sum(ix.num_primary_entries for ix in system.indexes)
        total_secondary = sum(ix.num_secondary_entries for ix in system.indexes)
        assert total_secondary == total_primary * system.config.decluster

    def test_paper_scale_index_is_small(self):
        """A 56-disk Tiger holding an hour of content indexes in a few
        hundred KB of RAM — the paper's justification for keeping it
        in memory.  Measured, not only modelled: what indexing the file
        allocates stays within 3x of 64 bits per entry."""
        system = TigerSystem(paper_config(), seed=76)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system.add_file("one-hour-movie", duration_s=3600)
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        total = sum(index.memory_bytes() for index in system.indexes)
        assert total == 3600 * (1 + 4) * INDEX_ENTRY_BYTES
        assert total < 512 * 1024
        assert allocated <= 3 * total


class TestDerivedCapacity:
    def test_block_service_time_lengthened_to_fit(self):
        """§3.1: if the schedule is not an integral multiple of the
        service time, the service time is lengthened."""
        config = paper_config()
        raw_bst = config.block_play_time / config.streams_per_disk
        assert config.block_service_time >= raw_bst - 1e-12
        slots = config.schedule_duration / config.block_service_time
        assert slots == pytest.approx(round(slots))

    def test_capacity_scales_with_disks(self):
        base = paper_config()
        double = paper_config(disks_per_cub=8)
        assert double.num_slots == 2 * base.num_slots

    def test_storage_capacity_paper_figure(self):
        """"This 56 disk Tiger system is capable of storing slightly
        more than 64 hours of content at 2 Mbit/s."  Mirroring stores
        every bit twice (primary outer half + declustered secondary
        inner half), so usable content is half of each 2.5 GB disk:
        56 x 1.25e9 x 8 / 2e6 / 3600 = ~78 h raw, a little above the
        paper's 64 h once metadata/slack is taken — same order."""
        disk_bytes = 2.5e9
        hours = 56 * (disk_bytes / 2) * 8 / 2e6 / 3600
        assert 60 < hours < 90
