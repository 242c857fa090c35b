"""Tests for the file catalog and the per-cub block index."""

import pytest

from repro.storage.blockindex import INDEX_ENTRY_BYTES, BlockIndex
from repro.storage.catalog import (
    MODE_MULTIPLE_BITRATE,
    MODE_SINGLE_BITRATE,
    Catalog,
    TigerFile,
)
from repro.disk.zones import ZONE_INNER, ZONE_OUTER


@pytest.fixture
def catalog():
    return Catalog(block_play_time=1.0, num_disks=56)


class TestTigerFile:
    def test_num_blocks_covers_duration(self, catalog):
        entry = catalog.add_file("movie", 2e6, 100.0)
        assert entry.num_blocks == 100

    def test_partial_final_block(self, catalog):
        entry = catalog.add_file("short", 2e6, 10.5)
        assert entry.num_blocks == 11

    def test_content_bytes_per_block(self, catalog):
        entry = catalog.add_file("movie", 2e6, 100.0)
        assert entry.content_bytes_per_block == 250_000

    def test_single_bitrate_internal_fragmentation(self, catalog):
        """Slower files waste block space in a single-bitrate server."""
        entry = catalog.add_file("slow", 1e6, 100.0)
        stored = entry.stored_bytes_per_block(MODE_SINGLE_BITRATE, 2e6)
        assert stored == 250_000
        assert entry.internal_fragmentation(MODE_SINGLE_BITRATE, 2e6) == pytest.approx(0.5)

    def test_multiple_bitrate_no_fragmentation(self, catalog):
        entry = catalog.add_file("slow", 1e6, 100.0)
        assert entry.internal_fragmentation(MODE_MULTIPLE_BITRATE, 2e6) == 0.0

    def test_over_max_bitrate_rejected_in_single_mode(self, catalog):
        entry = catalog.add_file("fast", 4e6, 100.0)
        with pytest.raises(ValueError):
            entry.stored_bytes_per_block(MODE_SINGLE_BITRATE, 2e6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TigerFile(0, "x", -1.0, 10.0, 1.0, 0)
        with pytest.raises(ValueError):
            TigerFile(0, "x", 1e6, 0.0, 1.0, 0)


class TestCatalog:
    def test_round_robin_start_disks(self, catalog):
        first = catalog.add_file("a", 2e6, 10.0)
        second = catalog.add_file("b", 2e6, 10.0)
        assert first.start_disk == 0
        assert second.start_disk == 1

    def test_explicit_start_disk(self, catalog):
        entry = catalog.add_file("a", 2e6, 10.0, start_disk=30)
        assert entry.start_disk == 30

    def test_duplicate_name_rejected(self, catalog):
        catalog.add_file("a", 2e6, 10.0)
        with pytest.raises(ValueError):
            catalog.add_file("a", 2e6, 10.0)

    def test_lookup_by_id_and_name(self, catalog):
        entry = catalog.add_file("a", 2e6, 10.0)
        assert catalog.get(entry.file_id) is entry
        assert catalog.by_name("a") is entry

    def test_contains_and_len(self, catalog):
        catalog.add_file("a", 2e6, 10.0)
        assert "a" in catalog
        assert "b" not in catalog
        assert len(catalog) == 1

    def test_out_of_range_start_disk_rejected(self, catalog):
        with pytest.raises(ValueError):
            catalog.add_file("a", 2e6, 10.0, start_disk=56)


class TestBlockIndex:
    def test_primary_in_outer_zone(self):
        index = BlockIndex(0)
        location = index.add_primary(0, 0, 0, 250_000)
        assert location.zone == ZONE_OUTER

    def test_secondary_in_inner_zone(self):
        index = BlockIndex(0)
        location = index.add_secondary(0, 0, 0, 1, 62_500)
        assert location.zone == ZONE_INNER

    def test_lookup_roundtrip(self):
        index = BlockIndex(0)
        index.add_primary(3, 17, 0, 250_000)
        location = index.lookup_primary(3, 17)
        assert location is not None and location.size_bytes == 250_000
        assert index.lookup_primary(3, 18) is None

    def test_secondary_lookup_by_piece(self):
        index = BlockIndex(0)
        index.add_secondary(1, 2, 3, 5, 62_500)
        assert index.lookup_secondary(1, 2, 3) is not None
        assert index.lookup_secondary(1, 2, 0) is None

    def test_one_int_keyed_map_per_file(self):
        """No key tuple per entry, and no ``__dict__`` per location: a
        cub's index is the largest table it keeps."""
        index = BlockIndex(0)
        index.add_primary(3, 17, 0, 100)
        index.add_primary(4, 17, 1, 100)
        index.add_secondary(3, 1, 0, 4, 25)
        index.add_secondary(3, 0, 255, 5, 25)
        assert index.lookup_primary(4, 17).disk_id == 1
        assert index.lookup_secondary(3, 1, 0).disk_id == 4
        assert index.lookup_secondary(3, 0, 255).disk_id == 5
        assert index.lookup_secondary(3, 0, 0) is None
        assert index.lookup_secondary(5, 1, 0) is None
        # A piece that would reach into the next block's key is refused.
        with pytest.raises(ValueError):
            index.add_secondary(3, 0, 256, 5, 25)
        assert (index.num_primary_entries, index.num_secondary_entries) == (2, 2)
        for table in (index._primary, index._secondary):
            assert {type(key) for entries in table.values() for key in entries} == {int}
        assert not hasattr(index.lookup_primary(3, 17), "__dict__")

    def test_duplicate_entries_rejected(self):
        index = BlockIndex(0)
        index.add_primary(0, 0, 0, 100)
        with pytest.raises(ValueError):
            index.add_primary(0, 0, 0, 100)
        index.add_secondary(0, 0, 0, 1, 25)
        with pytest.raises(ValueError):
            index.add_secondary(0, 0, 0, 1, 25)

    def test_offsets_accumulate_per_disk(self):
        index = BlockIndex(0)
        first = index.add_primary(0, 0, 0, 100)
        second = index.add_primary(0, 1, 0, 100)
        other_disk = index.add_primary(0, 2, 14, 100)
        assert first.offset_bytes == 0
        assert second.offset_bytes == 100
        assert other_disk.offset_bytes == 0

    def test_memory_model_64_bit_entries(self):
        """The paper's in-memory metadata: 64 bits per entry."""
        index = BlockIndex(0)
        for block in range(10):
            index.add_primary(0, block, 0, 100)
        for block in range(5):
            index.add_secondary(0, block, 0, 1, 25)
        assert index.memory_bytes() == 15 * INDEX_ENTRY_BYTES

    def test_per_disk_usage_accounting(self):
        index = BlockIndex(0)
        index.add_primary(0, 0, 0, 100)
        index.add_secondary(0, 5, 1, 0, 30)
        assert index.primary_bytes_on_disk(0) == 100
        assert index.secondary_bytes_on_disk(0) == 30
