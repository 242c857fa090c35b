"""Tests for the file catalog and the per-cub block index."""

from types import SimpleNamespace

import pytest

from repro import paper_config, small_config
from repro.core.world import World
from repro.storage.blockindex import (
    INDEX_ENTRY_BYTES,
    BlockIndex,
    BlockLocation,
    PlacementTable,
)
from repro.storage.catalog import (
    MODE_MULTIPLE_BITRATE,
    MODE_SINGLE_BITRATE,
    Catalog,
    TigerFile,
)
from repro.storage.layout import StripeLayout
from repro.storage.mirror import MirrorScheme
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


def _table(decluster=2):
    """Two cubs of two disks: cub 0 holds disks 0 and 2, cub 1 disks 1
    and 3."""
    return PlacementTable(MirrorScheme(StripeLayout(2, 2), decluster))


class TestBlockIndex:
    def test_primary_in_outer_zone(self):
        table = _table()
        table.add_file(0, 0, 4, 250_000, 125_000)
        location = BlockIndex(table, 0).lookup_primary(0, 0)
        assert location.disk_id == 0 and location.zone == ZONE_OUTER

    def test_secondary_in_inner_zone(self):
        table = _table()
        table.add_file(0, 0, 4, 250_000, 125_000)
        # Piece 0 of block 0 (disk 0) is on the next disk, disk 1.
        location = BlockIndex(table, 1).lookup_secondary(0, 0, 0)
        assert location.disk_id == 1 and location.zone == ZONE_INNER

    def test_lookup_roundtrip(self):
        table = _table()
        table.add_file(3, 0, 18, 250_000, 125_000)
        index = BlockIndex(table, 1)  # block 17 is on disk 1
        location = index.lookup_primary(3, 17)
        assert location is not None and location.size_bytes == 250_000
        assert index.lookup_primary(3, 18) is None
        assert index.lookup_primary(3, -1) is None
        # Another cub's block is not in this cub's index.
        assert index.lookup_primary(3, 16) is None
        assert BlockIndex(table, 0).lookup_primary(3, 16).disk_id == 0

    def test_secondary_lookup_by_piece(self):
        table = _table()
        table.add_file(1, 0, 4, 250_000, 125_000)
        index = BlockIndex(table, 1)
        # Block 2 is on disk 2: piece 0 on disk 3 (cub 1), piece 1 on
        # disk 0 (cub 0).
        assert index.lookup_secondary(1, 2, 0).disk_id == 3
        assert index.lookup_secondary(1, 2, 1) is None
        assert BlockIndex(table, 0).lookup_secondary(1, 2, 1).disk_id == 0

    def test_one_placement_table_per_file(self):
        """An entry is two list slots and one packed offset, not an
        object: the records are interned, one per (disk, zone, size),
        and every cub's index reads the same table."""
        table = _table()
        table.add_file(3, 0, 18, 100, 50)
        table.add_file(4, 1, 18, 100, 50)
        cub0, cub1 = BlockIndex(table, 0), BlockIndex(table, 1)
        assert cub1.lookup_primary(4, 16).disk_id == 1
        assert cub0.lookup_secondary(3, 2, 1).disk_id == 0
        assert cub1.lookup_secondary(3, 0, 0).disk_id == 1
        assert cub0.lookup_secondary(3, 0, 0) is None
        assert cub0.lookup_secondary(5, 1, 0) is None
        # A piece past the decluster is no piece, not the next block's.
        assert cub1.lookup_secondary(3, 0, 2) is None
        assert cub1.lookup_secondary(3, 0, 256) is None
        assert cub1.lookup_secondary(3, 0, -1) is None
        placement = table.files[3]
        assert len(placement.primary) == 18 and len(placement.pieces) == 36
        assert placement.offsets.itemsize == INDEX_ENTRY_BYTES
        assert len(placement.offsets) == 18 * 3
        records = [
            location
            for placement in table.files.values()
            for location in placement.primary + placement.pieces
        ]
        assert len({id(location) for location in records}) == 4 + 4
        assert not hasattr(records[0], "__dict__")
        assert cub0._files is cub1._files is table.files
        counts = [
            (index.num_primary_entries, index.num_secondary_entries)
            for index in (cub0, cub1)
        ]
        assert counts == [(18, 36), (18, 36)]

    def test_duplicate_entries_rejected(self):
        table = _table()
        table.add_file(0, 0, 4, 100, 50)
        with pytest.raises(ValueError):
            table.add_file(0, 1, 4, 100, 50)

    def test_offsets_accumulate_per_disk(self):
        table = _table()
        table.add_file(0, 0, 6, 100, 50)
        table.add_file(1, 0, 1, 100, 50)
        index = BlockIndex(table, 0)
        # Disk 0 holds blocks 0 and 4 of file 0, then block 0 of file 1.
        assert index.offset_bytes(0, 0) == 0
        assert index.offset_bytes(0, 4) == 100
        assert index.offset_bytes(1, 0) == 200
        assert index.offset_bytes(0, 2) == 0  # disk 2
        assert index.offset_bytes(0, 1) is None  # cub 1's block
        # Disk 0's pieces go in block order: block 2's piece 1, then
        # block 3's piece 0.
        assert index.offset_bytes(0, 2, 1) == 0
        assert index.offset_bytes(0, 3, 0) == 50
        assert index.offset_bytes(0, 3, 1) is None  # on disk 1
        # Disk 1 holds three of file 0's pieces before file 1's.
        assert BlockIndex(table, 1).offset_bytes(1, 0, 0) == 150

    def test_memory_model_64_bit_entries(self):
        """The paper's in-memory metadata: 64 bits per entry."""
        table = _table()
        table.add_file(0, 0, 10, 100, 50)
        indexes = [BlockIndex(table, cub) for cub in (0, 1)]
        assert [index.memory_bytes() for index in indexes] == [
            15 * INDEX_ENTRY_BYTES,
            15 * INDEX_ENTRY_BYTES,
        ]

    def test_per_disk_usage_accounting(self):
        table = _table()
        table.add_file(0, 0, 5, 100, 30)
        index = BlockIndex(table, 0)
        # Disk 0: blocks 0 and 4; pieces of blocks 3 (piece 0) and 2
        # (piece 1).
        assert index.primary_bytes_on_disk(0) == 200
        assert index.secondary_bytes_on_disk(0) == 60
        assert index.primary_bytes_on_disk(2) == 100
        # Disk 1 is cub 1's.
        assert index.primary_bytes_on_disk(1) == 0
        assert index.secondary_bytes_on_disk(1) == 0
        # Disk 1: pieces of blocks 0 and 4 (piece 0) and 3 (piece 1).
        assert BlockIndex(table, 1).secondary_bytes_on_disk(1) == 90


@pytest.fixture(params=[paper_config, small_config], ids=["paper", "small"])
def world(request):
    """A world's content, no backend: three files of different lengths,
    start disks and rates."""
    world = World(request.param(), None, None, None, None, None)
    world.add_file("long", 90.0)
    world.add_file("last-disk", 33.5, start_disk=world.config.num_disks - 1)
    world.add_file("slow", 20.0, bitrate_bps=1e6)
    return world


class TestPlacementOracle:
    """Every cub's index against the placement arithmetic it is built
    from: ``StripeLayout.disk_of_block`` and
    ``MirrorScheme.piece_location``."""

    def test_every_lookup_matches_the_layout(self, world):
        layout, mirror = world.layout, world.mirror
        decluster = world.config.decluster
        checked = 0
        for entry in world.catalog.files():
            stored = entry.stored_bytes_per_block(
                MODE_SINGLE_BITRATE, world.config.max_bitrate_bps
            )
            piece_bytes = mirror.piece_size(stored)
            for block in range(entry.num_blocks):
                primary = layout.disk_of_block(entry.start_disk, block)
                pieces = [
                    mirror.piece_location(primary, piece)
                    for piece in range(decluster)
                ]
                for index in world.indexes:
                    found = index.lookup_primary(entry.file_id, block)
                    if layout.cub_of_disk(primary) == index.cub_id:
                        assert (found.disk_id, found.zone, found.size_bytes) == (
                            primary, ZONE_OUTER, stored)
                    else:
                        assert found is None
                    for piece, disk in enumerate(pieces):
                        found = index.lookup_secondary(
                            entry.file_id, block, piece
                        )
                        if layout.cub_of_disk(disk) == index.cub_id:
                            assert (found.disk_id, found.zone, found.size_bytes) == (
                                disk, ZONE_INNER, piece_bytes)
                        else:
                            assert found is None
                        checked += 1
        assert checked == decluster * world.config.num_cubs * sum(
            entry.num_blocks for entry in world.catalog.files()
        )

    def test_locate_follows_a_migration_while_its_disk_is_up(self, world):
        layout = world.layout
        entry = world.catalog.by_name("long")
        for block in range(world.config.num_disks):
            original_disk = layout.disk_of_block(entry.start_disk, block)
            cub_id = layout.cub_of_disk(original_disk)
            index = world.indexes[cub_id]
            original = index.lookup_primary(entry.file_id, block)
            own = layout.disks_of_cub(cub_id)
            moved = BlockLocation(
                own[(own.index(original_disk) + 1) % len(own)],
                ZONE_OUTER,
                original.size_bytes,
            )
            index.migrations[(entry.file_id, block)] = moved
            disks = {disk: SimpleNamespace(failed=False) for disk in own}
            assert index.locate(entry.file_id, block, disks) is moved
            # The file's other blocks still read where they were.
            later = block + world.config.num_disks
            assert index.locate(entry.file_id, later, disks) is (
                index.lookup_primary(entry.file_id, later))
            disks[moved.disk_id].failed = True
            assert index.locate(entry.file_id, block, disks) is original
            del disks[moved.disk_id]
            assert index.locate(entry.file_id, block, disks) is original
            for other in world.indexes:
                if other is not index:
                    assert other.locate(entry.file_id, block, disks) is None
            index.migrations.clear()
