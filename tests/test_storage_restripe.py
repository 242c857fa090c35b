"""Tests for restriping (paper §2.2)."""

import pytest

from repro import TigerSystem, paper_config, small_config
from repro.storage.catalog import Catalog
from repro.storage.layout import StripeLayout
from repro.storage.restripe import (
    BlockMove,
    RestripePlan,
    estimate_restripe_time,
    plan_restripe,
)
from repro.storage.rebalance import plan_rebalance


def build_catalog(num_disks, files=4, duration=50.0):
    catalog = Catalog(block_play_time=1.0, num_disks=num_disks)
    for index in range(files):
        catalog.add_file(f"f{index}", 2e6, duration)
    return catalog


def block_sizes(catalog, size=250_000):
    return {entry.file_id: size for entry in catalog.files()}


class TestPlan:
    def test_identity_restripe_moves_nothing(self):
        layout = StripeLayout(4, 2)
        catalog = build_catalog(layout.num_disks)
        plan = plan_restripe(layout, layout, catalog.files(), block_sizes(catalog))
        assert plan.total_bytes == 0

    def test_growth_moves_blocks(self):
        old = StripeLayout(4, 2)
        new = StripeLayout(5, 2)
        catalog = build_catalog(old.num_disks)
        plan = plan_restripe(old, new, catalog.files(), block_sizes(catalog))
        assert plan.total_bytes > 0

    def test_moves_land_on_new_layout_positions(self):
        old = StripeLayout(4, 2)
        new = StripeLayout(5, 2)
        catalog = build_catalog(old.num_disks, files=2)
        plan = plan_restripe(old, new, catalog.files(), block_sizes(catalog))
        for move in plan.moves:
            entry = catalog.get(move.file_id)
            assert move.dst_disk == new.disk_of_block(
                entry.start_disk % new.num_disks, move.block_index
            )
            assert move.src_disk == old.disk_of_block(
                entry.start_disk, move.block_index
            )

    def test_unmoved_blocks_not_in_plan(self):
        old = StripeLayout(4, 2)
        new = StripeLayout(5, 2)
        catalog = build_catalog(old.num_disks, files=1)
        plan = plan_restripe(old, new, catalog.files(), block_sizes(catalog))
        planned = {(move.file_id, move.block_index) for move in plan.moves}
        entry = catalog.files()[0]
        for block in range(entry.num_blocks):
            src = old.disk_of_block(entry.start_disk, block)
            dst = new.disk_of_block(entry.start_disk % new.num_disks, block)
            assert ((entry.file_id, block) in planned) == (src != dst)

    def test_start_disk_override(self):
        old = StripeLayout(4, 2)
        new = StripeLayout(4, 2)
        catalog = build_catalog(old.num_disks, files=1)
        entry = catalog.files()[0]
        plan = plan_restripe(
            old,
            new,
            catalog.files(),
            block_sizes(catalog),
            new_start_disks={entry.file_id: (entry.start_disk + 1) % 8},
        )
        # Shifting the start disk by one moves every block.
        assert len(plan.moves) == entry.num_blocks

    def test_override_outside_new_layout_rejected(self):
        old = StripeLayout(4, 2)
        new = StripeLayout(4, 2)
        catalog = build_catalog(old.num_disks, files=1)
        entry = catalog.files()[0]
        for bad_disk in (new.num_disks, -1, 100):
            with pytest.raises(ValueError):
                plan_restripe(
                    old,
                    new,
                    catalog.files(),
                    block_sizes(catalog),
                    new_start_disks={entry.file_id: bad_disk},
                )

    def test_bytes_into_cub_uses_new_layout(self):
        # Same 8 disks, but regrouped 4x2 -> 2x4: disk 2 moves from
        # cub 2 to cub 0, so inbound accounting must follow the *new*
        # cub membership.
        old = StripeLayout(4, 2)
        new = StripeLayout(2, 4)
        plan = RestripePlan(old, new, [BlockMove(0, 0, 1, 2, 1000)])
        assert plan.bytes_into_cub() == {new.cub_of_disk(2): 1000}
        assert new.cub_of_disk(2) == 0

    def test_per_disk_accounting_sums_to_total(self):
        old = StripeLayout(4, 2)
        new = StripeLayout(5, 2)
        catalog = build_catalog(old.num_disks)
        plan = plan_restripe(old, new, catalog.files(), block_sizes(catalog))
        assert sum(plan.bytes_out_of_disk().values()) == plan.total_bytes
        assert sum(plan.bytes_into_disk().values()) == plan.total_bytes


def rebalance_reference(layout, weighted, files, sizes):
    """The rebalance planner's own loop, before it was folded into
    ``plan_restripe``: ring position -> weighted placement."""
    return [
        BlockMove(entry.file_id, block, src, dst, sizes[entry.file_id])
        for entry in files
        for block in range(entry.num_blocks)
        for src, dst in [(
            layout.disk_of_block(entry.start_disk, block),
            weighted.placement_disk_of_block(entry.start_disk, block),
        )]
        if src != dst
    ]


class TestOnePlanner:
    """``plan_rebalance`` is a geometry check in front of
    ``plan_restripe``, whose loop uses the capacity-aware placement."""

    @pytest.mark.parametrize("config, local_weights, moves", [
        (small_config(), (1, 2), 960),
        (paper_config(), (1, 2, 1, 3), 1500),
        (small_config(), (3, 1), 480),
    ])
    def test_rebalance_plan_is_unchanged_move_for_move(
        self, config, local_weights, moves
    ):
        system = TigerSystem(config)
        files = system.add_standard_content(num_files=8, duration_s=240.0)
        layout = system.layout
        weighted = layout.with_weights(tuple(
            local_weights[disk // layout.num_cubs]
            for disk in range(layout.num_disks)
        ))
        sizes = {entry.file_id: entry.content_bytes_per_block for entry in files}
        plan = plan_rebalance(layout, weighted, files, sizes)
        assert plan.moves == rebalance_reference(layout, weighted, files, sizes)
        assert len(plan.moves) == moves

    def test_unweighted_placement_is_plain_striping(self):
        for cubs in range(1, 9):
            for disks in range(1, 5):
                layout = StripeLayout(cubs, disks)
                for start in range(layout.num_disks):
                    for block in range(3 * layout.num_disks):
                        assert layout.placement_disk_of_block(start, block) == (
                            layout.disk_of_block(start, block)
                        )

    def test_rebalance_refuses_another_geometry(self):
        catalog = build_catalog(8)
        with pytest.raises(ValueError, match="identical geometry"):
            plan_rebalance(
                StripeLayout(4, 2), StripeLayout(2, 4), catalog.files(),
                block_sizes(catalog),
            )


class TestTimeEstimate:
    def test_zero_moves_zero_time(self):
        layout = StripeLayout(4, 2)
        catalog = build_catalog(layout.num_disks)
        plan = plan_restripe(layout, layout, catalog.files(), block_sizes(catalog))
        assert estimate_restripe_time(plan, 5e6, 5e6, 10e6) == 0.0

    def test_bad_rates_rejected(self):
        layout = StripeLayout(4, 2)
        catalog = build_catalog(layout.num_disks)
        plan = plan_restripe(layout, layout, catalog.files(), block_sizes(catalog))
        with pytest.raises(ValueError):
            estimate_restripe_time(plan, 0.0, 5e6, 10e6)

    def test_inbound_nic_bottleneck_charged(self):
        """Regression: when a few cubs receive most of the bytes, the
        destination NICs are the bottleneck.  Charging only source
        cubs (the old behaviour) under-estimates the restripe."""
        old = StripeLayout(4, 2)
        new = StripeLayout(4, 2)
        plan = RestripePlan(old, new)
        # Every disk ships one block, but everything lands on cub 1
        # (disks 1 and 5): inbound to cub 1 is the whole byte count.
        size = 1_000_000
        for src_disk in range(old.num_disks):
            dst_disk = 1 if src_disk < 4 else 5
            plan.moves.append(BlockMove(0, src_disk, src_disk, dst_disk, size))

        disk_read, disk_write, cub_net = 5e6, 50e6, 12e6
        estimate = estimate_restripe_time(plan, disk_read, disk_write, cub_net)

        inbound = max(plan.bytes_into_cub().values()) / cub_net
        stale_candidates = (
            [b / disk_read for b in plan.bytes_out_of_disk().values()]
            + [b / disk_write for b in plan.bytes_into_disk().values()]
            + [b / cub_net for b in plan.bytes_out_of_cub().values()]
        )
        # The old estimate (no inbound term) tops out strictly lower.
        assert max(stale_candidates) < inbound
        assert estimate == pytest.approx(inbound)

    def test_restripe_time_independent_of_system_size(self):
        """§2.2: restripe time depends on cub/disk size and speed, not
        on the number of cubs — the aggregate switch bandwidth grows
        with the system.  Growing N -> N+1 cubs at constant per-disk
        content should take roughly constant time across N."""
        times = []
        for cubs in (4, 8, 12):
            old = StripeLayout(cubs, 2)
            new = StripeLayout(cubs + 1, 2)
            # Constant data per disk: total files scale with disks.
            catalog = build_catalog(
                old.num_disks, files=old.num_disks, duration=40.0
            )
            plan = plan_restripe(old, new, catalog.files(), block_sizes(catalog))
            times.append(estimate_restripe_time(plan, 5e6, 5e6, 12e6))
        spread = max(times) / min(times)
        assert spread < 1.6, f"restripe times varied too much: {times}"
