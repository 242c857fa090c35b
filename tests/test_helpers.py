"""The helper/edge-cache tier: cache, directory, offload, fail-soft.

Covers the tier bottom-up: the LRU cache's eviction arithmetic, the
deterministic file->helper directory, DES integration (cache hits skip
the slot schedule entirely), the warm-join path that absorbs flash
crowds, fail-soft degradation when a helper dies mid-stream, and the
bit-identity guarantee — a capacity-0 helper tier leaves the chaos
fingerprint untouched.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import TigerSystem, small_config
from repro.faults.harness import ChaosHarness, standard_chaos_plan
from repro.faults.plan import FaultPlan
from repro.helpers import HelperDirectory
from repro.helpers.directory import helper_address
from repro.helpers.node import origin_offload_ratio
from repro.helpers.policy import LruCache
from repro.helpers.scenarios import (
    EDGE_SCENARIOS,
    capacity_sweep,
    run_edge_scenario,
    run_offload_experiment,
)
from repro.obs.registry import snapshot_total
from repro.helpers.directory import group_pin


class _TickLru:
    """The cache as it was written before its dict kept access order: a
    logical tick per access, and the victim is the smallest tick."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}
        self.tick = 0

    def touch(self, key):
        if key not in self.entries:
            return False
        self.tick += 1
        self.entries[key] = self.tick
        return True

    def insert(self, key):
        if self.capacity == 0:
            return [key]
        if key in self.entries:
            self.touch(key)
            return []
        self.tick += 1
        self.entries[key] = self.tick
        evicted = []
        while len(self.entries) > self.capacity:
            victim = min(self.entries, key=self.entries.__getitem__)
            del self.entries[victim]
            evicted.append(victim)
        return evicted

    def invalidate_file(self, file_id):
        stale = [key for key in self.entries if key[0] == file_id]
        for key in stale:
            del self.entries[key]
        return len(stale)


_KEYS = st.tuples(st.integers(0, 2), st.integers(0, 5))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KEYS),
        st.tuples(st.just("touch"), _KEYS),
        st.tuples(st.just("invalidate_file"), st.integers(0, 2)),
    ),
    max_size=60,
)


class TestLruCache:
    def test_capacity_accounting_never_exceeded(self):
        cache = LruCache(4)
        for block in range(10):
            cache.insert((0, block))
            assert len(cache) <= 4
        assert len(cache) == 4

    def test_lru_evicts_least_recently_touched(self):
        cache = LruCache(3)
        for block in range(3):
            cache.insert((0, block))
        cache.touch((0, 0))  # block 1 is now the coldest
        evicted = cache.insert((0, 3))
        assert evicted == [(0, 1)]
        assert (0, 0) in cache and (0, 3) in cache

    def test_capacity_zero_admits_nothing(self):
        cache = LruCache(0)
        assert cache.insert((1, 2)) == [(1, 2)]
        assert len(cache) == 0
        assert not cache.touch((1, 2))

    def test_invalidate_file_drops_only_that_file(self):
        cache = LruCache(8)
        for block in range(3):
            cache.insert((5, block))
        cache.insert((6, 0))
        assert cache.invalidate_file(5) == 3
        assert len(cache) == 1 and (6, 0) in cache
        assert cache.invalidate_file(5) == 0

    def test_eviction_order_is_deterministic(self):
        def drive(cache):
            order = []
            for block in range(12):
                order.extend(cache.insert((block % 3, block)))
                cache.touch((0, 0))
            return order

        assert drive(LruCache(4)) == drive(LruCache(4))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LruCache(-1)

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(0, 8), ops=_OPS)
    def test_access_order_matches_the_tick_reference(self, capacity, ops):
        """Keeping keys in access order evicts exactly what the smallest
        access tick did, and leaves the same keys cached."""
        cache, reference = LruCache(capacity), _TickLru(capacity)
        for op, arg in ops:
            assert getattr(cache, op)(arg) == getattr(reference, op)(arg)
            assert len(cache) == len(reference.entries)
            assert all(key in cache for key in reference.entries)


class TestHelperDirectory:
    def test_inert_when_no_helpers_or_no_capacity(self):
        for config in (small_config(helper_capacity=128),
                       small_config(helpers=2)):
            assert not HelperDirectory(config).active
            assert HelperDirectory(config).helper_for(0, 8) is None

    def test_mapping_is_total_and_contiguous(self):
        directory = HelperDirectory(small_config(helpers=3, helper_capacity=64))
        ids = [directory.helper_id_for(f, 9) for f in range(9)]
        assert ids == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert directory.helper_for(4, 9) == helper_address(1)

    def test_more_helpers_than_files_collapses(self):
        directory = HelperDirectory(small_config(helpers=8, helper_capacity=64))
        ids = {directory.helper_id_for(f, 3) for f in range(3)}
        # Only the first min(helpers, files) helpers are ever used.
        assert ids == {0, 1, 2}

    def test_group_pin_matches_legacy_formulas(self):
        # The shared helper replaced an inline `i * groups // total`.
        for total in (1, 3, 4, 7, 16):
            for groups in (1, 2, 3, total):
                for item in range(total):
                    assert group_pin(item, groups, total) == (
                        item * groups // total
                    )

    def test_group_pin_clamps_out_of_range(self):
        assert group_pin(-5, 2, 4) == 0
        assert group_pin(99, 2, 4) == 1
        with pytest.raises(ValueError):
            group_pin(0, 0, 4)


def _total(system, name):
    return snapshot_total(system.registry.snapshot(), name)


def _staggered_system(helpers=1, capacity=64, seed=11):
    """Three viewers on one file, spaced past the cache warm time."""
    system = TigerSystem(
        small_config(helpers=helpers, helper_capacity=capacity), seed=seed
    )
    files = system.add_standard_content(num_files=2, duration_s=12.0)
    clients = [system.add_client() for _ in range(3)]
    for index, start in enumerate((1.0, 16.0, 18.0)):
        system.sim.call_at(
            start, clients[index].start_stream, files[0].file_id
        )
    return system, clients, files[0].file_id


class TestDesIntegration:
    def test_cache_hits_skip_the_slot_schedule(self):
        system, _, _ = _staggered_system()
        system.run_until(40.0)
        system.finalize_clients()
        system.assert_invariants()
        # Viewer 1 misses (cold cache) and claims a slot; the warm fill
        # completes before viewers 2 and 3 arrive, so they are served
        # from cache and the global schedule never sees them.
        assert _total(system, "helper.blocks_served") > 0
        assert system.oracle.inserts == 1
        assert origin_offload_ratio(system.registry.snapshot()) > 0.4
        assert system.total_client_missed() == 0
        assert system.total_client_corrupt() == 0

    def test_offload_is_read_from_the_registry_totals(self):
        """One offload ratio, over the registry totals both backends
        export: they equal the nodes' own counters, summed."""
        system, _, _ = _staggered_system(helpers=2)
        system.run_until(40.0)
        served = sum(helper.blocks_served.count for helper in system.helpers)
        assert _total(system, "helper.blocks_served") == served > 0
        assert _total(system, "cub.blocks_sent") == system.total_blocks_sent()
        assert origin_offload_ratio(system.registry.snapshot()) == (
            served / (served + system.total_blocks_sent())
        )

    def test_capacity_zero_emits_no_helper_traffic(self):
        system, _, _ = _staggered_system(capacity=0)
        system.run_until(40.0)
        system.finalize_clients()
        system.assert_invariants()
        assert _total(system, "helper.blocks_served") == 0
        assert _total(system, "cub.helper_fetches_served") == 0
        assert system.oracle.inserts == 3  # everyone took the origin path

    def test_warm_join_absorbs_near_simultaneous_arrivals(self):
        # A flash burst: all three probes land while the first warm
        # fill is still in flight.  Warm-join turns them into hits —
        # only the very first origin stream claims a slot.
        system = TigerSystem(
            small_config(helpers=1, helper_capacity=64), seed=13
        )
        files = system.add_standard_content(num_files=2, duration_s=12.0)
        clients = [system.add_client() for _ in range(4)]
        system.sim.call_at(1.0, clients[0].start_stream, files[0].file_id)
        for index, offset in enumerate((1.2, 1.5, 1.8), start=1):
            system.sim.call_at(
                offset, clients[index].start_stream, files[0].file_id
            )
        system.run_until(45.0)
        system.finalize_clients()
        system.assert_invariants()
        assert system.oracle.inserts == 1
        assert _total(system, "helper.blocks_served") > 0
        assert system.total_client_missed() == 0
        assert system.total_client_corrupt() == 0

    def test_helper_death_degrades_to_origin(self):
        system, _, _ = _staggered_system()
        # Kill the helper while viewers 2/3 are being cache-served.
        system.sim.call_at(20.0, system.fail_helper, 0)
        system.run_until(60.0)
        system.finalize_clients()
        system.assert_invariants()
        assert _total(system, "client.helper_fallbacks") > 0
        # Fail-soft: every block still arrives, via the origin tier.
        assert system.total_client_missed() == 0
        assert system.total_client_corrupt() == 0

    def test_invalidate_purges_and_recounts(self):
        system, _, file_id = _staggered_system()
        system.run_until(14.0)  # warm fill done, before viewer 2
        cached = sum(len(helper.cache) for helper in system.helpers)
        assert cached > 0
        system.invalidate_helpers(file_id)
        system.run_until(15.0)  # the invalidate travels as a message
        assert sum(len(helper.cache) for helper in system.helpers) == 0
        assert sum(h.invalidations.count for h in system.helpers) == cached


class TestFingerprintIdentity:
    def _fingerprint(self, **tier):
        harness = ChaosHarness(
            small_config(**tier),
            standard_chaos_plan(duration=25.0),
            seed=5,
            load=0.5,
            duration=25.0,
            num_files=4,
            file_seconds=40.0,
        )
        return harness.run().fingerprint

    def test_capacity_zero_tier_is_bit_identical_to_no_helpers(self):
        baseline = self._fingerprint()
        inert = self._fingerprint(helpers=2, helper_capacity=0)
        assert baseline == inert

    def test_same_seed_helper_runs_are_bit_identical(self):
        first = self._fingerprint(helpers=2, helper_capacity=64)
        second = self._fingerprint(helpers=2, helper_capacity=64)
        assert first == second

    def test_helper_crash_plan_completes_clean(self):
        plan = FaultPlan()
        plan.crash_helper(0, at=10.0, restart_after=8.0)
        harness = ChaosHarness(
            small_config(helpers=2, helper_capacity=64), plan, seed=5,
            load=0.4, duration=30.0, num_files=4, file_seconds=40.0,
        )
        report = harness.run()  # construction implies zero violations
        assert report.checks_run > 0 and report.fingerprint


class TestOffloadScenarios:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_edge_scenario("cold_tuesday")

    def test_flash_crowd_meets_the_offload_bar(self):
        # The acceptance bar: the helper tier at least halves the cub
        # schedule's block load under a flash crowd, at zero loss.
        experiment = run_offload_experiment("flash_crowd", quick=True)
        assert experiment.cub_block_reduction >= 2.0
        assert experiment.helped.lossless and experiment.baseline.lossless
        assert experiment.helped.offload_ratio > 0.5

    def test_hot_premiere_offloads(self):
        experiment = run_offload_experiment("hot_premiere", quick=True)
        assert experiment.cub_block_reduction > 1.5
        assert experiment.helped.lossless and experiment.baseline.lossless

    def test_capacity_sweep_is_monotone_and_saturating(self):
        rows = capacity_sweep(
            capacities=(0, 16, 128), quick=True
        )
        ratios = [result.offload_ratio for _, result in rows]
        assert ratios[0] == 0.0
        assert ratios == sorted(ratios)  # concave => monotone here
        assert ratios[-1] > 0.5

    def test_scenario_names_stable(self):
        assert EDGE_SCENARIOS == ("hot_premiere", "flash_crowd")
