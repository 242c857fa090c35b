"""Differential suite: the sharded kernel vs the single heap, bit for bit.

The partitioned kernel's correctness oracle (ISSUE: "for any seed,
sharded and single-heap runs must produce bit-identical protocol
counters"): the k-way merge dispatches in exact ``(time, priority,
seq)`` order, so shard count is an execution detail the protocol can
never observe.  These tests pin that across seeds, shard counts, and
chaos fault plans — the same seven counters
``tests/test_golden_counters.py`` pins.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.core import TigerSystem
from repro.core.metrics import PROTOCOL_COUNTERS, protocol_counters
from repro.faults import ChaosHarness, standard_chaos_plan
from repro.workloads import ContinuousWorkload


def _loaded_counters(seed: int, shards: int, seconds: float = 20.0):
    """Seven counters from a loaded (no-fault) run on ``shards`` lanes."""
    system = TigerSystem(small_config(), seed=seed, shards=shards)
    system.add_standard_content(num_files=4, duration_s=60.0)
    workload = ContinuousWorkload(system)
    workload.add_streams(max(1, system.config.num_slots // 2))
    system.run_for(seconds)
    system.finalize_clients()
    system.export_metrics()
    return protocol_counters(system.registry)


def _chaos_counters(
    seed: int, shards: int, duration: float = 20.0, drop_rate: float = 0.01
):
    """Seven counters from a standard chaos mix on ``shards`` lanes."""
    plan = standard_chaos_plan(duration=duration, drop_rate=drop_rate)
    harness = ChaosHarness(
        small_config(),
        plan,
        seed=seed,
        load=0.5,
        duration=duration,
        shards=shards,
    )
    harness.run()
    return protocol_counters(harness.system.registry)


@pytest.mark.parametrize("shards", [2, 4])
def test_loaded_run_counters_match_single_heap(shards):
    single = _loaded_counters(seed=0, shards=1)
    assert single["cub.inserts_performed"] > 0  # the run did real work
    assert single["cub.viewer_states_forwarded"] > 0
    assert _loaded_counters(seed=0, shards=shards) == single


@pytest.mark.parametrize("shards", [2, 4])
def test_chaos_run_counters_match_single_heap(shards):
    single = _chaos_counters(seed=0, shards=1)
    assert single["cub.inserts_performed"] > 0
    assert _chaos_counters(seed=0, shards=shards) == single


@given(
    seed=st.integers(0, 2**16),
    shards=st.sampled_from([2, 4]),
    drop_rate=st.sampled_from([0.0, 0.01, 0.03]),
)
@settings(max_examples=5, deadline=None)
def test_sharded_chaos_is_bit_identical_for_any_seed(
    seed, shards, drop_rate
):
    """Property: seed x shard-count x fault-mix — the seven counters
    never depend on how the event heap is partitioned."""
    single = _chaos_counters(seed=seed, shards=1, drop_rate=drop_rate)
    sharded = _chaos_counters(seed=seed, shards=shards, drop_rate=drop_rate)
    assert sharded == single
    assert set(single) == set(PROTOCOL_COUNTERS)
