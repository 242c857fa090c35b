"""Coherent-hallucination invariants under randomized workloads (§4).

These tests make the paper's correctness argument executable.  The
distributed cubs never consult the :class:`GlobalSchedule`; they only
*report* commits to it.  If two cubs ever insert into the same slot,
the oracle raises :class:`SlotConflictError` and the test fails — so
simply surviving a hostile random schedule of starts and stops is the
assertion.
"""

import pytest

from repro import TigerSystem, small_config
from repro.core.protocol import BlockData
from repro.sim.rng import RngRegistry


def churn(system, client, rng, rounds, max_active=None):
    """Randomly interleave starts, stops, and time passage."""
    active = []
    cap = max_active if max_active is not None else system.config.num_slots
    for _ in range(rounds):
        action = rng.random()
        if action < 0.5 and len(active) < cap + 4:
            active.append(client.start_stream(rng.randrange(len(system.catalog))))
        elif active:
            victim = active.pop(rng.randrange(len(active)))
            client.stop_stream(victim)
        system.run_for(rng.uniform(0.2, 2.5))
    return active


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_random_churn_preserves_invariants(seed):
    system = TigerSystem(small_config(), seed=seed)
    system.add_standard_content(num_files=5, duration_s=60)
    client = system.add_client()
    rng = RngRegistry(seed).stream("churn")
    churn(system, client, rng, rounds=60)
    system.run_for(20.0)
    system.finalize_clients()
    system.assert_invariants()
    # No stream that completed its start was ever double-served:
    for monitor in client.all_monitors():
        assert monitor.blocks_received <= monitor.expected_total


@pytest.mark.parametrize("seed", [11, 12])
def test_churn_with_failure_preserves_invariants(seed):
    system = TigerSystem(small_config(), seed=seed)
    system.add_standard_content(num_files=5, duration_s=120)
    client = system.add_client()
    rng = RngRegistry(seed).stream("churn")
    churn(system, client, rng, rounds=20)
    system.fail_cub(rng.randrange(system.config.num_cubs))
    churn(system, client, rng, rounds=20)
    system.run_for(25.0)
    system.finalize_clients()
    system.assert_invariants()


def test_views_agree_with_oracle_where_defined():
    """Union-of-views coherence: wherever a cub's view asserts a slot's
    occupant for an upcoming visit, the oracle agrees."""
    system = TigerSystem(small_config(), seed=42)
    system.add_standard_content(num_files=5, duration_s=120)
    client = system.add_client()
    for index in range(20):
        client.start_stream(file_id=index % 5)
    system.run_for(20.0)
    checked = 0
    for cub in system.cubs:
        for slot in cub.view.known_slots():
            state = cub.view.state_for_slot(slot)
            if state.due_time < system.sim.now:
                continue  # historical record, may be stale by design
            occupant = system.oracle.occupant(slot)
            assert occupant is not None, (
                f"cub {cub.cub_id} believes slot {slot} holds "
                f"{state.viewer_id} but the oracle says it is free"
            )
            assert occupant.viewer_id == state.viewer_id
            assert occupant.instance == state.instance
            checked += 1
    assert checked > 20  # the assertion actually exercised views


def test_schedule_load_equals_active_streams():
    system = TigerSystem(small_config(), seed=8)
    system.add_standard_content(num_files=4, duration_s=120)
    client = system.add_client()
    for index in range(10):
        client.start_stream(file_id=index % 4)
    system.run_for(15.0)
    assert system.oracle.num_occupied == 10
    active = sum(
        1
        for monitor in client.all_monitors()
        if monitor.startup_latency is not None and not monitor.finished
    )
    assert active == 10


def test_no_duplicate_block_delivery_under_double_forwarding():
    """Double-forwarding must not double-serve: each play seqno is
    delivered at most once."""
    system = TigerSystem(small_config(), seed=13)
    system.add_standard_content(num_files=4, duration_s=60)
    client = system.add_client()
    seen = []
    system.network.add_delivery_hook(BlockData, lambda message, when: seen.append(
        (message.payload.instance, message.payload.play_seqno, message.payload.piece)
    ))
    for index in range(8):
        client.start_stream(file_id=index % 4)
    system.run_for(30.0)
    assert len(seen) == len(set(seen)), "a block was transmitted twice"


def test_bounded_view_growth_is_independent_of_history():
    """Run twice as long; view sizes must not grow with history."""
    sizes = {}
    for duration in (30.0, 60.0):
        system = TigerSystem(small_config(), seed=77)
        system.add_standard_content(num_files=4, duration_s=120)
        client = system.add_client()
        for index in range(16):
            client.start_stream(file_id=index % 4)
        system.run_for(duration)
        sizes[duration] = max(cub.view.size() for cub in system.cubs)
    assert sizes[60.0] <= sizes[30.0] * 1.5 + 50
