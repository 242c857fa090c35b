"""A cub's memory is O(viewers x lead), never O(blocks ever served).

The paper's point (§3-§4) is that a cub holds only a bounded *view* of
the schedule.  The service path must honour that in its bookkeeping
too: nothing allocated for a block may outlive the block, and nothing
that has fired may be retained.  These tests run a small system at full
load to T and to 3T sim-seconds and require the heap and every
bookkeeping container of every cub, disk, view and process to be as
large at 3T as at T.
"""

import gc
from collections import deque

import pytest

from repro import TigerSystem, small_config
from repro.core.cub import _Service
from repro.workloads.generator import ContinuousWorkload

#: Long enough past admission and warm-up that the schedule is full and
#: every lead window is populated; files outlast 3T so no play ends.
T = 40.0
GROWTH_ALLOWED = 1.10

_CONTAINERS = (dict, list, set, deque)


def _full_load_system() -> TigerSystem:
    system = TigerSystem(small_config(), seed=3)
    system.add_standard_content(num_files=4, duration_s=400.0)
    ContinuousWorkload(system).add_streams(system.config.num_slots)
    return system


def _container_sizes(system: TigerSystem) -> dict:
    """Size of every container attribute, summed per (class, name).

    Found by introspection, not by a list of names, so a container
    added to the service path later is covered without editing this
    test — a drive's FIFO of reads in flight is one of them: the drive
    settles it on every read, so it holds what is in flight, never what
    was.  Deadline buckets and the redundant store's by-play index are
    additionally counted by the records they hold.
    """
    owners = []
    for cub in system.cubs:
        owners += [cub, cub.view, cub.owner, *cub.disks.values()]
    owners += [system.controller, *system.clients]
    sizes: dict = {}
    for owner in owners:
        for name, value in vars(owner).items():
            if isinstance(value, _CONTAINERS):
                label = f"{type(owner).__name__}.{name}"
                sizes[label] = sizes.get(label, 0) + len(value)
    sizes["Cub pending records"] = sum(
        1 for cub in system.cubs for _ in cub.pending_service_records()
    )
    # The by-play index is counted by the records it names, not by its
    # plays, and it and the instance map must be on the list at all.
    sizes["ScheduleOwner indexed held records"] = sum(
        1 if type(held) is int else len(held)
        for cub in system.cubs
        for held in cub.owner._redundant_index.values()
    )
    assert {
        "ScheduleOwner._redundant_index", "ScheduleOwner._queued_requests",
        "SimDisk._in_flight",
    } <= set(sizes)
    return sizes


def _snapshot(system: TigerSystem):
    gc.collect()
    return len(gc.get_objects()), _container_sizes(system)


def test_heap_and_bookkeeping_flat_from_T_to_3T():
    system = _full_load_system()
    system.run_for(T)
    objects_at_t, sizes_at_t = _snapshot(system)
    blocks_at_t = system.total_blocks_sent()
    system.run_for(2 * T)
    objects_at_3t, sizes_at_3t = _snapshot(system)

    # The run really was at full load throughout: three times the sim
    # time served about three times the blocks.
    assert system.oracle.num_occupied == system.config.num_slots
    assert system.total_blocks_sent() > 2.5 * blocks_at_t

    assert objects_at_3t <= objects_at_t * GROWTH_ALLOWED, (
        f"gc-tracked objects grew {objects_at_t} -> {objects_at_3t}"
    )
    grown = {
        label: (sizes_at_t.get(label, 0), size)
        for label, size in sizes_at_3t.items()
        if size > sizes_at_t.get(label, 0) * GROWTH_ALLOWED
    }
    assert not grown, f"containers that grew with blocks served: {grown}"


def test_pending_table_holds_only_service_still_ahead():
    """Every bucket and record in the table is due now or later, and
    the table is within the memory bound DESIGN.md states: viewers x
    max_vstate_lead / block_play_time states, a read and a send each."""
    system = _full_load_system()
    system.run_for(T)
    now = system.sim.now
    records = 0
    for cub in system.cubs:
        for when, kind, state in cub.pending_service_records():
            assert when >= now and kind in ("read", "send")
            assert when <= state.due_time
            records += 1
    config = system.config
    bound = 2 * config.num_slots * config.max_vstate_lead / config.block_play_time
    assert 0 < records <= bound



# ----------------------------------------------------------------------
# A crash with a read in flight leaves nothing of it behind
# ----------------------------------------------------------------------
def _reachable_ids(root) -> set:
    """Ids of every gc-visible object reachable from ``root``."""
    seen = {id(root)}
    frontier = [root]
    while frontier:
        for referent in gc.get_referents(frontier.pop()):
            if id(referent) not in seen:
                seen.add(id(referent))
                frontier.append(referent)
    return seen


def _crash_with_a_read_in_flight(system, cub, power_cycle):
    """Run to the first instant past t = 20 s at which one of ``cub``'s
    drives has a read in flight, power-cycle the cub there, and return
    what existed for its block service just before: the records, their
    ``Read`` handles and the keys, by value, of everything pending."""
    system.run_for(20.0)
    while not any(disk.queue_backlog > 0.0 for disk in cub.disks.values()):
        system.run_for(0.001)
    gc.collect()
    drives = list(cub.disks.values())
    records = [
        found for found in gc.get_objects()
        if type(found) is _Service and found.disk in drives
    ]
    reads = [record.read for record in records if record.read is not None]
    assert any(
        read.done_at > system.sim.now and not read.errored for read in reads
    ), "a read issued and not yet complete"
    keys = {state.key() for _when, _kind, state in cub.pending_service_records()}
    assert records and keys
    power_cycle()
    return records, reads, keys


@pytest.mark.parametrize("route", ["system", "cub"])
def test_a_crash_mid_read_leaves_nothing_of_the_service_behind(route):
    """Regression: a read in flight when the cub lost power used to
    complete into the rebooted cub's ready set — a pre-crash key nothing
    ever discarded.  Now the flag lives on the service record and dies
    with the table: 3 x max_vstate_lead after the reboot nothing from
    before the crash is reachable from the system, and no container of
    the cub or its drives holds a pre-crash key."""
    system = TigerSystem(small_config(), seed=3)
    system.add_standard_content(num_files=4, duration_s=400.0)
    ContinuousWorkload(system).add_streams(system.config.num_slots // 2)
    cub = system.cubs[1]

    def through_the_system():
        system.fail_cub(1)
        system.recover_cub(1)

    def the_cub_alone():  # its drives never notice
        cub.fail()
        cub.recover()

    records, reads, keys = _crash_with_a_read_in_flight(
        system, cub,
        through_the_system if route == "system" else the_cub_alone,
    )
    sent = cub.blocks_sent.value()
    system.run_for(3 * system.config.max_vstate_lead)
    assert cub.blocks_sent.value() > sent, "the rebooted cub serves again"

    reachable = _reachable_ids(system)
    assert not [record for record in records if id(record) in reachable]
    assert not [read for read in reads if id(read) in reachable]
    for owner in (cub, *cub.disks.values()):
        for name, value in vars(owner).items():
            if isinstance(value, (dict, set)):
                assert not keys & set(value), (type(owner).__name__, name)
