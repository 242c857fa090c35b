"""A cub's per-play records on their own (paper §4.1): a
:class:`ScheduleOwner` driven with plain inputs and times — no
simulator, network or disk.

Each test builds the pure objects a cub hands its owner (view, deadman,
slot clock, stripe layout, config, catalog) from
``small_config()`` and asks what the owner holds and decides.  The last
one reboots a real cub, because what a reboot forgets is the cub's
business.
"""

from types import SimpleNamespace

import pytest

from repro import TigerSystem, small_config
from repro.core.deadman import DeadmanMonitor
from repro.core.owner import (
    COVERED, FINISHED, LOST, REJECT, SERVE, ScheduleOwner,
)
from repro.core.protocol import CancelStart, StartRequest
from repro.core.slots import SlotClock
from repro.core.view import ScheduleView
from repro.core.viewerstate import (
    DescheduleRequest,
    MirrorViewerState,
    ViewerState,
    mirror_states_for,
)
from repro.faults.monitor import index_incoherence
from repro.storage.blockindex import BlockLocation
from repro.storage.catalog import Catalog
from repro.storage.layout import StripeLayout

CONFIG = small_config()
LAYOUT = StripeLayout(CONFIG.num_cubs, CONFIG.disks_per_cub)
CLOCK = SlotClock(CONFIG.num_disks, CONFIG.num_slots, CONFIG.block_play_time)
#: File 0 is four blocks long.
CATALOG = Catalog(CONFIG.block_play_time, CONFIG.num_disks)
CATALOG.add_file("four-blocks", bitrate_bps=2e6, duration_s=4.0)


def _owner(cub_id=0):
    view = ScheduleView(
        cub_id, CONFIG.block_play_time, hold_time=CONFIG.deschedule_hold
    )
    deadman = DeadmanMonitor(
        cub_id, CONFIG.num_cubs, timeout=CONFIG.deadman_timeout
    )
    return ScheduleOwner(view, deadman, CLOCK, LAYOUT, CONFIG, CATALOG)


def _request(instance, disk_id, request_time=0.0, redundant=False):
    return StartRequest(
        f"client:0#{instance}", instance, file_id=0, first_block=0,
        target_disk=disk_id, request_time=request_time, redundant=redundant,
    )


def _occupant(slot, due_time, instance=99):
    return ViewerState(
        viewer_id=f"client:0#{instance}", instance=instance, slot=slot,
        file_id=0, block_index=3, disk_id=0, due_time=due_time, play_seqno=3,
    )


def _never_blocked():
    return False


DISK = LAYOUT.disks_of_cub(0)[0]


def test_a_free_owned_instant_inserts_the_queued_start():
    owner = _owner()
    assert owner.start_request(0.0, _request(1, DISK)) == DISK
    when, slot, visit = owner.next_instant(0.0, DISK)
    assert visit - when == pytest.approx(CONFIG.scheduling_lead)
    state = owner.ownership_instant(when, DISK, slot, visit, _never_blocked)
    assert (state.instance, state.slot, state.disk_id) == (1, slot, DISK)
    assert (state.due_time, state.block_index, state.play_seqno) == (visit, 0, 0)
    assert owner.queued() == 0
    assert owner.next_instant(when, DISK) is None  # nothing left to scan for


def test_an_occupied_instant_inserts_nothing_and_rearms():
    owner = _owner()
    owner.start_request(0.0, _request(1, DISK))
    when, slot, visit = owner.next_instant(0.0, DISK)
    owner.view.admit(_occupant(slot, visit), now=0.0)
    asked = []
    decision = owner.ownership_instant(
        when, DISK, slot, visit, lambda: asked.append(1) or False
    )
    assert decision is None and not asked  # the guard is not consulted
    assert owner.queued(DISK) == 1
    # The scan re-arms for the disk's next slot, one service time on.
    later, next_slot, next_visit = owner.next_instant(when, DISK)
    assert later > when
    assert next_slot == (slot + 1) % CONFIG.num_slots
    assert next_visit == pytest.approx(visit + CLOCK.block_service_time)
    state = owner.ownership_instant(
        later, DISK, next_slot, next_visit, _never_blocked
    )
    assert state.slot == next_slot


def test_the_admission_guard_rejects_a_free_instant():
    owner = _owner()
    owner.start_request(0.0, _request(1, DISK))
    when, slot, visit = owner.next_instant(0.0, DISK)
    assert owner.ownership_instant(when, DISK, slot, visit, lambda: True) is REJECT
    assert owner.queued(DISK) == 1


def test_the_oldest_request_time_goes_first():
    owner = _owner()
    owner.start_request(0.0, _request(1, DISK, request_time=5.0))
    owner.start_request(0.0, _request(2, DISK, request_time=3.0))
    owner.start_request(0.0, _request(3, DISK, request_time=4.0))
    when, slot, visit = owner.next_instant(6.0, DISK)
    state = owner.ownership_instant(when, DISK, slot, visit, _never_blocked)
    assert state.instance == 2
    # It inserts at the owned (slot, visit): no look-ahead.
    assert (state.slot, state.due_time) == (slot, visit)
    assert owner.queued(DISK) == 2


def _adopted(owner, now):
    """What a death of cub 0 adopts: (the held states it bridges, in
    arrival order; the disks whose redundant starts it queued)."""
    records, disks = owner.membership(now, 0, False)
    return [state for verb, state in records if verb in (COVERED, LOST)
            and LAYOUT.cub_of_disk(state.disk_id) == 0], disks


def _silence(owner, *dead, now):
    """Every watched neighbour but the ``dead`` beats; the deadman checks."""
    for neighbour in owner.deadman.watched:
        if neighbour not in dead:
            owner.deadman.note_heartbeat(neighbour, now, 0.0)
    owner.deadman.check(now)
    assert all(owner.deadman.believes_failed(cub) for cub in dead)


def test_a_redundant_start_is_adopted_only_by_the_first_living_successor():
    dead_disk = LAYOUT.disks_of_cub(0)[0]
    successor, second = _owner(cub_id=1), _owner(cub_id=2)
    for owner in (successor, second):
        request = _request(7, dead_disk, redundant=True)
        assert owner.start_request(0.0, request) is None  # held, not queued
        assert owner.queued() == 0
        assert _adopted(owner, 1.0) == ([], [])  # cub 0 is still alive
    later = CONFIG.deadman_timeout + 1.0
    _silence(successor, 0, now=later)
    _silence(second, 0, now=later)
    assert _adopted(successor, later) == ([], [dead_disk])
    assert successor.queued(dead_disk) == 1
    # Cub 1 lives, so cub 2 keeps its copy and queues nothing.
    assert _adopted(second, later) == ([], [])
    assert second.queued() == 0


def test_a_redundant_start_for_a_dead_target_is_queued_at_once():
    owner = _owner(cub_id=1)
    _silence(owner, 0, now=CONFIG.deadman_timeout + 1.0)
    dead_disk = LAYOUT.disks_of_cub(0)[0]
    assert owner.start_request(8.0, _request(7, dead_disk, redundant=True)) == dead_disk


def test_a_new_state_drops_the_redundant_copy():
    owner = _owner(cub_id=1)
    dead_disk = LAYOUT.disks_of_cub(0)[0]
    owner.start_request(0.0, _request(7, dead_disk, redundant=True))
    # Any new state of the play: here its next block, on cub 1's disk.
    assert owner.receive(0.5, _state(7, 1, LAYOUT.disks_of_cub(1)[0], 1.5)) is SERVE
    assert owner.redundant_requests == {}
    _silence(owner, 0, now=CONFIG.deadman_timeout + 1.0)
    assert _adopted(owner, 8.0) == ([], [])


def test_a_cancel_takes_the_start_off_its_queue_and_the_instance_map():
    owner = _owner()
    other_disk = LAYOUT.disks_of_cub(0)[1]
    owner.start_request(0.0, _request(1, DISK))
    owner.start_request(0.0, _request(2, DISK))
    owner.start_request(0.0, _request(3, other_disk))
    owner.cancel_start(0.5, 2)
    assert [request.instance for request in owner._wait_queues[DISK]] == [1]
    assert set(owner._queued_requests) == {1, 3}
    assert owner.queued() == 2
    # A stop before the insert: the same.
    assert owner.deschedule(0.6, DescheduleRequest("client:0#3", 3, 3, 0.6), 9.0)
    assert not owner._wait_queues[other_disk]
    assert set(owner._queued_requests) == {1}


def test_a_start_arriving_after_its_cancel_is_never_queued():
    owner = _owner()
    owner.cancel_start(0.0, 4)
    assert owner.start_request(0.1, _request(4, DISK)) is None
    assert owner.queued() == 0
    # Nor is its redundant copy held for a later failover.
    owner.cancel_start(0.0, 5)
    owner.start_request(0.1, _request(5, DISK, redundant=True))
    assert owner.redundant_requests == {}


def test_a_rebooted_cub_gets_a_fresh_owner_and_keeps_its_migrations():
    system = TigerSystem(small_config(), seed=41)
    system.add_standard_content(num_files=2, duration_s=60)
    cub = system.cubs[0]
    disk_id = LAYOUT.disks_of_cub(0)[0]
    cub._on_start_request(_request(1, disk_id), "controller")
    cub._on_cancel_start(CancelStart("client:0#2", 2), "controller")
    moved = BlockLocation(disk_id, "outer", 1)
    cub.block_index.migrations[(0, 5)] = moved
    foreign = _state(3, 0, LAYOUT.disks_of_cub(1)[0], 9.0)
    cub.owner.hold(foreign, foreign.key())
    cub.owner.forward_queue.append(_state(4, 0, disk_id, 9.0))
    before, deadman, view = cub.owner, cub.deadman, cub.view
    ticks = cub._pump_ticks
    assert cub.owner.queued() == 1

    cub.fail()
    cub.recover()
    assert cub.owner is not before and cub.deadman is not deadman
    assert cub.owner.deadman is cub.deadman
    assert cub.owner.view is cub.view is view  # the view is built once
    assert cub.owner.queued() == 0
    assert not cub.owner._redundant_states and not cub.owner.forward_queue
    assert cub._pump_ticks == ticks  # a reboot keeps the prune phase
    assert not cub._scan_events
    # Neither the seen nor the cancelled start is remembered: both are
    # queued when routed here again.
    cub._on_start_request(_request(1, disk_id), "controller")
    cub._on_start_request(_request(2, disk_id), "controller")
    assert cub.owner.queued() == 2
    assert cub.block_index.migrations == {(0, 5): moved}


# ----------------------------------------------------------------------
# Held states, forward queues and tombstones (§4.1.1-§4.1.2)
# ----------------------------------------------------------------------
def _state(instance, seqno, disk_id, due_time, slot=None):
    return ViewerState(
        viewer_id=f"client:0#{instance}", instance=instance,
        slot=instance if slot is None else slot, file_id=0,
        block_index=seqno, disk_id=disk_id, due_time=due_time,
        play_seqno=seqno,
    )


def _stop(instance, slot=None):
    return DescheduleRequest(
        f"client:0#{instance}", instance,
        instance if slot is None else slot, 0.0,
    )


def _coherent(owner):
    return index_incoherence(SimpleNamespace(owner=owner, view=owner.view))


#: A disk of cub 0, whose states cub 1 holds as its successor.
FOREIGN = LAYOUT.disks_of_cub(0)[0]


def test_hold_then_release_leaves_the_store_and_its_indexes_coherent():
    owner = _owner(cub_id=1)
    states = [_state(i, s, FOREIGN, 5.0 + s) for i in (1, 2) for s in (0, 1)]
    key = {(s.instance, s.play_seqno): s.key() for s in states}
    assert len(set(key.values())) == 4
    for state in states:
        owner.hold(state, state.key())
    owner.hold(states[0], states[0].key())  # held again: still one record
    assert list(owner._redundant_states) == [s.key() for s in states]
    assert owner._redundant_index == {
        1: (key[1, 0], key[1, 1]), 2: (key[2, 0], key[2, 1]),
    }
    assert _coherent(owner) is None
    for instance, seqno in ((1, 0), (2, 1), (2, 0)):
        owner._release(key[instance, seqno])
    assert list(owner._redundant_states) == [key[1, 1]]
    # One key held: the play's entry is that key, not a tuple of one.
    assert owner._redundant_index == {1: key[1, 1]}
    assert _coherent(owner) is None


def test_a_deschedule_releases_only_its_plays_held_states():
    owner = _owner(cub_id=1)
    for instance in (1, 2):
        for seqno in (0, 1):
            state = _state(instance, seqno, FOREIGN, 5.0 + seqno)
            owner.hold(state, state.key())
    # The same play instance in another slot is another play.
    other_slot = _state(1, 2, FOREIGN, 7.0, slot=9)
    owner.hold(other_slot, other_slot.key())
    key = {(s.instance, s.play_seqno): k for k, s in owner._redundant_states.items()}
    owner.start_request(0.5, _request(3, DISK))

    assert owner.deschedule(1.0, _stop(1), expiry=20.0)
    assert list(owner._redundant_states) == [key[2, 0], key[2, 1], key[1, 2]]
    assert owner.view.has_tombstone("client:0#1", 1, 1)
    assert _coherent(owner) is None
    assert owner.queued() == 1
    # A repeat changes nothing; a stop of the queued start forgets it.
    assert not owner.deschedule(1.5, _stop(1), expiry=20.0)
    assert owner.deschedule(1.5, _stop(3), expiry=20.0)
    assert owner.queued() == 0
    assert len(owner._redundant_states) == 3


def test_prune_drops_held_states_due_before_the_horizon_and_the_view_too():
    owner = _owner(cub_id=1)
    now = 20.0
    horizon = now - (CONFIG.deadman_timeout + 2.0)
    dues = (horizon - 1.0, horizon - 0.01, horizon, horizon + 3.0)
    for instance, due in enumerate(dues, start=1):
        state = _state(instance, 0, FOREIGN, due)
        owner.hold(state, state.key())
    owner.view.apply_deschedule(_stop(9), expiry=now - 1.0)
    owner.prune(now)
    assert [s.due_time for s in owner._redundant_states.values()] == [
        horizon, horizon + 3.0,
    ]
    assert _coherent(owner) is None
    assert not owner.view.has_tombstone("client:0#9", 9, 9)


def test_a_death_adopts_in_arrival_order_only_what_this_cub_adopts():
    owner = _owner(cub_id=1)
    living = LAYOUT.disks_of_cub(2)[0]
    first, kept, second = (
        _state(1, 0, FOREIGN, 9.0), _state(2, 0, living, 9.0),
        _state(3, 0, FOREIGN, 9.5),
    )
    for state in (first, kept, second):
        owner.hold(state, state.key())
    assert _adopted(owner, 1.0) == ([], [])  # cub 0 is still alive
    assert len(owner._redundant_states) == 3

    later = CONFIG.deadman_timeout + 1.0
    _silence(owner, 0, now=later)
    # Released before they are bridged: what the cub holds while it
    # bridges them is only what it still holds for the living.
    records, disks = owner.membership(later, 0, False)
    assert list(owner._redundant_states) == [kept.key()]
    assert ([s for verb, s in records if s in (first, second)], disks) == (
        [first, second], [],
    )
    assert _adopted(owner, later) == ([], [])
    assert _coherent(owner) is None


def test_take_forwards_keeps_a_state_until_its_window_then_sends_it():
    owner = _owner()
    bpt, lead = CONFIG.block_play_time, CONFIG.max_vstate_lead
    ready = _state(1, 0, DISK, 10.0)
    waiting = _state(2, 0, DISK, 10.5)
    stopped = _state(3, 0, DISK, 10.0)
    last = _state(4, 3, DISK, 10.0)  # file 0's final block
    owner.forward_queue.extend([ready, stopped, last, waiting])
    owner.deschedule(0.0, _stop(3), expiry=30.0)

    opens = ready.due_time + bpt - lead
    assert owner.take_forwards(opens - 0.01) == ([], [], [])
    assert owner.forward_queue == [ready, stopped, last, waiting]
    states, mirrors, missed = owner.take_forwards(opens)
    assert states == [ready.advanced(1, CONFIG.num_disks, bpt)]
    assert (mirrors, missed) == ([], [])
    # A tombstone or the end of the file drops a state; the one whose
    # window is still shut waits.
    assert owner.forward_queue == [waiting]


def test_a_past_due_mirror_piece_comes_back_missed():
    owner = _owner()

    def piece(instance, due_time):
        return MirrorViewerState(
            f"client:0#{instance}", instance, instance, file_id=0,
            block_index=0, piece=0, decluster=2, disk_id=DISK,
            due_time=due_time, play_seqno=0,
        )

    late, on_time, cancelled = piece(1, 4.0), piece(2, 6.0), piece(3, 4.0)
    owner.mirror_forward_queue.extend([late, on_time, cancelled])
    owner.deschedule(0.0, _stop(3), expiry=30.0)
    assert owner.take_forwards(5.0) == ([], [on_time], [late])
    assert owner.mirror_forward_queue == []


# ----------------------------------------------------------------------
# Where a state goes: served, held, bridged or relayed (§2.3, §4.1.1)
# ----------------------------------------------------------------------
NUM_DISKS, BPT = CONFIG.num_disks, CONFIG.block_play_time
#: Each cub's first disk; the disk after each is on the next cub.
DISK_OF_CUB = {cub: LAYOUT.disks_of_cub(cub)[0] for cub in range(CONFIG.num_cubs)}
LATER = CONFIG.deadman_timeout + 1.0


def _pieces(state):
    return mirror_states_for(state, CONFIG.decluster, NUM_DISKS, BPT)


def _next(state):
    return state.advanced(1, NUM_DISKS, BPT)


def test_a_state_for_an_own_disk_is_served():
    owner = _owner(cub_id=0)
    state = _state(1, 0, DISK_OF_CUB[0], 5.0)
    assert owner.receive(1.0, state) is SERVE
    assert not owner._redundant_states
    assert owner.receive(1.0, state) is None  # a duplicate
    # Later than any tombstone is held: dropped, with nothing to do.
    late = _state(2, 0, DISK_OF_CUB[0], 1.0 - CONFIG.deschedule_hold - 0.5)
    assert owner.receive(1.0, late) is None
    assert not owner._redundant_states


def test_a_state_for_a_living_cub_is_held():
    owner = _owner(cub_id=1)
    state = _state(1, 0, DISK_OF_CUB[0], 5.0)
    assert owner.receive(1.0, state) is None
    assert list(owner._redundant_states.values()) == [state]
    assert owner.mirror_forward_queue == []


def test_a_state_for_a_just_resurrected_cub_is_held_and_relayed():
    owner = _owner(cub_id=1)
    _silence(owner, 0, now=LATER)
    assert owner.deadman.note_heartbeat(0, LATER + 0.5, 0.0) is True
    state = _state(1, 0, DISK_OF_CUB[0], LATER + 5.0)
    assert owner.receive(LATER + 1.0, state) == [(0, state)]
    assert list(owner._redundant_states.values()) == [state]
    # A timeout after the return, the race is over: held only.
    calm = _state(2, 0, DISK_OF_CUB[0], LATER + 9.0)
    assert owner.receive(LATER + 0.5 + CONFIG.deadman_timeout + 0.1, calm) is None


def test_an_adopted_chain_is_bridged_across_two_dead_cubs():
    """Cubs 0 and 1 are dead; cub 2 adopts both.  A held state still
    due is covered on each dead cub's disk and served on cub 2's; one
    whose due time has passed loses every past-due hop first."""
    owner = _owner(cub_id=2)
    ahead = _state(1, 0, DISK_OF_CUB[0], LATER + 2.0)
    behind = _state(2, 0, DISK_OF_CUB[0], LATER - 1.5)
    for state in (ahead, behind):
        assert owner.receive(1.0, state) is None  # held while cub 0 lives
    _silence(owner, 0, 1, now=LATER)

    records, disks = owner.membership(LATER, 1, False)
    ahead1 = _next(ahead)
    ahead_pieces, bridged_pieces = _pieces(ahead), _pieces(ahead1)
    behind1 = _next(behind)
    assert list(records) == [
        (COVERED, ahead),
        (LOST, ahead_pieces[0]),    # on cub 1's disk: a second failure
        (SERVE, ahead_pieces[1]),   # on cub 2's own disk
        (COVERED, ahead1),          # cub 1's disk: bridged again
        (SERVE, bridged_pieces[0]),
        (SERVE, _next(ahead1)),     # the chain reaches cub 2's disk
        (LOST, behind),
        (LOST, behind1),
        (SERVE, _next(behind1)),
    ]
    assert disks == []
    # The piece for living cub 3 hops on with the next pump.
    assert owner.mirror_forward_queue == [bridged_pieces[1]]
    assert not owner._redundant_states


def test_adopted_chains_are_decided_one_at_a_time():
    """A chain is decided only once the cub has carried out the one
    before: the second state's successor is unseen until then."""
    owner = _owner(cub_id=1)
    first = _state(1, 0, DISK_OF_CUB[0], LATER + 2.0)
    second = _state(2, 0, DISK_OF_CUB[0], LATER + 3.0)
    for state in (first, second):
        owner.receive(1.0, state)
    _silence(owner, 0, now=LATER)
    records, _disks = owner.membership(LATER, 0, False)
    records = iter(records)
    assert next(records) == (COVERED, first)
    assert _next(second).key() not in owner.view._seen
    assert (SERVE, _next(second)) in list(records)


def test_a_chain_reentering_living_territory_is_relayed():
    """Cub 2's own disk died: mirrors cover the block and the next hop,
    on living cub 3, is held and handed over — whatever the view made
    of it, so a second reroute relays it again."""
    owner = _owner(cub_id=2)
    state = _state(1, 0, DISK_OF_CUB[2], 5.0)
    following = _next(state)
    assert owner.reroute(1.0, state) == [(COVERED, state), (3, following)]
    assert owner.mirror_forward_queue == list(_pieces(state))
    assert list(owner._redundant_states.values()) == [following]
    assert owner.reroute(1.0, state) == [(COVERED, state), (3, following)]


def test_the_end_of_a_file_finishes_the_play():
    owner = _owner(cub_id=1)
    _silence(owner, 0, now=LATER)
    last = _state(1, 3, DISK_OF_CUB[0], LATER + 1.0)  # file 0's final block
    pieces = _pieces(last)
    assert owner.receive(LATER, last) == [
        (COVERED, last), (SERVE, pieces[0]), (FINISHED, last),
    ]
    assert owner.mirror_forward_queue == [pieces[1]]


def test_a_piece_is_served_held_on_or_lost_by_its_holders_fate():
    owner = _owner(cub_id=1)
    _silence(owner, 0, now=LATER)

    def piece(instance, disk_id):
        return MirrorViewerState(
            f"client:0#{instance}", instance, instance, file_id=0,
            block_index=0, piece=0, decluster=2, disk_id=disk_id,
            due_time=LATER + 2.0, play_seqno=0,
        )

    own, onward = piece(1, DISK_OF_CUB[1]), piece(2, DISK_OF_CUB[2])
    dead = piece(3, DISK_OF_CUB[0])
    assert owner.receive_piece(LATER, own) is SERVE
    assert owner.receive_piece(LATER, onward) is None
    assert owner.receive_piece(LATER, dead) is LOST
    assert owner.receive_piece(LATER, dead) is None  # a duplicate
    assert owner.mirror_forward_queue == [onward]


def test_a_death_returns_the_adopted_chains_and_the_disks_to_scan():
    owner = _owner(cub_id=1)
    dead_disk = DISK_OF_CUB[0]
    held = _state(1, 0, dead_disk, LATER + 2.0)
    owner.receive(1.0, held)
    owner.start_request(1.0, _request(7, dead_disk, redundant=True))
    records, disks = owner.membership(1.0, 0, True)  # a return: nothing
    assert (list(records), disks) == ([], [])

    _silence(owner, 0, now=LATER)
    records, disks = owner.membership(LATER, 0, False)
    assert disks == [dead_disk]
    assert owner.queued(dead_disk) == 1
    pieces = _pieces(held)
    assert list(records) == [
        (COVERED, held), (SERVE, pieces[0]), (SERVE, _next(held)),
    ]
    # Adopted once: a second verdict finds nothing left.
    records, disks = owner.membership(LATER, 0, False)
    assert (list(records), disks) == ([], [])
