"""Tests for viewer state / mirror state / deschedule records (§4.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.viewerstate import (
    PIECE_BITS,
    SEQNO_BITS,
    SEQNO_LIMIT,
    DescheduleRequest,
    ViewerState,
    key_instance,
    make_initial_state,
    mirror_states_for,
    new_instance_id,
)


def make_state(**overrides):
    base = dict(
        viewer_id="client:0#1",
        instance=1,
        slot=10,
        file_id=0,
        block_index=5,
        disk_id=3,
        due_time=100.0,
        play_seqno=5,
    )
    base.update(overrides)
    return ViewerState(**base)


class TestViewerState:
    def test_advanced_moves_in_lockstep(self):
        state = make_state()
        nxt = state.advanced(1, num_disks=56, block_play_time=1.0)
        assert nxt.disk_id == 4
        assert nxt.block_index == 6
        assert nxt.due_time == pytest.approx(101.0)
        assert nxt.play_seqno == 6
        assert nxt.slot == state.slot  # the slot never changes

    def test_advanced_wraps_disk(self):
        state = make_state(disk_id=55)
        assert state.advanced(1, 56, 1.0).disk_id == 0

    def test_advanced_multi_hop(self):
        state = make_state()
        assert state.advanced(3, 56, 1.0).block_index == 8

    def test_advanced_zero_hops_rejected(self):
        with pytest.raises(ValueError):
            make_state().advanced(0, 56, 1.0)

    def test_key_is_instance_and_seqno(self):
        key = make_state().key()
        assert type(key) is int and key == 1 << SEQNO_BITS | 5
        assert key_instance(key) == 1

    @given(
        st.tuples(st.integers(0, 2**40), st.integers(0, SEQNO_LIMIT - 1)),
        st.tuples(st.integers(0, 2**40), st.integers(0, SEQNO_LIMIT - 1)),
        st.integers(1, 1 << PIECE_BITS),
    )
    def test_keys_are_one_per_record(self, first, second, decluster):
        """Two states share a key only as the same (instance, seqno);
        every piece has its own key, and no piece key is a state key."""
        a, b = (
            make_state(instance=instance, play_seqno=seqno)
            for instance, seqno in (first, second)
        )
        assert (a.key() == b.key()) == (first == second)
        assert key_instance(a.key()) == first[0]
        pieces = [m.key() for m in mirror_states_for(a, decluster, 56, 1.0)]
        assert len(set(pieces)) == decluster and max(pieces) < 0 <= a.key()
        if first != second:
            others = {m.key() for m in mirror_states_for(b, decluster, 56, 1.0)}
            assert not others & set(pieces)

    def test_key_bounds_are_asserted_where_states_are_built(self):
        last = make_state(play_seqno=SEQNO_LIMIT - 2)
        assert last.advanced(1, 56, 1.0).play_seqno == SEQNO_LIMIT - 1
        with pytest.raises(AssertionError):
            last.advanced(2, 56, 1.0)
        with pytest.raises(AssertionError):
            make_initial_state("client:0#1", -1, 0, 0, 0, 0, 1.0)
        with pytest.raises(AssertionError):
            mirror_states_for(make_state(), (1 << PIECE_BITS) + 1, 56, 1.0)

    def test_lead_time(self):
        assert make_state(due_time=10.0).lead_time(now=4.0) == pytest.approx(6.0)

    def test_states_are_immutable(self):
        state = make_state()
        with pytest.raises(AttributeError):
            state.block_index = 7

    def test_instance_ids_unique(self):
        assert new_instance_id() != new_instance_id()

    def test_make_initial_state_seqno_zero(self):
        state = make_initial_state("v", 9, 4, 0, 0, 12, 50.0)
        assert state.play_seqno == 0
        assert state.disk_id == 12

    @given(st.integers(1, 200), st.integers(2, 100))
    def test_advancing_in_steps_equals_one_jump(self, hops, num_disks):
        state = make_state(disk_id=0)
        stepped = state
        for _ in range(hops):
            stepped = stepped.advanced(1, num_disks, 1.0)
        jumped = state.advanced(hops, num_disks, 1.0)
        assert stepped.disk_id == jumped.disk_id
        assert stepped.block_index == jumped.block_index
        assert stepped.play_seqno == jumped.play_seqno
        assert stepped.due_time == pytest.approx(jumped.due_time)


class TestMirrorStates:
    def test_one_state_per_piece(self):
        mirrors = mirror_states_for(make_state(), decluster=4, num_disks=56, block_play_time=1.0)
        assert len(mirrors) == 4
        assert [m.piece for m in mirrors] == [0, 1, 2, 3]

    def test_pieces_on_following_disks(self):
        """Piece k lives on the (k+1)-th disk after the dead primary."""
        mirrors = mirror_states_for(make_state(disk_id=3), 4, 56, 1.0)
        assert [m.disk_id for m in mirrors] == [4, 5, 6, 7]

    def test_piece_spacing_is_bpt_over_decluster(self):
        """"each piece of the mirror is separated in time from the
        previous piece by (block play time/decluster)" (§4.1.1)."""
        mirrors = mirror_states_for(make_state(due_time=10.0), 4, 56, 1.0)
        dues = [m.due_time for m in mirrors]
        gaps = [b - a for a, b in zip(dues, dues[1:])]
        assert all(gap == pytest.approx(0.25) for gap in gaps)
        assert dues[0] == pytest.approx(10.0)

    def test_mirror_keys_distinct_per_piece(self):
        mirrors = mirror_states_for(make_state(), 4, 56, 1.0)
        assert len({m.key() for m in mirrors}) == 4
        assert [m.key() for m in mirrors] == [
            ~((1 << SEQNO_BITS | 5) << PIECE_BITS | piece) for piece in range(4)
        ]

    def test_mirror_carries_play_identity(self):
        mirrors = mirror_states_for(make_state(), 2, 56, 1.0)
        for mirror in mirrors:
            assert mirror.viewer_id == "client:0#1"
            assert mirror.instance == 1
            assert mirror.slot == 10
            assert mirror.block_index == 5


class TestDeschedule:
    def test_matches_only_exact_play(self):
        """"If this instance of viewer is in this schedule slot" — the
        conditional semantics of §4.1.2."""
        request = DescheduleRequest("client:0#1", 1, 10, issue_time=0.0)
        assert request.matches(make_state())
        assert not request.matches(make_state(instance=2))
        assert not request.matches(make_state(slot=11))
        assert not request.matches(make_state(viewer_id="client:0#9"))

    def test_matches_mirror(self):
        request = DescheduleRequest("client:0#1", 1, 10, issue_time=0.0)
        mirrors = mirror_states_for(make_state(), 2, 56, 1.0)
        assert all(request.matches_mirror(m) for m in mirrors)

    def test_key(self):
        request = DescheduleRequest("v", 3, 7, issue_time=1.0)
        assert request.key() == ("v", 3, 7)
