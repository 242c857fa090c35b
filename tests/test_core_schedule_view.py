"""Tests for the global schedule, its slot audit and the per-cub view (§3, §4.1)."""

import pytest

from repro.core.protocol import (
    BACKUP_CONTROLLER_ADDRESS, CONTROLLER_ADDRESS, DescheduleForward, PlayEnded,
    StartCommitted,
)
from repro.core.schedule import GlobalSchedule, SlotAudit, SlotConflictError
from repro.core.view import (
    ADMIT_DESCHEDULED,
    ADMIT_DUPLICATE,
    ADMIT_NEW,
    ADMIT_TOO_LATE,
    ScheduleView,
)
from repro.core.viewerstate import DescheduleRequest, ViewerState, mirror_states_for
from repro.net.message import Message
from repro.net.node import NetworkNode
from repro.net.switch import SwitchedNetwork
from repro.obs.registry import MetricsRegistry


def make_state(**overrides):
    base = dict(
        viewer_id="v1",
        instance=1,
        slot=3,
        file_id=0,
        block_index=5,
        disk_id=2,
        due_time=10.0,
        play_seqno=5,
    )
    base.update(overrides)
    return ViewerState(**base)


class TestGlobalSchedule:
    def test_insert_then_occupied(self):
        schedule = GlobalSchedule(10)
        schedule.insert(3, "v", 1, 0.0)
        assert not schedule.is_free(3)
        assert schedule.occupant(3).viewer_id == "v"

    def test_double_insert_conflicts(self):
        """The invariant the ownership protocol must uphold."""
        schedule = GlobalSchedule(10)
        schedule.insert(3, "v", 1, 0.0)
        with pytest.raises(SlotConflictError):
            schedule.insert(3, "w", 2, 0.0)

    def test_conditional_remove_semantics(self):
        schedule = GlobalSchedule(10)
        schedule.insert(3, "v", 1, 0.0)
        assert schedule.remove(3, "v", 2) is False  # wrong instance
        assert schedule.remove(3, "w", 1) is False  # wrong viewer
        assert not schedule.is_free(3)
        assert schedule.remove(3, "v", 1) is True
        assert schedule.is_free(3)

    def test_remove_is_idempotent(self):
        schedule = GlobalSchedule(10)
        schedule.insert(3, "v", 1, 0.0)
        assert schedule.remove(3, "v", 1) is True
        assert schedule.remove(3, "v", 1) is False

    def test_remove_unconditional(self):
        schedule = GlobalSchedule(10)
        schedule.insert(3, "v", 1, 0.0)
        entry = schedule.remove_unconditional(3)
        assert entry.viewer_id == "v"
        assert schedule.remove_unconditional(3) is None

    def test_load_and_free_slots(self):
        schedule = GlobalSchedule(4)
        schedule.insert(0, "a", 1, 0.0)
        schedule.insert(2, "b", 2, 0.0)
        assert schedule.load == pytest.approx(0.5)
        assert schedule.free_slots() == (1, 3)
        assert schedule.occupied_slots() == (0, 2)

    def test_out_of_range_slot_rejected(self):
        schedule = GlobalSchedule(4)
        with pytest.raises(ValueError):
            schedule.insert(4, "v", 1, 0.0)
        with pytest.raises(ValueError):
            schedule.is_free(-1)

    def test_consistency_check_passes(self):
        schedule = GlobalSchedule(4)
        schedule.insert(0, "a", 1, 0.0)
        schedule.assert_consistent()


class _Machine(NetworkNode):
    def handle_message(self, message):
        pass


class TestSlotAudit:
    """The schedule booked off the fabric: commits as a cub sends them,
    ends and deschedules conditional on the slot's occupant."""

    @pytest.fixture
    def fabric(self, sim, rngs):
        network = SwitchedNetwork(sim, rngs)
        for address in (CONTROLLER_ADDRESS, BACKUP_CONTROLLER_ADDRESS, "cub:0", "cub:1"):
            network.register(_Machine(sim, address), 100e6)
        registry = MetricsRegistry()
        return sim, network, registry, SlotAudit(8, network, registry, strict=False)

    @staticmethod
    def tell(network, payload, src="cub:0", dst=CONTROLLER_ADDRESS):
        return network.send(Message(src, dst, payload, 64))

    def test_a_commit_is_booked_when_sent_and_the_backup_copy_ignored(self, fabric):
        sim, network, _registry, audit = fabric
        network.partition("cub:0", CONTROLLER_ADDRESS)
        assert self.tell(network, StartCommitted("v", 1, 3, 1.0)) is False
        self.tell(network, StartCommitted("v", 1, 3, 1.0), dst=BACKUP_CONTROLLER_ADDRESS)
        sim.run()
        assert audit.occupant(3).instance == 1
        assert audit.inserts == 1

    def test_an_end_removes_only_its_own_play(self, fabric):
        sim, network, _registry, audit = fabric
        self.tell(network, StartCommitted("v", 1, 3, 1.0))
        self.tell(network, PlayEnded("w", 2, 3))  # a play ending twice
        assert audit.occupant(3).instance == 1
        self.tell(network, PlayEnded("v", 1, 3))
        assert audit.is_free(3)
        assert audit.removes == 1

    def test_a_deschedule_removes_where_a_living_cub_applies_it(self, fabric):
        sim, network, _registry, audit = fabric
        self.tell(network, StartCommitted("v", 1, 3, 1.0))
        stop = DescheduleForward(DescheduleRequest("v", 1, 3, 0.0))
        network.node("cub:1").fail()
        self.tell(network, stop, src=CONTROLLER_ADDRESS, dst="cub:1")
        sim.run()
        assert audit.occupant(3).instance == 1
        self.tell(network, stop, src=CONTROLLER_ADDRESS, dst="cub:0")
        assert audit.occupant(3).instance == 1  # not yet delivered
        sim.run()
        assert audit.is_free(3)

    def test_a_conflict_is_counted_for_its_committer_and_raises_when_strict(self, fabric):
        sim, network, registry, audit = fabric
        self.tell(network, StartCommitted("v", 1, 3, 1.0))
        self.tell(network, StartCommitted("w", 2, 3, 1.0), src="cub:1")
        assert audit.occupant(3).instance == 1
        assert registry.get_value("cub.insert_conflicts", cub=1) == 1
        audit.strict = True
        with pytest.raises(SlotConflictError):
            self.tell(network, StartCommitted("x", 3, 3, 1.0))


class TestViewAdmission:
    @pytest.fixture
    def view(self):
        return ScheduleView(
            cub_id=0,
            block_play_time=1.0,
            hold_time=3.0,
            is_final=lambda state: state.block_index >= 99,
        )

    def test_new_state_admitted(self, view):
        assert view.admit(make_state(), now=5.0) == ADMIT_NEW

    def test_duplicate_ignored(self, view):
        """"Receiving a viewer state is idempotent: Duplicates are
        ignored" (§4.1.1)."""
        state = make_state()
        view.admit(state, now=5.0)
        assert view.admit(state, now=5.0) == ADMIT_DUPLICATE

    def test_descheduled_state_rejected(self, view):
        """"Before accepting a viewer state, a cub checks to see if it
        is holding a deschedule for that viewer in that slot" (§4.1.2)."""
        request = DescheduleRequest("v1", 1, 3, issue_time=0.0)
        view.apply_deschedule(request, expiry=100.0)
        assert view.admit(make_state(), now=5.0) == ADMIT_DESCHEDULED

    def test_very_late_state_discarded(self, view):
        """A state arriving after deschedules would have been dropped
        is itself dropped (the "spontaneous deschedule" rule)."""
        state = make_state(due_time=1.0)
        assert view.admit(state, now=10.0) == ADMIT_TOO_LATE
        assert view.states_discarded_late == 1

    def test_deschedule_of_other_instance_does_not_block(self, view):
        request = DescheduleRequest("v1", 99, 3, issue_time=0.0)
        view.apply_deschedule(request, expiry=100.0)
        assert view.admit(make_state(), now=5.0) == ADMIT_NEW

    def test_mirror_admission_mirrors_rules(self, view):
        mirror = mirror_states_for(make_state(), 2, 56, 1.0)[0]
        assert view.admit_mirror(mirror, now=5.0) == ADMIT_NEW
        assert view.admit_mirror(mirror, now=5.0) == ADMIT_DUPLICATE


class TestOccupancy:
    @pytest.fixture
    def view(self):
        return ScheduleView(
            cub_id=0,
            block_play_time=1.0,
            hold_time=3.0,
            is_final=lambda state: state.block_index >= 99,
        )

    def test_empty_slot_free(self, view):
        assert not view.occupied_at(3, visit_time=10.0)

    def test_state_at_visit_occupies(self, view):
        view.admit(make_state(due_time=10.0), now=5.0)
        assert view.occupied_at(3, visit_time=10.0)

    def test_future_state_occupies(self, view):
        view.admit(make_state(due_time=11.0), now=5.0)
        assert view.occupied_at(3, visit_time=10.0)

    def test_previous_visit_nonfinal_occupies(self, view):
        """A redundant copy from the previous visit implies the viewer
        continues — conservative occupancy."""
        view.admit(make_state(due_time=9.0), now=5.0)
        assert view.occupied_at(3, visit_time=10.0)

    def test_previous_visit_final_frees(self, view):
        """A final block at the previous visit means the play ended:
        the slot is reusable at this visit."""
        view.admit(make_state(due_time=9.0, block_index=99), now=5.0)
        assert not view.occupied_at(3, visit_time=10.0)

    def test_ancient_state_frees(self, view):
        view.admit(make_state(due_time=5.0), now=5.0)
        assert not view.occupied_at(3, visit_time=10.0)

    def test_deschedule_frees_slot(self, view):
        view.admit(make_state(due_time=10.0), now=5.0)
        view.apply_deschedule(DescheduleRequest("v1", 1, 3, 5.0), expiry=100.0)
        assert not view.occupied_at(3, visit_time=10.0)

    def test_latest_due_wins(self, view):
        view.admit(make_state(due_time=9.0, play_seqno=4, block_index=4), now=5.0)
        view.admit(make_state(due_time=10.0, play_seqno=5), now=5.0)
        assert view.state_for_slot(3).due_time == 10.0


class TestPruning:
    def test_view_stays_bounded(self):
        """The §4 scalability condition: view size must not grow with
        the amount of schedule history seen."""
        view = ScheduleView(0, 1.0, hold_time=3.0, is_final=lambda s: False)
        for seqno in range(5000):
            state = make_state(
                play_seqno=seqno, block_index=seqno, due_time=float(seqno) / 10.0
            )
            view.admit(state, now=float(seqno) / 10.0)
            if seqno % 50 == 0:
                view.prune(now=float(seqno) / 10.0)
        view.prune(now=500.0)
        assert view.size() < 200

    def test_tombstones_expire(self):
        view = ScheduleView(0, 1.0, hold_time=3.0, is_final=lambda s: False)
        view.apply_deschedule(DescheduleRequest("v1", 1, 3, 0.0), expiry=5.0)
        assert view.has_tombstone("v1", 1, 3)
        view.prune(now=6.0)
        assert not view.has_tombstone("v1", 1, 3)

    def test_duplicate_deschedule_reports_false(self):
        view = ScheduleView(0, 1.0, hold_time=3.0, is_final=lambda s: False)
        request = DescheduleRequest("v1", 1, 3, 0.0)
        assert view.apply_deschedule(request, expiry=5.0) is True
        assert view.apply_deschedule(request, expiry=5.0) is False
