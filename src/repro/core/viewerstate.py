"""Schedule records that travel between cubs (paper §4.1.1-4.1.2).

Three record types circulate around the ring:

* :class:`ViewerState` — "disk *d* must start sending block *b* of
  file *f* to viewer *v* at time *t* (slot *s*, play sequence *q*)".
  Forwarded to the successor *and second successor* ahead of each
  visit; receiving one is idempotent.
* :class:`MirrorViewerState` — like a viewer state but describing one
  declustered secondary *piece* of a block whose primary disk is dead;
  pieces are spaced ``block_play_time / decluster`` apart.
* :class:`DescheduleRequest` — "if this instance of this viewer is in
  this slot, remove it"; deliberately a no-op when it does not match,
  which is what makes it safe to flood.

All records are frozen dataclasses: protocol state is immutable and
"advancing" a state produces a new record, which keeps the multiple-
delivery paths (direct, redundant, bridged) from aliasing each other.
Every block builds several, so each writes its own ``__init__``, which
sets the fields through their slot descriptors (:func:`slot_setters`)
instead of the generated one's ``object.__setattr__`` per field.

A record's idempotence key is one int, not a tuple: a cub keeps one per
block it has seen, and the cycle collector does not track an int.  A
state key is the play instance with the play seqno in its low
:data:`SEQNO_BITS` bits; a piece key shifts that left by
:data:`PIECE_BITS`, adds the piece and takes the bitwise complement, so
piece keys are negative and never meet a state key in one idempotence
set.  The bounds that keep the fields apart are asserted where the
program builds its records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Any, Callable, Tuple

_instance_ids = itertools.count(1)

#: Bits of a record key below its play instance: the play seqno.
SEQNO_BITS = 24
#: Bits of a piece key below its state's key: the piece.
PIECE_BITS = 8
SEQNO_LIMIT = 1 << SEQNO_BITS


def key_instance(key: int) -> int:
    """The play instance a state key belongs to."""
    return key >> SEQNO_BITS


def new_instance_id() -> int:
    """Allocate a unique play-instance id.

    Each *start request* gets its own instance so that a deschedule for
    an old play of the same viewer can never kill a newer play
    (§4.1.2: "instance corresponds to the particular start request").
    """
    return next(_instance_ids)


def reset_instance_ids() -> None:
    """Restart the play-instance id sequence from 1.

    Instance ids only need to be unique *within* one
    :class:`~repro.core.tiger.TigerSystem`, but the allocator is
    process-global, so each system built in a long-lived process used
    to start wherever the previous one left off.  The system
    constructor calls this so every run is a pure function of
    (config, seed) — a system built fifth in a bench sweep carries the
    same ids as the same system built alone, and an in-process run
    matches a fresh ``spawn`` worker's bit for bit.
    """
    global _instance_ids
    _instance_ids = itertools.count(1)


def slot_setters(cls: type) -> Tuple[Callable[[Any, Any], None], ...]:
    """The ``__set__`` of each field's slot descriptor, in field order.

    A frozen dataclass refuses assignment in ``__setattr__``; a slot
    descriptor's ``__set__`` writes the slot beneath it, which is how a
    record's own ``__init__`` sets its fields at half the generated
    one's cost.  Assignment after construction still raises
    ``FrozenInstanceError``.
    """
    return tuple(vars(cls)[field.name].__set__ for field in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class ViewerState:
    """One schedule entry, targeted at a specific disk visit."""

    viewer_id: str
    instance: int
    slot: int
    file_id: int
    block_index: int
    disk_id: int
    due_time: float
    play_seqno: int

    def __init__(
        self,
        viewer_id: str,
        instance: int,
        slot: int,
        file_id: int,
        block_index: int,
        disk_id: int,
        due_time: float,
        play_seqno: int,
    ) -> None:
        _vs_viewer_id(self, viewer_id)
        _vs_instance(self, instance)
        _vs_slot(self, slot)
        _vs_file_id(self, file_id)
        _vs_block_index(self, block_index)
        _vs_disk_id(self, disk_id)
        _vs_due_time(self, due_time)
        _vs_play_seqno(self, play_seqno)

    def key(self) -> int:
        """Idempotence key: one per (play instance, position in play)."""
        return self.instance << SEQNO_BITS | self.play_seqno

    def advanced(self, hops: int, num_disks: int, block_play_time: float) -> "ViewerState":
        """The state for the visit ``hops`` disks later.

        Each hop moves one disk forward in stripe order, one block
        forward in the file, and one block play time forward in time —
        the lockstep motion of §3.
        """
        if hops < 1:
            raise ValueError("hops must be >= 1")
        assert self.play_seqno + hops < SEQNO_LIMIT, "play seqno outgrows its key"
        return ViewerState(
            self.viewer_id,
            self.instance,
            self.slot,
            self.file_id,
            self.block_index + hops,
            (self.disk_id + hops) % num_disks,
            self.due_time + hops * block_play_time,
            self.play_seqno + hops,
        )

    def lead_time(self, now: float) -> float:
        """Seconds between now and when this state's block is due (§4.1.1)."""
        return self.due_time - now


(
    _vs_viewer_id, _vs_instance, _vs_slot, _vs_file_id, _vs_block_index,
    _vs_disk_id, _vs_due_time, _vs_play_seqno,
) = slot_setters(ViewerState)


@dataclass(frozen=True, slots=True, init=False)
class MirrorViewerState:
    """A schedule entry for one secondary piece of a lost block.

    ``piece`` selects which declustered fragment; ``disk_id`` is the
    disk holding that fragment (the ``piece+1``-th disk after the dead
    primary).  ``due_time`` is offset ``piece * block_play_time /
    decluster`` from the lost block's due time, per §4.1.1.
    """

    viewer_id: str
    instance: int
    slot: int
    file_id: int
    block_index: int
    piece: int
    decluster: int
    disk_id: int
    due_time: float
    play_seqno: int

    def __init__(
        self,
        viewer_id: str,
        instance: int,
        slot: int,
        file_id: int,
        block_index: int,
        piece: int,
        decluster: int,
        disk_id: int,
        due_time: float,
        play_seqno: int,
    ) -> None:
        _mvs_viewer_id(self, viewer_id)
        _mvs_instance(self, instance)
        _mvs_slot(self, slot)
        _mvs_file_id(self, file_id)
        _mvs_block_index(self, block_index)
        _mvs_piece(self, piece)
        _mvs_decluster(self, decluster)
        _mvs_disk_id(self, disk_id)
        _mvs_due_time(self, due_time)
        _mvs_play_seqno(self, play_seqno)

    def key(self) -> int:
        """Idempotence key: one per (play instance, position, piece)."""
        return ~(
            (self.instance << SEQNO_BITS | self.play_seqno) << PIECE_BITS
            | self.piece
        )


(
    _mvs_viewer_id, _mvs_instance, _mvs_slot, _mvs_file_id,
    _mvs_block_index, _mvs_piece, _mvs_decluster, _mvs_disk_id,
    _mvs_due_time, _mvs_play_seqno,
) = slot_setters(MirrorViewerState)


@dataclass(frozen=True, slots=True, init=False)
class DescheduleRequest:
    """Remove ``viewer_id``'s ``instance`` from ``slot`` — if present.

    The conditional semantics make the request idempotent *and*
    harmless after slot reuse: "Having a deschedule request floating
    around after the slot has been reallocated will not cause
    incorrect results" (§4.1.2).

    ``issue_time`` dates the request so cubs can stop propagating it
    once it has outrun every possible viewer state.
    """

    viewer_id: str
    instance: int
    slot: int
    issue_time: float

    def __init__(
        self, viewer_id: str, instance: int, slot: int, issue_time: float
    ) -> None:
        _dr_viewer_id(self, viewer_id)
        _dr_instance(self, instance)
        _dr_slot(self, slot)
        _dr_issue_time(self, issue_time)

    def key(self) -> Tuple[str, int, int]:
        return (self.viewer_id, self.instance, self.slot)

    def matches(self, state: ViewerState) -> bool:
        """True if ``state`` belongs to the play this request kills."""
        return (
            state.viewer_id == self.viewer_id
            and state.instance == self.instance
            and state.slot == self.slot
        )

    def matches_mirror(self, state: MirrorViewerState) -> bool:
        return (
            state.viewer_id == self.viewer_id
            and state.instance == self.instance
            and state.slot == self.slot
        )


_dr_viewer_id, _dr_instance, _dr_slot, _dr_issue_time = slot_setters(
    DescheduleRequest
)


def make_initial_state(
    viewer_id: str,
    instance: int,
    slot: int,
    file_id: int,
    first_block: int,
    disk_id: int,
    due_time: float,
) -> ViewerState:
    """The state created by the inserting cub at schedule entry (§4.1.3)."""
    assert instance >= 0, "a negative instance would share a piece key's sign"
    return ViewerState(
        viewer_id=viewer_id,
        instance=instance,
        slot=slot,
        file_id=file_id,
        block_index=first_block,
        disk_id=disk_id,
        due_time=due_time,
        play_seqno=0,
    )


def mirror_states_for(
    state: ViewerState, decluster: int, num_disks: int, block_play_time: float
) -> Tuple[MirrorViewerState, ...]:
    """Mirror states covering ``state`` when its disk is dead (§4.1.1).

    Piece *k* lives on the (k+1)-th disk after the dead primary and is
    due ``k * block_play_time / decluster`` after the block's own due
    time, so the pieces arrive back-to-back within one play time.
    """
    assert 0 <= state.play_seqno < SEQNO_LIMIT and decluster <= 1 << PIECE_BITS
    spacing = block_play_time / decluster
    return tuple(
        MirrorViewerState(
            viewer_id=state.viewer_id,
            instance=state.instance,
            slot=state.slot,
            file_id=state.file_id,
            block_index=state.block_index,
            piece=piece,
            decluster=decluster,
            disk_id=(state.disk_id + 1 + piece) % num_disks,
            due_time=state.due_time + piece * spacing,
            play_seqno=state.play_seqno,
        )
        for piece in range(decluster)
    )
