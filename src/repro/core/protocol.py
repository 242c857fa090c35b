"""Wire-protocol payloads exchanged by Tiger components.

These are the contents of :class:`repro.net.message.Message` objects.
Sizes are modelled separately (see :mod:`repro.net.message`); payloads
carry whatever the receiving protocol code needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.viewerstate import (
    DescheduleRequest,
    MirrorViewerState,
    ViewerState,
    slot_setters,
)


#: The controller's network address, and its backup's.
CONTROLLER_ADDRESS = "controller"
BACKUP_CONTROLLER_ADDRESS = "controller-backup"


def cub_address(cub_id: int) -> str:
    """The network address of cub ``cub_id``."""
    return f"cub:{cub_id}"


@dataclass(frozen=True)
class ViewerStateBatch:
    """A bundle of viewer states forwarded between cubs (§4.1.1).

    Cubs group states together "into a single network message before
    forwarding them, and so reduce communications overhead" — the gap
    between minVStateLead and maxVStateLead exists to allow batching.
    """

    states: Tuple[ViewerState, ...] = ()
    mirrors: Tuple[MirrorViewerState, ...] = ()

    def __len__(self) -> int:
        return len(self.states) + len(self.mirrors)


@dataclass(frozen=True)
class StartRequest:
    """A request to begin playing, forwarded by the controller (§4.1.3).

    ``redundant`` marks the copy sent to the successor cub, which only
    acts on it if the primary target fails.
    """

    viewer_id: str
    instance: int
    file_id: int
    first_block: int
    target_disk: int
    request_time: float
    redundant: bool = False


@dataclass(frozen=True)
class CancelStart:
    """Withdraw a queued (not yet scheduled) start request."""

    viewer_id: str
    instance: int


@dataclass(frozen=True)
class StartCommitted:
    """Cub -> controller: a start request entered the schedule.

    Carries the slot so the controller can later route a deschedule to
    the cub currently serving the viewer.  This is also the moment the
    insertion joins the hallucination: "schedule insertions are
    committed ... when a message to that effect makes it to at least
    one other machine" (§4.3).
    """

    viewer_id: str
    instance: int
    slot: int
    first_due: float


@dataclass(frozen=True)
class PlayEnded:
    """Cub -> controller: a viewer reached end-of-file."""

    viewer_id: str
    instance: int
    slot: int


@dataclass(frozen=True)
class DescheduleForward:
    """Controller -> cub and cub -> cub carrier for a deschedule."""

    request: DescheduleRequest


@dataclass(frozen=True)
class Heartbeat:
    """Deadman-protocol liveness beacon (§2.3); ``epoch`` is the sender's
    boot time (a controller, watched by no deadman, leaves it 0)."""

    cub_id: int
    epoch: float = 0.0


def block_pattern(file_id: int, block_index: int) -> int:
    """Deterministic content fingerprint for one block.

    The paper's test files were "filled with a test pattern"; clients
    verified the expected data arrived.  We model content as a
    64-bit fingerprint derived from identity, so a client can detect a
    block cross-wired to the wrong viewer or position — without
    shuttling megabytes of fake payload through the simulator.
    """
    # splitmix64-style mix of the identity pair.
    value = (file_id * 0x9E3779B97F4A7C15 + block_index) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value ^= value >> 27
    return value


@dataclass(frozen=True, slots=True, init=False)
class BlockData:
    """A block (or declustered piece of one) sent to a viewer.

    ``piece`` is None for a whole primary block; otherwise it names the
    secondary fragment, of which ``total_pieces`` complete the block.
    ``pattern`` carries the content fingerprint the client verifies.
    One is built per block sent, so it sets its fields through their
    slot descriptors, as the viewer-state records do.
    """

    viewer_id: str
    instance: int
    file_id: int
    block_index: int
    play_seqno: int
    piece: Optional[int] = None
    total_pieces: int = 1
    final: bool = False
    pattern: int = 0

    def __init__(
        self,
        viewer_id: str,
        instance: int,
        file_id: int,
        block_index: int,
        play_seqno: int,
        piece: Optional[int] = None,
        total_pieces: int = 1,
        final: bool = False,
        pattern: int = 0,
    ) -> None:
        _bd_viewer_id(self, viewer_id)
        _bd_instance(self, instance)
        _bd_file_id(self, file_id)
        _bd_block_index(self, block_index)
        _bd_play_seqno(self, play_seqno)
        _bd_piece(self, piece)
        _bd_total_pieces(self, total_pieces)
        _bd_final(self, final)
        _bd_pattern(self, pattern)


(
    _bd_viewer_id, _bd_instance, _bd_file_id, _bd_block_index,
    _bd_play_seqno, _bd_piece, _bd_total_pieces, _bd_final, _bd_pattern,
) = slot_setters(BlockData)


@dataclass(frozen=True)
class ClientStart:
    """Viewer -> controller: begin playing ``file_id`` at ``first_block``.

    ``request_time`` is the client's clock at the moment it asked —
    startup latency (fig-10) measures from here, not from when the
    controller got around to admitting the request, so waits queued
    behind a full schedule are charged to the histogram too.  Negative
    means "unknown" (pre-upgrade client); the controller falls back to
    its own receive time.
    """

    viewer_id: str
    instance: int
    file_id: int
    first_block: int = 0
    request_time: float = -1.0


@dataclass(frozen=True)
class ClientStop:
    """Viewer -> controller: stop this play instance."""

    viewer_id: str
    instance: int


@dataclass(frozen=True)
class StartAck:
    """Controller -> viewer: your start request was received and routed.

    Part of the controller fault-tolerance extension (the paper's
    stated future work): an unacknowledged start is retried against the
    backup controller.
    """

    instance: int
    controller: str


@dataclass(frozen=True)
class ReplicaUpdate:
    """Primary -> backup controller: replicate one play record change.

    ``kind`` is one of "start", "committed", "stopped", "ended".
    """

    kind: str
    viewer_id: str
    instance: int
    file_id: int = -1
    first_block: int = 0
    slot: Optional[int] = None
    #: Client request time for "start" records (-1.0 = unknown).
    request_time: float = -1.0


# ----------------------------------------------------------------------
# Helper/cache edge tier (repro.helpers)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HelperProbe:
    """Viewer -> helper: can you serve this play from cache?

    Sent *instead of* :class:`ClientStart` when the helper directory
    names a helper for the file; the answer (hit or miss) decides
    whether the stream ever touches the distributed schedule.
    """

    viewer_id: str
    instance: int
    file_id: int
    first_block: int = 0


@dataclass(frozen=True)
class HelperHit:
    """Helper -> viewer: cache hit — blocks will follow from me.

    The schedule slot for this play is never claimed; the helper
    streams :class:`BlockData` on the same pacing the cubs use.
    """

    viewer_id: str
    instance: int
    file_id: int
    first_block: int


@dataclass(frozen=True)
class HelperMiss:
    """Helper -> viewer: cache miss — go to the origin tier.

    The helper starts warming the file in the background, so later
    viewers of the same file hit.
    """

    viewer_id: str
    instance: int
    file_id: int
    first_block: int


@dataclass(frozen=True)
class HelperFetch:
    """Helper -> cub: read one block off-schedule for cache fill.

    Served from the owning cub's spare disk/NIC bandwidth; counted as
    ``cub.helper_fetches_served``, *not* ``cub.blocks_sent``, so the
    origin-offload measurements compare real schedule load.
    """

    file_id: int
    block_index: int


@dataclass(frozen=True)
class HelperFetchReply:
    """Cub -> helper: the requested block (fingerprint stands in for
    content, exactly as on the viewer data path)."""

    file_id: int
    block_index: int
    pattern: int


@dataclass(frozen=True)
class HelperInvalidate:
    """Driver/origin -> helper: purge every cached block of one file
    (content replaced or restriped)."""

    file_id: int


@dataclass(frozen=True)
class HelperCancel:
    """Viewer -> helper: stop a cache-served play instance."""

    viewer_id: str
    instance: int


# ----------------------------------------------------------------------
# Online restriping (repro.storage.rebalance)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RestripeCopy:
    """Restriper -> source cub: copy one block to its new disk.

    The read happens off-schedule (same spare-bandwidth rule as
    :class:`HelperFetch`) and is deferred while the source disk's
    queue holds scheduled work, so a restripe can never make a viewer
    miss a deadline.
    """

    move_id: int
    file_id: int
    block_index: int
    src_disk: int
    dst_disk: int
    size_bytes: int


@dataclass(frozen=True)
class RestripeAck:
    """Owning cub -> restriper: the new copy is durable (or the move
    failed — ``ok`` False with a reason in ``detail``).

    Until this arrives the block stays readable at its old disk
    (dual presence), so a crash anywhere in flight loses nothing.
    """

    move_id: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class RestripeCommit:
    """Restriper -> owning cub: cut reads over to the new location.

    Only after the journal records the move committed; the cub updates
    its migration map so the scheduled read path starts consulting the
    new disk.  Idempotent — replaying a commit is a no-op.
    """

    move_id: int
    file_id: int
    block_index: int
    src_disk: int
    dst_disk: int
