"""The network schedule: multiple-bitrate Tiger (paper §3.2, §4.2).

In a multiple-bitrate system block *sizes* vary, so the combined disk
schedule no longer works; instead a two-dimensional **network
schedule** tracks NIC usage: x-axis time (ring of ``block_play_time x
num_cubs`` seconds), y-axis bandwidth.  Every entry is exactly one
block play time wide and as tall as its stream's bitrate.  Cubs sweep
through the ring one block play time apart.

Two results from the paper are reproduced here:

* **Fragmentation** (§3.2): gaps shorter than one block play time are
  unusable; forcing starts onto multiples of ``block_play_time /
  decluster`` keeps fragmentation acceptable
  (:meth:`NetworkSchedule.find_offset` with a quantum).
* **Distributed insertion** (§4.2): an inserting cub cannot own a
  window spanning other cubs' positions, so it tentatively inserts,
  speculatively starts the disk read, and asks its successor to
  confirm against *its* view; see :class:`NetScheduleNode`.

As in the paper, this subsystem stands alone: "the disk schedule
portion is not written.  The network schedule is complete and working."
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.net.message import RESERVATION_BYTES, Message
from repro.net.node import NetworkNode
from repro.net.switch import SwitchedNetwork
from repro.sim.core import Simulator
from repro.sim.trace import Tracer

_EPS = 1e-9
_entry_ids = itertools.count(1)


@dataclass(frozen=True)
class NetEntry:
    """One stream's bandwidth occupancy in the ring."""

    entry_id: int
    viewer_id: str
    offset: float  # start position in ring coordinates [0, length)
    width: float  # always one block play time
    bitrate_bps: float
    #: Reservations hold space during the §4.2 handshake but are not
    #: yet real schedule entries.
    reservation: bool = False


class NetworkSchedule:
    """A single view (or the global hallucination) of the 2-D schedule."""

    def __init__(self, length: float, capacity_bps: float, width: float) -> None:
        if length <= 0 or capacity_bps <= 0 or width <= 0:
            raise ValueError("length, capacity and width must be positive")
        if width > length + _EPS:
            raise ValueError("entry width cannot exceed the ring length")
        self.length = length
        self.capacity_bps = capacity_bps
        self.width = width
        self._entries: Dict[int, NetEntry] = {}
        # Sorted-offset index with prefix sums, rebuilt lazily, so
        # load queries are O(log n) instead of O(n) — placement search
        # over thousands of entries needs this.
        self._index_dirty = True
        self._sorted_offsets: List[float] = []
        self._prefix: List[float] = []

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _covers(self, entry: NetEntry, x: float) -> bool:
        return (x - entry.offset) % self.length < entry.width - _EPS

    def _rebuild_index(self) -> None:
        pairs = sorted(
            (entry.offset, entry.bitrate_bps) for entry in self._entries.values()
        )
        self._sorted_offsets = [offset for offset, _ in pairs]
        self._prefix = [0.0]
        for _, rate in pairs:
            self._prefix.append(self._prefix[-1] + rate)
        self._index_dirty = False

    def _sum_offsets_in(self, lo: float, hi: float) -> float:
        """Sum of bitrates of entries with offset in [lo, hi) — linear
        (non-wrapping) coordinates clipped to [0, length)."""
        left = bisect_left(self._sorted_offsets, lo - _EPS)
        right = bisect_left(self._sorted_offsets, hi - _EPS)
        return self._prefix[right] - self._prefix[left]

    def load_at(self, x: float) -> float:
        """Instantaneous NIC load at ring position ``x`` — the height of
        a vertical slice through the schedule (Figure 4).

        An entry at offset ``e`` covers ``x`` iff ``e`` lies in the ring
        interval ``(x - width, x]``.
        """
        if self._index_dirty:
            self._rebuild_index()
        x %= self.length
        lo = x - self.width + 2 * _EPS
        hi = x + 2 * _EPS
        if lo >= 0:
            return self._sum_offsets_in(lo, hi)
        return self._sum_offsets_in(0.0, hi) + self._sum_offsets_in(
            lo + self.length, self.length + 1.0
        )

    def peak_load_in(self, offset: float, width: float) -> float:
        """Maximum load over the window ``[offset, offset+width)``.

        The load function only changes at entry starts, so evaluating
        at the window start and every entry start inside the window is
        exact.  The entry starts are walked once in ascending order, so
        each bound of :meth:`load_at`'s prefix-sum differences is a
        pointer that only moves forward; the bounds and sums are
        :meth:`load_at`'s own float expressions, so every probe's load
        is bit-identical to it.
        """
        if self._index_dirty:
            self._rebuild_index()
        offset %= self.length
        peak = self.load_at(offset)
        starts, prefix = self._sorted_offsets, self._prefix
        length, entry_width, count = self.length, self.width, len(starts)
        eps = _EPS
        two_eps = 2 * eps
        # The fixed bounds of load_at's wrapped sum over
        # [0.0, hi) + [lo + length, length + 1.0).
        zero = bisect_left(starts, 0.0 - eps)
        beyond = bisect_left(starts, length + 1.0 - eps)
        # Entry offsets within [offset, offset+width), ring-aware.
        spans = [(offset, min(offset + width, length))]
        if offset + width > length:
            spans.append((0.0, offset + width - length))
        for lo, hi in spans:
            first = bisect_left(starts, lo - eps)
            # Include entries within float fuzz of the window top: an
            # entry at hi - ulp genuinely overlaps the window, and
            # skipping it lets can_insert under-count the peak and admit
            # past capacity.  An entry at exactly hi costs one spurious
            # (conservative) probe point, never an optimistic answer.
            last = bisect_left(starts, hi)
            if first == last:
                continue
            # Pointers at the first start's bounds; every later start's
            # bounds are no smaller, so the pointers only move forward.
            x = starts[first]
            low = bisect_left(starts, x - entry_width + two_eps - eps)
            wrap = bisect_left(
                starts, x - entry_width + two_eps + length - eps
            )
            high = bisect_left(starts, x + two_eps - eps)
            for x in starts[first:last]:
                cut = x + two_eps - eps
                while high < count and starts[high] < cut:
                    high += 1
                below = x - entry_width + two_eps
                if below >= 0:
                    cut = below - eps
                    while low < count and starts[low] < cut:
                        low += 1
                    load = prefix[high] - prefix[low]
                else:
                    cut = below + length - eps
                    while wrap < count and starts[wrap] < cut:
                        wrap += 1
                    load = (prefix[high] - prefix[zero]) + (
                        prefix[beyond] - prefix[wrap]
                    )
                if load > peak:
                    peak = load
        return peak

    def headroom_at(self, offset: float) -> float:
        return self.capacity_bps - self.peak_load_in(offset, self.width)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def can_insert(self, offset: float, bitrate_bps: float) -> bool:
        return (
            self.peak_load_in(offset, self.width) + bitrate_bps
            <= self.capacity_bps + _EPS
        )

    def insert(
        self,
        viewer_id: str,
        offset: float,
        bitrate_bps: float,
        reservation: bool = False,
    ) -> NetEntry:
        """Add an entry; raises if the window would exceed capacity."""
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if not self.can_insert(offset, bitrate_bps):
            raise ValueError(
                f"inserting {bitrate_bps/1e6:.2f} Mbit/s at offset "
                f"{offset:.3f} would exceed NIC capacity"
            )
        entry = NetEntry(
            entry_id=next(_entry_ids),
            viewer_id=viewer_id,
            offset=offset % self.length,
            width=self.width,
            bitrate_bps=bitrate_bps,
            reservation=reservation,
        )
        self._entries[entry.entry_id] = entry
        self._index_dirty = True
        return entry

    def remove(self, entry_id: int) -> bool:
        removed = self._entries.pop(entry_id, None) is not None
        if removed:
            self._index_dirty = True
        return removed

    def replace_reservation(self, entry_id: int, viewer_id: str) -> Optional[NetEntry]:
        """Turn a reservation into a real entry (the §4.2 commit at the
        successor, triggered by the arriving viewer state)."""
        old = self._entries.get(entry_id)
        if old is None or not old.reservation:
            return None
        committed = NetEntry(
            entry_id=old.entry_id,
            viewer_id=viewer_id,
            offset=old.offset,
            width=old.width,
            bitrate_bps=old.bitrate_bps,
            reservation=False,
        )
        self._entries[entry_id] = committed
        return committed

    # ------------------------------------------------------------------
    # Placement search & fragmentation
    # ------------------------------------------------------------------
    def find_offset(
        self,
        bitrate_bps: float,
        after: float = 0.0,
        quantum: Optional[float] = None,
    ) -> Optional[float]:
        """First feasible start position at or after ``after``.

        With ``quantum`` set (the paper uses ``block_play_time /
        decluster``), candidates are restricted to multiples of it —
        the fragmentation-control rule of §3.2.  Without it, candidates
        are ``after`` itself and every entry *end* (the natural greedy
        choice that creates unusable slivers).
        """
        after %= self.length
        if quantum is not None:
            if quantum <= 0:
                raise ValueError("quantum must be positive")
            steps = int(round(self.length / quantum))
            if abs(steps * quantum - self.length) > 1e-6:
                raise ValueError("quantum must evenly divide the ring length")
            start_index = math.ceil((after - 1e-9) / quantum)
            candidates = [
                ((start_index + step) % steps) * quantum for step in range(steps)
            ]
        else:
            ends = sorted(
                (entry.offset + entry.width) % self.length
                for entry in self._entries.values()
            )
            candidates = [after] + [
                (after + ((end - after) % self.length)) % self.length
                for end in ends
            ]
        for candidate in candidates:
            if self.can_insert(candidate, bitrate_bps):
                return candidate % self.length
        return None

    def utilization(self) -> float:
        """Committed bandwidth-time as a fraction of the whole plane."""
        used = sum(
            entry.bitrate_bps * entry.width for entry in self._entries.values()
        )
        return used / (self.capacity_bps * self.length)

    def entries(self) -> List[NetEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


# ======================================================================
# Distributed insertion (§4.2)
# ======================================================================


@dataclass(frozen=True)
class ReserveQuery:
    """Originating cub -> successor: may I insert this entry?"""

    token: int
    viewer_id: str
    offset: float
    bitrate_bps: float


@dataclass(frozen=True)
class ReserveReply:
    token: int
    ok: bool
    reservation_id: Optional[int] = None


@dataclass(frozen=True)
class NetCommit:
    """Originating cub -> successor: the insertion went through; the
    carried 'viewer state' replaces the reservation with a real entry."""

    token: int
    viewer_id: str
    reservation_id: int


@dataclass(frozen=True)
class NetAbort:
    token: int
    reservation_id: int


@dataclass
class PendingInsert:
    token: int
    viewer_id: str
    offset: float
    bitrate_bps: float
    entry_id: int
    deadline: float
    disk_read_started: bool = True  # speculative read (§4.2)
    on_done: Optional[Callable[[bool], None]] = None


class NetScheduleNode(NetworkNode):
    """A cub participating in the distributed network schedule.

    Each node holds its own :class:`NetworkSchedule` view.  Insertion
    follows §4.2 exactly: check locally, tentatively insert, start the
    (speculative) disk read, query the successor; commit on a timely
    positive reply, abort on refusal or timeout.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        num_nodes: int,
        network: SwitchedNetwork,
        schedule_length: float,
        capacity_bps: float,
        entry_width: float,
        reply_deadline: float = 0.5,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(sim, f"netcub:{node_id}", tracer)
        self.node_id = node_id
        self.num_nodes = num_nodes
        self.network = network
        self.view = NetworkSchedule(schedule_length, capacity_bps, entry_width)
        self.reply_deadline = reply_deadline
        self._tokens = itertools.count(1)
        self._pending: Dict[int, PendingInsert] = {}
        self.commits = 0
        self.aborts = 0
        self.rejections_local = 0

    @property
    def successor_address(self) -> str:
        return f"netcub:{(self.node_id + 1) % self.num_nodes}"

    # ------------------------------------------------------------------
    # Originator side
    # ------------------------------------------------------------------
    def try_insert(
        self,
        viewer_id: str,
        offset: float,
        bitrate_bps: float,
        on_done: Optional[Callable[[bool], None]] = None,
    ) -> bool:
        """Begin the tentative-insert handshake; returns False if the
        local view already rules it out."""
        if not self.view.can_insert(offset, bitrate_bps):
            self.rejections_local += 1
            if on_done:
                on_done(False)
            return False
        entry = self.view.insert(viewer_id, offset, bitrate_bps, reservation=True)
        token = next(self._tokens)
        pending = PendingInsert(
            token=token,
            viewer_id=viewer_id,
            offset=offset,
            bitrate_bps=bitrate_bps,
            entry_id=entry.entry_id,
            deadline=self.sim.now + self.reply_deadline,
            on_done=on_done,
        )
        self._pending[token] = pending
        self.network.send(
            Message(
                self.address,
                self.successor_address,
                ReserveQuery(token, viewer_id, offset, bitrate_bps),
                RESERVATION_BYTES,
            )
        )
        self.after(self.reply_deadline, self._on_timeout, token)
        return True

    def _on_timeout(self, token: int) -> None:
        pending = self._pending.pop(token, None)
        if pending is None:
            return  # already resolved
        # No timely confirmation: abort the tentative insertion and
        # stop the speculative disk read (§4.2).
        self.view.remove(pending.entry_id)
        self.aborts += 1
        if pending.on_done:
            pending.on_done(False)

    def _on_reply(self, reply: ReserveReply) -> None:
        pending = self._pending.pop(reply.token, None)
        if pending is None:
            if reply.ok and reply.reservation_id is not None:
                # Reply arrived after our timeout: release the orphaned
                # reservation at the successor.
                self.network.send(
                    Message(
                        self.address,
                        self.successor_address,
                        NetAbort(reply.token, reply.reservation_id),
                        RESERVATION_BYTES,
                    )
                )
            return
        if not reply.ok:
            self.view.remove(pending.entry_id)
            self.aborts += 1
            if pending.on_done:
                pending.on_done(False)
            return
        # Commit: our tentative entry becomes real, and the "viewer
        # state" (NetCommit) replaces the successor's reservation.
        self.view.replace_reservation(pending.entry_id, pending.viewer_id)
        self.network.send(
            Message(
                self.address,
                self.successor_address,
                NetCommit(reply.token, pending.viewer_id, reply.reservation_id),
                RESERVATION_BYTES,
            )
        )
        self.commits += 1
        if pending.on_done:
            pending.on_done(True)

    # ------------------------------------------------------------------
    # Successor side
    # ------------------------------------------------------------------
    def _on_query(self, query: ReserveQuery, from_address: str) -> None:
        if self.view.can_insert(query.offset, query.bitrate_bps):
            entry = self.view.insert(
                query.viewer_id, query.offset, query.bitrate_bps, reservation=True
            )
            reply = ReserveReply(query.token, True, entry.entry_id)
        else:
            reply = ReserveReply(query.token, False)
        self.network.send(
            Message(self.address, from_address, reply, RESERVATION_BYTES)
        )

    def _on_commit(self, commit: NetCommit) -> None:
        self.view.replace_reservation(commit.reservation_id, commit.viewer_id)

    def _on_abort(self, abort: NetAbort) -> None:
        self.view.remove(abort.reservation_id)

    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, ReserveQuery):
            self._on_query(payload, message.src)
        elif isinstance(payload, ReserveReply):
            self._on_reply(payload)
        elif isinstance(payload, NetCommit):
            self._on_commit(payload)
        elif isinstance(payload, NetAbort):
            self._on_abort(payload)
        else:
            raise TypeError(
                f"{self.name}: unexpected payload {type(payload).__name__}"
            )
