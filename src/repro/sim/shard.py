"""A partitioned discrete-event kernel: shard lanes with conservative
lookahead.

The single-heap :class:`~repro.sim.core.Simulator` funnels every event
in the system through one Python heap, which is the scaling wall the
1000-cub scenarios hit.  This module partitions the kernel the way a
distributed Tiger partitions the machine room: each **shard lane** owns
the timeline of one cub group, and cross-shard traffic travels over
**boundary channels** as timestamped messages, exactly as it would over
sockets between simulation worker processes.

Correctness argument (why sharded == single-heap, bit for bit)
--------------------------------------------------------------
Events carry a globally ordered key ``(time, priority, seq)``.  The
sharded kernel dispatches by K-way merge over the lane heads, i.e. in
the *identical total order* the single heap would produce; every
callback therefore observes identical state, draws the same RNG values
in the same order, and bumps the same counters.  Equality of the seven
protocol counters is by construction, not by tolerance — the
differential suite (``tests/test_shard_differential.py``) pins it.

Conservative lookahead (why the partitioning is distributable)
--------------------------------------------------------------
The merge needs lane heads to be *complete*: no event may appear in a
lane's past.  In a distributed deployment that is guaranteed by the
Chandy-Misra-Bryant rule: a shard that has advanced to ``t`` promises
never to send an event due before ``t + L``, where the lookahead ``L``
is the minimum cross-shard link latency — in Tiger, the switch fabric's
base propagation latency (``TigerConfig.net_base_latency``).  Viewer-
state forwarding is ring-local, so with contiguous cub groups nearly
all schedule traffic stays on-shard and the channels carry only the
thin group-boundary slice.

This kernel *enforces* that rule: the run loop advances in windows of
width ``L`` past the global horizon; cross-shard sends inside a window
are parked in the destination channel and drained at the window
boundary, with a **null message** advancing the channel clock whenever
a window carries no payload.  A send that violates the lookahead bound
(arrival < now + L) is still delivered exactly (determinism is
unconditional) but counted in ``lookahead_violations`` — the shard-
smoke CI job asserts that counter stays zero, which is the evidence
that Tiger's traffic really is PDES-safe at this partitioning.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.core import SimulationError, TombstoneHeap
from repro.sim.events import PRIORITY_NORMAL, Event

#: Slack used when testing the lookahead bound, so that float noise in
#: ``now + latency`` arithmetic is not misread as a protocol violation.
_LOOKAHEAD_SLACK = 1e-12


class ShardLane:
    """One partition's event timeline (a cub group's private heap)."""

    __slots__ = ("index", "heap", "events_dispatched")

    def __init__(self, index: int) -> None:
        self.index = index
        self.heap = TombstoneHeap()
        #: Callbacks executed on this lane (the load-balance signal).
        self.events_dispatched = 0

    def _note_cancelled(self) -> None:
        """Event.cancel() notification — same contract as Simulator."""
        self.heap.note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardLane {self.index} pending={len(self.heap)} "
            f"dispatched={self.events_dispatched}>"
        )


class BoundaryChannel:
    """A directed, timestamped event link between two shard lanes.

    ``clock`` is the conservative-PDES promise: the source lane will
    never deliver another event on this channel due before ``clock``.
    Payload messages advance it implicitly; empty windows advance it
    with a null message so the destination never blocks on a silent
    neighbour.
    """

    __slots__ = (
        "src",
        "dst",
        "clock",
        "pending",
        "messages",
        "null_messages",
        "violations",
    )

    def __init__(self, src: int, dst: int, start_time: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.clock = float(start_time)
        #: Events parked until the current window closes.
        self.pending: List[Event] = []
        #: Payload (real event) messages carried.
        self.messages = 0
        #: Clock-only advancements (windows with no payload).
        self.null_messages = 0
        #: Sends whose arrival undercut ``now + lookahead``.
        self.violations = 0


class ShardedSimulator:
    """A deterministic sharded discrete-event simulator.

    Satisfies the :class:`repro.runtime.Runtime` backend contract
    (``now`` + ``call_at`` / ``call_after`` returning cancellable
    handles) and mirrors :class:`~repro.sim.core.Simulator`'s run
    semantics (``until`` / ``max_events`` / ``stop`` / pending-stop),
    so it drops into :class:`~repro.core.tiger.TigerSystem` unchanged.

    Placement: components are pinned to lanes with :meth:`pin` (by
    network address); events scheduled *during* a callback inherit the
    dispatching lane, so a cub's self-timers stay on its shard.  The
    switch fabric routes deliveries with :meth:`call_at_node`, which is
    the only path that crosses lanes — through a boundary channel.
    """

    def __init__(
        self,
        shards: int,
        lookahead: float,
        start_time: float = 0.0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if lookahead <= 0:
            raise ValueError(
                f"conservative lookahead must be positive, got {lookahead!r}"
            )
        self._now = float(start_time)
        self.lookahead = float(lookahead)
        self.lanes: List[ShardLane] = [ShardLane(i) for i in range(shards)]
        self._channels: Dict[Tuple[int, int], BoundaryChannel] = {
            (src, dst): BoundaryChannel(src, dst, start_time)
            for src in range(shards)
            for dst in range(shards)
            if src != dst
        }
        self._pins: Dict[str, int] = {}
        #: Lane whose event is currently executing (dispatch affinity).
        self._current_lane: Optional[ShardLane] = None
        self._events_dispatched = 0
        self._running = False
        self._stopped = False
        self._profiler: Optional[Any] = None
        #: Completed conservative windows.
        self.windows = 0

    # ------------------------------------------------------------------
    # Clock and counters
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds (global across lanes)."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Total callbacks executed across every lane."""
        return self._events_dispatched

    @property
    def num_shards(self) -> int:
        return len(self.lanes)

    @property
    def cross_shard_messages(self) -> int:
        """Payload events that crossed a lane boundary."""
        return sum(c.messages for c in self._channels.values())

    @property
    def null_messages(self) -> int:
        """Clock-only channel advancements (empty windows)."""
        return sum(c.null_messages for c in self._channels.values())

    @property
    def lookahead_violations(self) -> int:
        """Cross-shard sends that undercut the lookahead bound.

        Zero means the partitioning is PDES-safe: every boundary send
        respected ``arrival >= now + lookahead``, so a truly distributed
        run with these channels would never need a rollback.
        """
        return sum(c.violations for c in self._channels.values())

    # ------------------------------------------------------------------
    # Profiling (same surface as Simulator)
    # ------------------------------------------------------------------
    @property
    def profiler(self) -> Optional[Any]:
        return self._profiler

    def set_profiler(self, profiler: Optional[Any]) -> None:
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def pin(self, address: str, shard: int) -> None:
        """Pin a network address to a shard lane.

        Unpinned addresses fall to lane 0 (the controller/client lane).
        """
        if not 0 <= shard < len(self.lanes):
            raise ValueError(
                f"shard {shard} out of range for {len(self.lanes)} lanes"
            )
        self._pins[address] = shard

    def lane_of(self, address: str) -> int:
        """The lane an address is pinned to (lane 0 when unpinned)."""
        return self._pins.get(address, 0)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _target_lane(self) -> ShardLane:
        """Lane for plain ``call_at``: the dispatching lane, else 0.

        Affinity inheritance keeps component self-timers (heartbeats,
        service pumps, deadman checks) on the component's own shard
        without every call site naming an address.
        """
        lane = self._current_lane
        return lane if lane is not None else self.lanes[0]

    def call_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        return self._schedule(self._target_lane(), time, fn, args, priority)

    def call_after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._schedule(
            self._target_lane(), self._now + delay, fn, args, priority
        )

    def call_at_node(
        self,
        address: str,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``fn(*args)`` at ``time`` on ``address``'s lane.

        The fabric's delivery path: when the destination lane differs
        from the lane currently dispatching, the event travels through
        the boundary channel — parked until the window closes, with the
        lookahead rule enforced and violations counted.
        """
        dst = self.lanes[self.lane_of(address)]
        src = self._current_lane
        if src is None or src is dst:
            return self._schedule(dst, time, fn, args, priority)
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, now is t={self._now:.9f}"
            )
        channel = self._channels[(src.index, dst.index)]
        channel.messages += 1
        event = Event(time, fn, args, priority=priority)
        if time < self._now + self.lookahead - _LOOKAHEAD_SLACK:
            # Undercuts the conservative promise.  A distributed run
            # would have to roll back here; we count the violation and
            # deliver exactly so determinism is unconditional.
            channel.violations += 1
            event.owner = dst
            dst.heap.push(event)
            return event
        if self._running:
            # Lookahead-safe: arrival >= now + L >= horizon + L, i.e.
            # strictly past the current window, so parking it until the
            # boundary cannot perturb the merge order.
            channel.pending.append(event)
        else:
            # No window machinery active (single-step debugging, setup
            # code) — the merge sees the lane heap directly.
            event.owner = dst
            dst.heap.push(event)
        return event

    def _schedule(
        self,
        lane: ShardLane,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        priority: int,
    ) -> Event:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, now is t={self._now:.9f}"
            )
        event = Event(time, fn, args, priority=priority)
        event.owner = lane
        lane.heap.push(event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _min_lane(self) -> Optional[ShardLane]:
        """The lane holding the globally next event (K-way merge head)."""
        best: Optional[ShardLane] = None
        best_key = None
        for lane in self.lanes:
            event = lane.heap.peek()
            if event is None:
                continue
            key = event.sort_key()
            if best_key is None or key < best_key:
                best = lane
                best_key = key
        return best

    def _dispatch(self, lane: ShardLane) -> None:
        event = lane.heap.pop()
        self._now = event.time
        self._events_dispatched += 1
        lane.events_dispatched += 1
        self._current_lane = lane
        try:
            if self._profiler is None:
                event.fn(*event.args)
            else:
                started = perf_counter()
                event.fn(*event.args)
                self._profiler.record(
                    event.fn, perf_counter() - started, self._now
                )
        finally:
            self._current_lane = None

    def _drain_channels(self) -> int:
        """Move parked channel events into their destination heaps."""
        moved = 0
        for channel in self._channels.values():
            if not channel.pending:
                continue
            dst = self.lanes[channel.dst]
            for event in channel.pending:
                if event.cancelled:
                    continue
                event.owner = dst
                dst.heap.push(event)
                moved += 1
            channel.pending.clear()
        return moved

    def _close_window(self, window_end: float) -> None:
        """Window boundary: deliver payloads, advance channel clocks.

        A channel that carried no payload this window still advances its
        clock — the null message that keeps a distributed receiver from
        deadlocking on a silent neighbour.
        """
        for channel in self._channels.values():
            if channel.pending:
                dst = self.lanes[channel.dst]
                for event in channel.pending:
                    if event.cancelled:
                        continue
                    event.owner = dst
                    dst.heap.push(event)
                channel.pending.clear()
            elif channel.clock < window_end:
                channel.null_messages += 1
            if channel.clock < window_end:
                channel.clock = window_end
        self.windows += 1

    def step(self) -> bool:
        """Dispatch the globally next active event (merge order).

        Returns False when every lane is idle.  Outside :meth:`run` the
        channels hold nothing (cross-lane sends push directly), so the
        lane heaps are the complete picture.
        """
        lane = self._min_lane()
        if lane is None:
            return False
        self._dispatch(lane)
        return True

    def peek_time(self) -> Optional[float]:
        """Time of the globally next active event, or None."""
        lane = self._min_lane()
        if lane is None:
            return None
        return lane.heap.peek().time

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run in conservative windows until idle, ``until``, or budget.

        Same external semantics as :meth:`Simulator.run`: the clock
        advances to exactly ``until`` unless earlier events remain
        undispatched, a pending :meth:`stop` aborts the run, and each
        run consumes at most one stop request.
        """
        if self._running:
            raise SimulationError("ShardedSimulator.run is not reentrant")
        self._running = True
        dispatched = 0
        try:
            while not self._stopped:
                if max_events is not None and dispatched >= max_events:
                    break
                horizon = self.peek_time()
                if horizon is None:
                    # Lanes idle; parked boundary traffic may still be
                    # in flight — deliver it and retry.
                    if self._drain_channels():
                        continue
                    break
                if until is not None and horizon > until:
                    break
                window_end = horizon + self.lookahead
                # Dispatch, in exact global merge order, every event due
                # strictly before the window closes.  Lookahead-safe
                # cross-shard sends land at >= window_end, so the merge
                # inside the window never misses one.
                while not self._stopped:
                    if max_events is not None and dispatched >= max_events:
                        break
                    lane = self._min_lane()
                    if lane is None:
                        break
                    event_time = lane.heap.peek().time
                    if event_time >= window_end:
                        break
                    if until is not None and event_time > until:
                        break
                    self._dispatch(lane)
                    dispatched += 1
                self._close_window(window_end)
            # Never strand parked events across run calls: the channel
            # queues are window-loop state, not kernel state.
            self._drain_channels()
            pending = self.peek_time()
            if (
                until is not None
                and self._now < until
                and not self._stopped
                and (pending is None or pending > until)
            ):
                self._now = until
        finally:
            self._stopped = False
            self._running = False

    def stop(self) -> None:
        """Request that the current :meth:`run` return after this event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_stats(self) -> Dict[str, Any]:
        """Partitioning evidence for metrics export and the smoke gate."""
        return {
            "shards": len(self.lanes),
            "windows": self.windows,
            "cross_shard_messages": self.cross_shard_messages,
            "null_messages": self.null_messages,
            "lookahead_violations": self.lookahead_violations,
            "lane_events": [lane.events_dispatched for lane in self.lanes],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pending = sum(len(lane.heap) for lane in self.lanes)
        return (
            f"<ShardedSimulator shards={len(self.lanes)} "
            f"now={self._now:.6f} pending={pending} "
            f"dispatched={self._events_dispatched}>"
        )
