"""Online restriping: a journaled background rebalancer (§2.2, live).

:mod:`repro.storage.restripe` plans moves and estimates their cost
against idle resources; this module *executes* a plan while the
system keeps serving viewers.  The :class:`OnlineRestriper` is written
against the Runtime/Transport contracts (``sim`` with
``now``/``call_at``/``call_after``; ``network`` with
``send``/``send_paced``), so the identical class drives a restripe on
the DES and the live asyncio backend.

Robustness model
----------------
* **Dual presence** — a block stays readable at its old disk until the
  new copy is acknowledged durable *and* journaled committed; the cub
  read path only redirects after a :class:`RestripeCommit`.  The
  ``restripe-presence`` InvariantMonitor check enforces this.
* **Write-ahead journal** — every move records an intent before it
  runs and a commit when durable (:class:`~repro.storage.journal
  .MoveJournal`).  A restriper rebuilt from the journal skips
  committed moves (never-run-twice) and re-issues pending intents
  (idempotent), converging to a bit-identical placement fingerprint.
* **Retry / suspend** — failed or timed-out moves retry with
  exponential backoff; ``suspend_after`` consecutive failures of one
  move suspend the whole restripe for operator attention (the
  unraid-rebalancer direction named in ROADMAP).  ``resume()`` —
  called automatically when a crashed cub recovers — continues.
* **Throttle** — per-cub launches are paced so restripe traffic never
  exceeds ``throttle`` of a cub's NIC, and source cubs defer copy
  reads while scheduled work is queued on the disk: moves only
  consume slot-idle time.

Both halves of the wire protocol live here: :class:`OnlineRestriper`
(built by :func:`make_restriper`) sends ``RestripeCopy`` /
``RestripeCommit`` and consumes ``RestripeAck``; the
:class:`CubRestripeService` that :func:`attach_restripe` plugs into
every cub a host builds answers them.  Every move stays inside one
cub — a block's schedule slot is anchored to its cub (§2.2, §4.1.1) —
so a copy is disk to disk on the cub that owns both.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set

from repro.core.protocol import (
    RestripeAck,
    RestripeCommit,
    RestripeCopy,
    cub_address,
)
from repro.disk.zones import ZONE_OUTER
from repro.net.message import KIND_CONTROL, REQUEST_BYTES, Message
from repro.net.node import NetworkNode
from repro.obs.registry import MetricsRegistry
from repro.storage.blockindex import BlockLocation
from repro.storage.catalog import TigerFile
from repro.storage.journal import MoveJournal
from repro.storage.layout import StripeLayout
from repro.storage.restripe import BlockMove, RestripePlan, plan_restripe

if TYPE_CHECKING:
    from repro.core.cub import Cub

#: Network address the restriper listens on (both backends).
RESTRIPER_ADDRESS = "restriper"

#: Per-move lifecycle states.
MOVE_PENDING = "pending"
MOVE_COPYING = "copying"
MOVE_COMMITTED = "committed"
MOVE_SKIPPED = "skipped"  # already committed in a prior (crashed) run


def plan_rebalance(
    layout: StripeLayout,
    weighted: StripeLayout,
    files: Sequence[TigerFile],
    block_bytes_for: Dict[int, int],
) -> RestripePlan:
    """Plan the capacity-weighted rebalance of a running system.

    ``weighted`` must be the same geometry as ``layout`` with capacity
    weights applied (see :meth:`StripeLayout.with_weights`); the plan
    is :func:`plan_restripe`'s, moving blocks from their ring position
    to their weighted placement.  That placement preserves cub
    ownership, so every move is intra-cub — the distributed schedule
    never changes hands and the plan is fully executable under live
    traffic.
    """
    if (layout.num_cubs, layout.disks_per_cub) != (
        weighted.num_cubs,
        weighted.disks_per_cub,
    ):
        raise ValueError("rebalance requires identical geometry")
    return plan_restripe(layout, weighted, files, block_bytes_for)


def arm_rebalance(
    host: Any,
    weights: Sequence[int],
    throttle: float,
    start_at: float,
    journal_path: Optional[str] = None,
) -> "OnlineRestriper":
    """Arm a capacity-weighted rebalance of ``host``'s content.

    The one weights → plan → journal → attach → scheduled-start
    sequence behind ``demo``/``chaos``/``cluster`` and the
    ``--compare-sim`` replay.  ``host`` is any assembly
    (:class:`~repro.core.world.World`) that can ``attach_restriper``.
    Layout and content are pure functions of the config, so every host
    plans the *identical* move list.  The weighted layout keeps the
    geometry (same cubs, same disks) and only re-spreads blocks inside
    each cub, so the plan is fully executable under live traffic.  With
    a journal path, a journal left by a crashed run is loaded and the
    restripe *resumes* — committed moves are never re-run.
    """
    weighted = host.layout.with_weights(weights)
    files = host.catalog.files()
    block_bytes = {
        entry.file_id: entry.content_bytes_per_block for entry in files
    }
    plan = plan_rebalance(host.layout, weighted, files, block_bytes)
    journal = MoveJournal.load(journal_path) if journal_path else None
    restriper = host.attach_restriper(
        plan, journal=journal, throttle=throttle
    )
    host.runtime.call_at(start_at, restriper.start)
    return restriper


def plan_fingerprint(plan: RestripePlan) -> str:
    """Stable identity of a plan (journal/plan pairing check)."""
    digest = hashlib.sha256()
    digest.update(
        f"{plan.old_layout.num_cubs}x{plan.old_layout.disks_per_cub}->"
        f"{plan.new_layout.num_cubs}x{plan.new_layout.disks_per_cub}:"
        f"{plan.new_layout.disk_weights}\n".encode()
    )
    for move in plan.moves:
        digest.update(
            f"{move.file_id}:{move.block_index}:{move.src_disk}:"
            f"{move.dst_disk}:{move.size_bytes}\n".encode()
        )
    return digest.hexdigest()


def placement_fingerprint(plan: RestripePlan, committed: Set[int]) -> str:
    """SHA-256 of the final block placement the journal implies.

    Every planned block lands at its destination disk if its move
    committed, else it is still at its source.  Two runs that commit
    the same move set — e.g. an undisturbed run and a crash-resumed
    one — fingerprint identically, bit for bit.
    """
    digest = hashlib.sha256()
    rows = []
    for move_id, move in enumerate(plan.moves):
        final = move.dst_disk if move_id in committed else move.src_disk
        rows.append(f"{move.file_id}:{move.block_index}:{final}")
    for row in sorted(rows):
        digest.update(row.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def make_restriper(
    world: Any, plan: RestripePlan, **options: Any
) -> "OnlineRestriper":
    """A restriper on ``world``'s backend that will execute ``plan`` once
    started; ``options`` are :class:`OnlineRestriper`'s (``journal``,
    ``throttle``, ``ack_timeout``, ``retry_base``, ``suspend_after``)."""
    return OnlineRestriper(
        world.runtime, world.config, plan, world.network,
        tracer=world.tracer, registry=world.registry, **options,
    )


class OnlineRestriper(NetworkNode):
    """Executes a :class:`RestripePlan` in the background of a live
    system, one journaled move at a time, throttled per source cub."""

    def __init__(
        self,
        sim: Any,
        config: Any,
        plan: RestripePlan,
        network: Any,
        journal: Optional[MoveJournal] = None,
        throttle: float = 0.25,
        ack_timeout: Optional[float] = None,
        retry_base: float = 0.5,
        suspend_after: int = 3,
        tracer: Any = None,
        registry: Any = None,
    ) -> None:
        super().__init__(sim, RESTRIPER_ADDRESS, tracer)
        if not 0.0 < throttle <= 1.0:
            raise ValueError("throttle must be in (0, 1]")
        if suspend_after < 1:
            raise ValueError("suspend_after must be >= 1")
        self.config = config
        self.plan = plan
        self.network = network
        self.layout = plan.old_layout  # the running system's geometry
        for move in plan.moves:
            if move.src_disk >= self.layout.num_disks:
                raise ValueError(
                    f"move source disk {move.src_disk} not in the running "
                    f"system ({self.layout.num_disks} disks)"
                )
            if move.dst_disk >= self.layout.num_disks:
                raise ValueError(
                    f"move destination disk {move.dst_disk} not in the "
                    f"running system ({self.layout.num_disks} disks); "
                    "growth restripes execute on the expanded system"
                )
            if self.layout.cub_of_disk(move.src_disk) != (
                self.layout.cub_of_disk(move.dst_disk)
            ):
                raise ValueError(
                    f"move from disk {move.src_disk} to disk "
                    f"{move.dst_disk} crosses cubs; a block's schedule "
                    "slot is anchored to its cub"
                )
        self.journal = journal if journal is not None else MoveJournal()
        self.throttle = throttle
        self.retry_base = retry_base
        self.suspend_after = suspend_after
        #: Copy round trip: off-schedule read + write + control hops,
        #: with slack for deferrals at a loaded disk.
        self.ack_timeout = (
            ack_timeout
            if ack_timeout is not None
            else 6.0 * config.block_play_time + 1.0
        )

        self.journal.record_plan(plan_fingerprint(plan), len(plan.moves))

        #: Per-move state / consecutive-failure counters.
        self.move_state: List[str] = []
        self.failures: List[int] = [0] * len(plan.moves)
        #: Serving cub for each move's source disk, plan order.
        self._queues: Dict[int, List[int]] = {}
        skipped = 0
        for move_id, move in enumerate(plan.moves):
            if self.journal.is_committed(move_id):
                # Resumed from a prior run: never run the move again.
                self.move_state.append(MOVE_SKIPPED)
                skipped += 1
                continue
            self.move_state.append(MOVE_PENDING)
            cub = self.layout.cub_of_disk(move.src_disk)
            self._queues.setdefault(cub, []).append(move_id)

        self._timeouts: Dict[int, Any] = {}
        self.started = False
        self.paused = False
        self.suspended = False
        self.aborted = False
        self.finished = False
        self.finished_at: Optional[float] = None
        self.started_at: Optional[float] = None

        self.registry = registry if registry is not None else MetricsRegistry()
        metric = self.registry.counter
        self.moves_planned = metric(
            "restripe.moves_planned",
            help="Block moves in the active restripe plan", unit="moves")
        self.moves_committed = metric(
            "restripe.moves_committed",
            help="Moves journaled durable at their destination",
            unit="moves")
        self.moves_skipped = metric(
            "restripe.moves_skipped",
            help="Moves skipped on resume because a prior run committed "
                 "them (never-run-twice guard)", unit="moves")
        self.bytes_moved = metric(
            "restripe.bytes_moved",
            help="Payload bytes copied to destination disks", unit="bytes")
        self.retries = metric(
            "restripe.retries",
            help="Move attempts re-issued after a failure or timeout",
            unit="attempts")
        self.suspensions = metric(
            "restripe.suspensions",
            help="Times repeated move failures suspended the restripe",
            unit="events")
        self.moves_planned.increment(len(plan.moves))
        if skipped:
            self.moves_skipped.increment(skipped)

    # ------------------------------------------------------------------
    # Lifecycle / operator controls
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin (or resume after a crash) executing the plan."""
        if self.started:
            return
        self.started = True
        self.started_at = self.sim.now
        # Re-assert committed moves at their serving cubs: a resumed
        # restripe may hold commits the (rebooted) cub never applied.
        for move_id, state in enumerate(self.move_state):
            if state == MOVE_SKIPPED:
                self._send_commit(move_id)
        if not self._queues and not self.finished:
            self._maybe_finish()
            return
        for cub in list(self._queues):
            self._launch_next(cub)

    def pause(self) -> None:
        """Stop launching new moves; in-flight copies finish."""
        if not self.paused:
            self.paused = True
            self.trace("restripe.pause", "restripe paused")

    def resume(self) -> None:
        """Continue after a pause or a failure suspension."""
        if self.aborted or self.finished:
            return
        resumed = self.paused or self.suspended
        self.paused = False
        if self.suspended:
            self.suspended = False
            self.failures = [0] * len(self.plan.moves)
        if resumed:
            self.trace("restripe.resume", "restripe resumed")
            for cub in list(self._queues):
                self._launch_next(cub)

    def abort(self, reason: str = "operator abort") -> None:
        """Permanently stop; journal the abort.  Committed moves stay
        committed (the redirected blocks are valid); pending moves are
        simply never run — dual presence keeps their source copies
        serving."""
        if self.aborted:
            return
        self.aborted = True
        self.journal.record_abort(reason)
        for event in self._timeouts.values():
            event.cancel()
        self._timeouts.clear()
        self.cancel_timers()
        self.trace("restripe.abort", f"restripe aborted: {reason}")

    def notify_cub_recovered(self, cub_id: int) -> None:
        """A crashed cub came back: auto-resume a failure suspension
        (the repair the suspension was waiting for)."""
        if self.suspended and not self.aborted:
            self.trace(
                "restripe.resume",
                f"cub {cub_id} recovered, auto-resuming", cub=cub_id,
            )
            self.resume()

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def progress_ratio(self) -> float:
        if not self.plan.moves:
            return 1.0
        done = sum(
            1 for s in self.move_state if s in (MOVE_COMMITTED, MOVE_SKIPPED)
        )
        return done / len(self.plan.moves)

    def in_flight(self) -> int:
        return sum(1 for s in self.move_state if s == MOVE_COPYING)

    def result_fingerprint(self) -> str:
        return placement_fingerprint(self.plan, self.journal.committed)

    def export_gauges(self) -> None:
        """Publish point-in-time progress beside the live counters."""
        gauge = self.registry.gauge
        gauge("restripe.progress_ratio",
              help="Fraction of planned moves committed (or skipped "
                   "as already committed on resume)",
              unit="ratio").set(self.progress_ratio())
        gauge("restripe.in_flight",
              help="Moves currently copying", unit="moves").set(
                  self.in_flight())
        gauge("restripe.suspended",
              help="1 while repeated move failures hold the "
                   "restripe suspended",
              unit="bool").set(1.0 if self.suspended else 0.0)

    # ------------------------------------------------------------------
    # Move machinery
    # ------------------------------------------------------------------
    def _launch_gap(self, move: BlockMove) -> float:
        """Pacing interval keeping restripe NIC use under ``throttle``."""
        return move.size_bytes / (self.throttle * self.config.cub_nic_bps)

    def _halted(self) -> bool:
        return self.paused or self.suspended or self.aborted or self.failed

    def _launch_next(self, cub: int) -> None:
        if self._halted():
            return
        queue = self._queues.get(cub)
        if not queue:
            self._queues.pop(cub, None)
            self._maybe_finish()
            return
        move_id = queue[0]
        if self.move_state[move_id] == MOVE_COPYING:
            return  # already in flight (resume raced a retry timer)
        self._launch(move_id)

    def _launch(self, move_id: int) -> None:
        move = self.plan.moves[move_id]
        attempt = self.failures[move_id]
        self.journal.record_intent(move_id, attempt)
        self.move_state[move_id] = MOVE_COPYING
        copy = RestripeCopy(
            move_id=move_id,
            file_id=move.file_id,
            block_index=move.block_index,
            src_disk=move.src_disk,
            dst_disk=move.dst_disk,
            size_bytes=move.size_bytes,
        )
        cub = self.layout.cub_of_disk(move.src_disk)
        self.network.send(
            Message(
                self.address, cub_address(cub), copy, REQUEST_BYTES,
                kind=KIND_CONTROL,
            )
        )
        self._timeouts[move_id] = self.after(
            self.ack_timeout, self._on_timeout, move_id
        )

    def handle_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, RestripeAck):
            self._on_ack(payload)
        else:
            raise TypeError(
                f"{self.name}: unexpected payload {type(payload).__name__}"
            )

    def _on_ack(self, ack: Any) -> None:
        move_id = ack.move_id
        if self.aborted or self.move_state[move_id] != MOVE_COPYING:
            return  # stale ack (e.g. a timed-out attempt completing late)
        timeout = self._timeouts.pop(move_id, None)
        if timeout is not None:
            timeout.cancel()
        if ack.ok:
            self._commit(move_id)
        else:
            self._fail(move_id, ack.detail or "destination rejected move")

    def _on_timeout(self, move_id: int) -> None:
        if self.aborted or self.move_state[move_id] != MOVE_COPYING:
            return
        self._timeouts.pop(move_id, None)
        self._fail(move_id, "ack timeout")

    def _commit(self, move_id: int) -> None:
        move = self.plan.moves[move_id]
        self.journal.record_commit(move_id)
        self.move_state[move_id] = MOVE_COMMITTED
        self.failures[move_id] = 0
        self.moves_committed.increment()
        self.bytes_moved.increment(move.size_bytes)
        src_cub = self.layout.cub_of_disk(move.src_disk)
        queue = self._queues.get(src_cub)
        if queue and queue[0] == move_id:
            queue.pop(0)
        self._send_commit(move_id)
        if self.tracer is not None and getattr(self.tracer, "enabled", False):
            self.trace(
                "restripe.move",
                f"move {move_id} committed",
                file=move.file_id, block=move.block_index,
                src=move.src_disk, dst=move.dst_disk,
            )
        if not self._halted():
            # Next launch honours the throttle pacing window.
            self.after(self._launch_gap(move), self._launch_next, src_cub)
        self._maybe_finish()

    def _send_commit(self, move_id: int) -> None:
        """Cut reads over at the serving cub (idempotent)."""
        move = self.plan.moves[move_id]
        src_cub = self.layout.cub_of_disk(move.src_disk)
        commit = RestripeCommit(
            move_id=move_id,
            file_id=move.file_id,
            block_index=move.block_index,
            src_disk=move.src_disk,
            dst_disk=move.dst_disk,
        )
        self.network.send(
            Message(
                self.address, cub_address(src_cub), commit, REQUEST_BYTES,
                kind=KIND_CONTROL,
            )
        )

    def _fail(self, move_id: int, detail: str) -> None:
        self.move_state[move_id] = MOVE_PENDING
        self.failures[move_id] += 1
        self.retries.increment()
        failures = self.failures[move_id]
        self.trace(
            "restripe.retry",
            f"move {move_id} failed ({detail}), {failures} consecutive",
            move=move_id,
        )
        if failures >= self.suspend_after:
            self.suspended = True
            self.suspensions.increment()
            self.trace(
                "restripe.suspend",
                f"move {move_id} failed {failures}x ({detail}); "
                "suspending restripe",
                move=move_id,
            )
            return
        backoff = self.retry_base * (2 ** (failures - 1))
        move = self.plan.moves[move_id]
        cub = self.layout.cub_of_disk(move.src_disk)
        self.after(backoff, self._launch_next, cub)

    def _maybe_finish(self) -> None:
        if self.finished or self.aborted:
            return
        if any(
            state in (MOVE_PENDING, MOVE_COPYING) for state in self.move_state
        ):
            return
        self.finished = True
        self.finished_at = self.sim.now
        fingerprint = self.result_fingerprint()
        self.journal.record_done(fingerprint)
        elapsed = (
            self.finished_at - self.started_at
            if self.started_at is not None else 0.0
        )
        self.trace(
            "restripe.done",
            f"restripe complete in {elapsed:.1f}s, "
            f"placement {fingerprint[:12]}…",
        )


def attach_restripe(cub: Cub) -> "CubRestripeService":
    """The restripe tier's plug, for every cub a host builds (a live cub
    cannot know whether the driver will restripe): it answers copies
    and commits."""
    return CubRestripeService(cub)


class CubRestripeService:
    """The cub-side half of the protocol: copy, stage, cut over.

    Every action is scheduled through the cub's own ``after()``, so
    powering the cub off cancels the copies it had in flight.
    """

    #: Consecutive slot-period deferrals before a copy read proceeds
    #: anyway (the off-schedule read cannot displace queued scheduled
    #: reads in any case; deferring models yielding the head).
    MAX_DEFERRALS = 8

    def __init__(self, cub: Cub) -> None:
        self.cub = cub
        #: Restriped copies written but not yet committed, by move id.
        #: Cleared on recover: an unacknowledged write is presumed
        #: lost and the restriper's retry re-creates it (idempotent).
        self.staged: Dict[int, BlockLocation] = {}
        metric = cub.registry.counter
        self.copies_served = metric(
            "cub.restripe_copies_served",
            help="Restripe block copies read off-schedule from this cub",
            unit="blocks", cub=cub.cub_id)
        self.deferrals = metric(
            "cub.restripe_deferrals",
            help="Restripe copy reads deferred while scheduled work "
                 "was queued on the source disk",
            unit="deferrals", cub=cub.cub_id)
        self.commits = metric(
            "cub.restripe_commits",
            help="Migration-map cutovers applied from restripe commits",
            unit="moves", cub=cub.cub_id)
        cub.handlers[RestripeCopy] = self._on_copy
        cub.handlers[RestripeCommit] = self._on_commit
        cub.on_recover.append(self.staged.clear)

    def _ack(
        self, requester: str, move_id: int, ok: bool, detail: str = ""
    ) -> None:
        self.cub.network.send(
            Message(
                self.cub.address, requester,
                RestripeAck(move_id, ok, detail), REQUEST_BYTES,
            )
        )

    def _on_copy(
        self, copy: RestripeCopy, requester: str, deferrals: int = 0
    ) -> None:
        """Copy one block off-schedule between two of this cub's disks.

        Same spare-bandwidth rule as helper fetches: the read never
        enters the per-disk scheduled queues, and it additionally
        *defers* (one slot period at a time) while the source disk has
        scheduled work queued, so restripe reads only consume
        slot-idle disk time.  The write costs about a read on the
        destination's outer zone.
        """
        cub = self.cub
        disk = cub.disks.get(copy.src_disk)
        if disk is None:
            self._ack(
                requester, copy.move_id, False,
                f"disk {copy.src_disk} not on cub {cub.cub_id}")
            return
        if disk.failed:
            self._ack(
                requester, copy.move_id, False,
                f"source disk {copy.src_disk} failed")
            return
        location = cub.block_index.lookup_primary(
            copy.file_id, copy.block_index
        )
        if location is None:
            self._ack(
                requester, copy.move_id, False,
                f"no primary entry for file {copy.file_id} "
                f"block {copy.block_index}")
            return
        if disk.queue_backlog > 0 and deferrals < self.MAX_DEFERRALS:
            self.deferrals.increment()
            cub.after(
                cub.config.block_service_time,
                self._on_copy, copy, requester, deferrals + 1,
            )
            return
        read_time = cub.config.disk.expected_read_time(
            location.zone, copy.size_bytes
        )
        cub.cpu.add_busy(
            cub.sim.now, copy.size_bytes * cub.config.cpu_per_data_byte
        )
        self.copies_served.increment()
        write_time = cub.config.disk.expected_read_time(
            ZONE_OUTER, copy.size_bytes
        )
        cub.after(read_time + write_time, self._finish, copy, requester)

    def _finish(self, copy: RestripeCopy, requester: str) -> None:
        dst = self.cub.disks.get(copy.dst_disk)
        if dst is None or dst.failed:
            self._ack(
                requester, copy.move_id, False,
                f"destination disk {copy.dst_disk} failed")
            return
        self.staged[copy.move_id] = BlockLocation(
            copy.dst_disk, ZONE_OUTER, copy.size_bytes
        )
        self._ack(requester, copy.move_id, True)

    def _on_commit(self, commit: RestripeCommit, _sender: str) -> None:
        """Cut the scheduled read path over to the migrated copy.

        Idempotent: replaying a commit (journal resume, duplicated
        message) is a no-op.  The old index entry is never removed —
        dual presence is what lets an aborted or crashed restripe keep
        serving from the source copies.
        """
        cub = self.cub
        migrations = cub.block_index.migrations
        key = (commit.file_id, commit.block_index)
        if key in migrations:
            return
        if commit.dst_disk not in cub.disks:
            return  # not the serving cub for this move (stale commit)
        staged = self.staged.pop(commit.move_id, None)
        if staged is None:
            # Commit replay after a reboot dropped the staging record:
            # rebuild the location from the commit itself.
            entry = cub.catalog.get(commit.file_id)
            staged = BlockLocation(
                commit.dst_disk, ZONE_OUTER, entry.content_bytes_per_block
            )
        migrations[key] = staged
        self.commits.increment()
