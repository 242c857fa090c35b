"""Runtime invariant monitoring, one monitor for both backends.

The :class:`InvariantMonitor` sweeps a running system and checks the
executable form of the paper's correctness argument *while faults are
active*, not just at the end of a test.  Every check is written once,
as a function of the cubs it is given or of the whole system.

**Cub scope** — reads only cub state, so it runs wherever a cub does:
over every living cub of a :class:`~repro.core.tiger.TigerSystem`, and
in a live node process over that node's own cub:

* *index coherence*: a cub's by-play indexes (redundant states by play
  instance, queued starts by instance) name exactly the records their
  stores hold — a deschedule deletes through them without searching,
  so a key missing from one is a record no stop can reach; and every
  record that expires by due time (the view's idempotence set and slot
  states, the redundant states) is listed under that time in its
  expiry index — pruning visits only what is listed, so an unlisted
  record is held forever (§4's bounded view, broken);
* *bounded view*: a schedule view holds O(leads x capacity) records,
  never O(history) (:func:`~repro.core.view.view_size_bound`);
* *bounded forward queues*: a stuck pump would grow them without limit;
* *no double ownership*: no two pending block services hold
  *different* play instances at the same slot visit (the §4.1.3
  ownership protocol's whole purpose);
* *whole-ring-dead belief*: a running cub never believes every
  neighbour it watches dead — with traffic still flowing, that means
  its own receive path wedged.

**System scope** — needs the whole system in one address space, so it
runs only when the monitor is given a ``TigerSystem``:

* *oracle consistency*: the :class:`GlobalSchedule` hallucination has
  at most one entry per slot and no play instance in two slots;
* *delivery conservation*: for every viewer,
  ``received + missed == next_seqno`` and ``corrupt == 0`` — every
  block is accounted exactly once, and nothing cross-wired arrives;
* *restripe presence*: a block being moved never loses its source copy;
* *view coherence*: every play the oracle believes scheduled has a
  witness in the union of living cubs' views (slot state, pending
  service, forward queue, or redundant copy) — an unwitnessed play is
  an orphan that will starve silently;
* *stream liveness*: no unfinished viewer's next-block deadline is long
  past (an undelivered-block leak), and no accepted start stays
  serviceless forever;
* *deadman convergence*: after quiescence, every living cub's liveness
  beliefs about its watched neighbours match reality.

Whole-ring-dead belief, view coherence, stream liveness and deadman
convergence are **staleness-sensitive**: they hold only once in-flight
knowledge has had time to propagate (an isolated cub rightly believes
its neighbours dead until the fault heals), so they stand down inside
the grace windows :meth:`InvariantMonitor.note_fault` opens.  A live
node notes no faults, so there every check is always armed.

Where a violation goes is the host's business.  Given a whole system,
the monitor raises :class:`InvariantViolation` carrying a dump of the
most recent trace records, so a chaos failure arrives with its own
forensics attached.  Given one cub, it counts the violation into
``invariant.violations`` and keeps sweeping; the count streams back to
the cluster driver with every metrics frame, so a cluster run asserts
"zero violations" from the merged metrics alone.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.view import view_size_bound
from repro.core.viewerstate import ViewerState, key_instance
from repro.faults.plan import FaultSpec
from repro.sim.trace import format_trace

_EPS = 1e-9

#: The checks that read only cub state, in sweep order — all a live
#: node runs.
CUB_CHECKS = (
    "index-coherence",
    "view-size",
    "forward-queue",
    "double-ownership",
    "whole-ring-dead",
)

#: Every check name the monitor can run, in sweep order.  Used to
#: pre-register the per-check ``invariant.checks`` and
#: ``invariant.violations`` counters so a clean run still exports a
#: zero-valued series for each check.
CHECK_NAMES = ("oracle",) + CUB_CHECKS + (
    "conservation",
    "restripe-presence",
    "view-coherence",
    "stream-liveness",
    "deadman-convergence",
)


def _pending_sends(cub: Any) -> Iterator[ViewerState]:
    """The primary states ``cub`` has a block send pending for."""
    for _when, kind, state in cub.pending_service_records():
        if kind == "send" and type(state) is ViewerState:
            yield state


class InvariantViolation(AssertionError):
    """A chaos run broke one of the system's correctness invariants."""


def index_incoherence(cub: Any) -> Optional[str]:
    """How ``cub``'s by-play indexes and their stores disagree, if they do.

    Every indexed key is in the owner's held-state store under the play
    that indexes it, every stored key is indexed, and a play's entry is
    one key, or a tuple of two or more — so the index is never larger
    than the store; likewise its instance map and wait queues.
    And every record the view or the store holds is listed under its due
    time in that store's expiry index (a listing may outlive its record;
    a record may never lack its listing).
    """
    owner = cub.owner
    store, index = owner._redundant_states, owner._redundant_index
    indexed = [
        (instance, key)
        for instance, held in index.items()
        for key in ((held,) if type(held) is int else held)
    ]
    if (
        len(indexed) != len(store)
        or {key for _instance, key in indexed} != store.keys()
        or any(key_instance(key) != instance for instance, key in indexed)
        or any(type(held) is not int and len(held) < 2 for held in index.values())
    ):
        return (
            f"redundant index names {len(indexed)} records of {len(index)} "
            f"plays, the store holds {len(store)}"
        )
    queued = [
        request.instance
        for queue in owner._wait_queues.values()
        for request in queue
    ]
    mapped = owner._queued_requests
    if len(queued) != len(mapped) or set(queued) != mapped.keys():
        return (
            f"instance map names {len(mapped)} queued "
            f"starts, the wait queues hold {len(queued)}"
        )
    stranded = cub.view.unexpirable() + len(
        owner._redundant_expiry.unlisted(
            (key, state.due_time) for key, state in store.items()
        )
    )
    if stranded:
        return (
            f"{stranded} records are not listed under their due time in "
            f"their expiry index: no prune would ever drop them"
        )
    return None


class InvariantMonitor:
    """Periodic invariant sweeps over a whole system or one live cub.

    :param world: the :class:`~repro.core.tiger.TigerSystem` to sweep,
        or — with ``cub`` — the :class:`~repro.core.world.World` a live
        node built that cub in (its runtime, registry and tracer).
    :param cub: the one cub a live node runs; only the cub-scope checks
        run over it, and a violation is counted, not raised.
    """

    def __init__(
        self,
        world: Any,
        cub: Any = None,
        period: float = 1.0,
        trace_tail: int = 40,
        startup_grace: float = 30.0,
        stall_grace: Optional[float] = None,
    ) -> None:
        #: The whole system, or None for a one-cub monitor.
        self.system = world if cub is None else None
        self._cubs = world.living_cubs if cub is None else lambda: (cub,)
        self.runtime = world.runtime
        self.tracer = world.tracer
        self.period = period
        self.trace_tail = trace_tail
        #: Longest a requested stream may stay serviceless in calm air.
        self.startup_grace = startup_grace
        self.config = config = world.config
        #: How far past its deadline the next expected block may be.
        self.stall_grace = (
            stall_grace
            if stall_grace is not None
            else 3.0 * config.block_play_time + config.max_vstate_lead
        )
        #: Knowledge-propagation allowance for the view-coherence check.
        self.view_grace = (
            config.max_vstate_lead + 2.0 * config.forward_pump_interval + 1.0
        )
        #: Post-fault settling time before staleness-sensitive checks
        #: re-arm: failure detection plus one full forwarding lead.
        self.settle_margin = (
            config.deadman_timeout + config.max_vstate_lead + 2.0
        )
        #: Most records one cub's view may hold.
        self.view_bound = view_size_bound(config.num_slots)
        #: Most records one cub's two forward queues may hold together.
        self.queue_bound = 8 * config.num_slots + 256
        #: Grace windows (start, end) during which staleness-sensitive
        #: checks stand down; hard safety checks never stand down.
        self._relaxed_windows: List[Tuple[float, float]] = []
        #: Deadman beliefs are only compared to reality after this time.
        self._converge_after = 0.0
        self.checks_run = 0
        self._timer: Any = None
        self._registry = world.registry
        self._labels = {} if cub is None else {"node": cub.name}
        self._sweeps = self._registry.counter(
            "invariant.sweeps",
            help="Full invariant sweeps completed by the monitor",
            unit="sweeps", **self._labels)
        names = CHECK_NAMES if cub is None else CUB_CHECKS
        self._checks = {
            name: self._registry.counter(
                "invariant.checks",
                help="Individual invariant checks executed, by check",
                unit="checks", check=name, **self._labels)
            for name in names
        }
        for name in names:
            self._violations(name)

    def _violations(self, check: str) -> Any:
        return self._registry.counter(
            "invariant.violations",
            help="Invariant violations observed, by check",
            unit="violations", check=check, **self._labels)

    # ------------------------------------------------------------------
    # Fault awareness
    # ------------------------------------------------------------------
    def note_fault(self, spec: FaultSpec) -> None:
        """Open a grace window around one scheduled fault.

        Helper faults open none: a helper owns no schedule state, so
        its death must leave every invariant armed.
        """
        if spec.kind.startswith("helper."):
            return
        self._relaxed_windows.append(
            (spec.start, spec.end + self.settle_margin)
        )
        self._converge_after = max(
            self._converge_after, spec.end + self.settle_margin
        )

    def _relaxed(self, now: float) -> bool:
        return any(
            start <= now < end for start, end in self._relaxed_windows
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Start periodic sweeps (on the DES this keeps one event
        permanently pending, so drive the simulator with
        ``run(until=...)``)."""
        if self._timer is None:
            self._timer = self.runtime.call_after(self.period, self._sweep)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()

    def _sweep(self) -> None:
        self.check_now()
        self._timer = self.runtime.call_after(self.period, self._sweep)

    # ------------------------------------------------------------------
    # Check battery
    # ------------------------------------------------------------------
    def _run(self, name: str, check: Any, *args: Any) -> None:
        check(*args)
        self._checks[name].increment()

    def check_structure(self) -> None:
        """The oracle (given a whole system) and the cub-scope checks:
        all of :meth:`~repro.core.tiger.TigerSystem.assert_invariants`."""
        now = self.runtime.now
        if self.system is not None:
            self._run("oracle", self._check_oracle, now)
        cubs = self._cubs()
        self._run("index-coherence", self._check_index_coherence, now, cubs)
        self._run("view-size", self._check_view_size, now, cubs)
        self._run("forward-queue", self._check_forward_queues, now, cubs)
        self._run("double-ownership", self._check_slot_ownership, now, cubs)
        if not self._relaxed(now):
            self._run("whole-ring-dead", self._check_whole_ring_dead, now, cubs)

    def check_now(self) -> None:
        """One full sweep."""
        self.checks_run += 1
        self._sweeps.increment()
        self.check_structure()
        if self.system is None:
            return
        now = self.runtime.now
        self._run("conservation", self._check_delivery_conservation, now)
        self._run("restripe-presence", self._check_restripe_presence, now)
        if not self._relaxed(now):
            self._run("view-coherence", self._check_view_coherence, now)
            self._run("stream-liveness", self._check_stream_liveness, now)
            if now >= self._converge_after:
                self._run(
                    "deadman-convergence",
                    self._check_deadman_convergence, now,
                )

    def final_check(self) -> None:
        """End-of-run sweep.  Call *before* ``finalize_clients()`` —
        finalize folds in-flight piece assemblies into the missed count
        outside the ``next_seqno`` conservation ledger."""
        self.check_now()

    # ------------------------------------------------------------------
    # Cub scope
    # ------------------------------------------------------------------
    def _check_index_coherence(self, now: float, cubs: Iterable[Any]) -> None:
        for cub in cubs:
            problem = index_incoherence(cub)
            if problem is not None:
                self._fail(now, "index-coherence", f"cub {cub.cub_id}: {problem}")

    def _check_view_size(self, now: float, cubs: Iterable[Any]) -> None:
        for cub in cubs:
            size = cub.view.size()
            if size > self.view_bound:
                self._fail(
                    now,
                    "view-size",
                    f"cub {cub.cub_id} view grew to {size} records "
                    f"(bound {self.view_bound})",
                )

    def _check_forward_queues(self, now: float, cubs: Iterable[Any]) -> None:
        for cub in cubs:
            owner = cub.owner
            queued = len(owner.forward_queue) + len(owner.mirror_forward_queue)
            if queued > self.queue_bound:
                self._fail(
                    now,
                    "forward-queue",
                    f"cub {cub.cub_id} forward queues grew to {queued} "
                    f"records (bound {self.queue_bound})",
                )

    def _check_slot_ownership(self, now: float, cubs: Iterable[Any]) -> None:
        """No slot visit may be claimed by two different play instances.

        Successive visits of one slot are exactly one block play time
        apart, so two pending services for the same slot with due times
        closer than that target the *same* visit — a double booking the
        §4.1.3 ownership protocol must make impossible, even mid-fault.
        """
        bpt = self.config.block_play_time
        claims: dict = {}
        for cub in cubs:
            for state in _pending_sends(cub):
                if cub.view.has_tombstone(
                    state.viewer_id, state.instance, state.slot
                ):
                    continue
                claims.setdefault(state.slot, []).append(
                    (state.viewer_id, state.instance, state.due_time, cub.cub_id)
                )
        for slot, entries in claims.items():
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    a, b = entries[i], entries[j]
                    if (a[0], a[1]) == (b[0], b[1]):
                        continue  # same play instance, successive blocks
                    if abs(a[2] - b[2]) < bpt - _EPS:
                        self._fail(
                            now,
                            "double-ownership",
                            f"slot {slot}: {a[0]}#{a[1]} (cub {a[3]}, "
                            f"due {a[2]:.3f}) vs {b[0]}#{b[1]} "
                            f"(cub {b[3]}, due {b[2]:.3f})",
                        )

    def _check_whole_ring_dead(self, now: float, cubs: Iterable[Any]) -> None:
        for cub in cubs:
            deadman = cub.deadman
            if all(deadman.believes_failed(cub_id) for cub_id in deadman.watched):
                self._fail(
                    now,
                    "whole-ring-dead",
                    f"cub {cub.cub_id} believes all {len(deadman.watched)} "
                    f"neighbours it watches dead while still running",
                )

    # ------------------------------------------------------------------
    # System scope
    # ------------------------------------------------------------------
    def _check_oracle(self, now: float) -> None:
        try:
            self.system.oracle.assert_consistent()
        except AssertionError as exc:
            self._fail(now, "oracle", str(exc))

    def _check_delivery_conservation(self, now: float) -> None:
        for client in self.system.clients:
            for monitor in client.all_monitors():
                if monitor.blocks_corrupt:
                    self._fail(
                        now,
                        "corruption",
                        f"{monitor.viewer_id} received "
                        f"{monitor.blocks_corrupt} cross-wired blocks",
                    )
                if (
                    monitor.blocks_received + monitor.blocks_missed
                    != monitor.next_seqno
                ):
                    self._fail(
                        now,
                        "conservation",
                        f"{monitor.viewer_id}: received "
                        f"{monitor.blocks_received} + missed "
                        f"{monitor.blocks_missed} != next_seqno "
                        f"{monitor.next_seqno}",
                    )
                if monitor.next_seqno > monitor.expected_total:
                    self._fail(
                        now,
                        "conservation",
                        f"{monitor.viewer_id}: next_seqno "
                        f"{monitor.next_seqno} beyond expected "
                        f"{monitor.expected_total} blocks",
                    )

    def _check_restripe_presence(self, now: float) -> None:
        """Dual presence during online restriping (hard safety).

        Every migration entry a cub serves reads from must name a disk
        that cub actually owns, and — while a restriper is attached —
        the *source* copy of every planned move must still resolve in
        its owning cub's block index.  The old copy is never dropped,
        even after commit, so a crash at any point in a move loses
        nothing.
        """
        cubs = self.system.cubs
        for cub in cubs:
            for key, location in cub.block_index.migrations.items():
                if location.disk_id not in cub.disks:
                    file_id, block = key
                    self._fail(
                        now,
                        "restripe-presence",
                        f"cub {cub.cub_id} migration for file {file_id} "
                        f"block {block} names disk {location.disk_id} "
                        f"it does not own",
                    )
        restriper = self.system.restriper
        if restriper is None:
            return
        layout = restriper.layout
        for move in restriper.plan.moves:
            serving = cubs[layout.cub_of_disk(move.src_disk)]
            if (
                serving.block_index.lookup_primary(
                    move.file_id, move.block_index
                )
                is None
            ):
                self._fail(
                    now,
                    "restripe-presence",
                    f"source copy of file {move.file_id} block "
                    f"{move.block_index} (disk {move.src_disk}) vanished "
                    f"from cub {serving.cub_id}'s index — dual presence "
                    f"broken",
                )

    def _check_view_coherence(self, now: float) -> None:
        living = self.system.living_cubs()
        for slot in self.system.oracle.occupied_slots():
            entry = self.system.oracle.occupant(slot)
            if entry is None or now - entry.inserted_at < self.view_grace:
                continue
            if not self._has_witness(living, slot, entry):
                self._fail(
                    now,
                    "view-coherence",
                    f"slot {slot} occupant {entry.viewer_id}"
                    f"#{entry.instance} has no witness in any living "
                    f"cub's view (orphaned play)",
                )

    @staticmethod
    def _has_witness(living: List[Any], slot: int, entry: Any) -> bool:
        ident = (entry.viewer_id, entry.instance)
        for cub in living:
            state = cub.view.state_for_slot(slot)
            if state is not None and (state.viewer_id, state.instance) == ident:
                return True
            for pending in _pending_sends(cub):
                if (pending.viewer_id, pending.instance) == ident:
                    return True
            for queued in cub.owner.forward_queue:
                if (queued.viewer_id, queued.instance) == ident:
                    return True
            if entry.instance in cub.owner._redundant_index:
                return True  # instance ids are unique to a play
        return False

    def _check_stream_liveness(self, now: float) -> None:
        for client in self.system.clients:
            for monitor in client.all_monitors():
                if monitor.finished or monitor.stopped:
                    continue
                if monitor.first_block_time is None:
                    if now - monitor.request_time > self.startup_grace:
                        self._fail(
                            now,
                            "stream-liveness",
                            f"{monitor.viewer_id} requested at "
                            f"{monitor.request_time:.3f} never received "
                            f"a first block",
                        )
                    continue
                deadline = monitor.deadline(monitor.next_seqno)
                if now > deadline + self.stall_grace:
                    self._fail(
                        now,
                        "stream-liveness",
                        f"{monitor.viewer_id} stalled: block "
                        f"{monitor.next_seqno} due {deadline:.3f}, "
                        f"nothing since (undelivered-block leak)",
                    )

    def _check_deadman_convergence(self, now: float) -> None:
        for cub in self.system.living_cubs():
            for watched in cub.deadman.watched:
                believed = cub.deadman.believes_failed(watched)
                actual = self.system.cubs[watched].failed
                if believed != actual:
                    self._fail(
                        now,
                        "deadman-convergence",
                        f"cub {cub.cub_id} believes cub {watched} "
                        f"{'dead' if believed else 'alive'} but it is "
                        f"{'dead' if actual else 'alive'}",
                    )

    # ------------------------------------------------------------------
    def _fail(self, now: float, check: str, detail: str) -> None:
        self._violations(check).increment()
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "invariant.violation", detail, check=check)
        if self.system is None:
            return  # one live cub: counted, and the sweeps go on
        tail = list(tracer.records)[-self.trace_tail:]
        dump = format_trace(tail) if tail else "(tracing disabled)"
        raise InvariantViolation(
            f"[{check}] violated at t={now:.3f}: {detail}\n"
            f"--- last {len(tail)} trace records ---\n{dump}"
        )
