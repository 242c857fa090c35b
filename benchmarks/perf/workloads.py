"""The four discrete-event workloads and their measuring protocol.

Every workload is built from the public API only (``TigerSystem``,
``ContinuousWorkload``, ``ViewerClient.start/stop/pause/resume_stream``)
and from ``--seed``.  A run builds one fresh system — build, content,
admission and warm-up are timed as set-up — and then measures a window
fixed in *sim* seconds several times over from that same state, in equal
sim-time segments each timed on its own; quiet.py says how and why.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import TigerConfig, paper_config, small_config
from repro.core.client import StreamMonitor, ViewerClient
from repro.core.tiger import TigerSystem
from repro.obs.registry import snapshot_total
from repro.workloads import ContinuousWorkload

from quiet import ProbeLog, in_child, own_rss_mb, quiet_sum
from spans import SpanRecorder, install_des

#: The seven protocol counters every backend keeps bit-identical.
PROTOCOL_COUNTERS = (
    "cub.viewer_states_forwarded",
    "cub.deschedules_forwarded",
    "cub.inserts_performed",
    "cub.admission_rejects",
    "cub.mirror_covers",
    "cub.blocks_sent",
    "cub.deadman_resurrections",
)

#: Registry counters reported per layer (name in BENCHMARK.json -> family).
REGISTRY_COUNTS = PROTOCOL_COUNTERS + (
    "cub.mirror_pieces_sent",
    "cub.server_missed_blocks",
    "cub.insert_conflicts",
    "controller.starts_routed",
    "controller.stops_routed",
    "placement.candidates_considered",
    "placement.deferrals",
)

#: Passes over the window per timed run; the traced run does one plain
#: and one traced pass instead.
TIMED_REPEATS = 7


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# Sizing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scale:
    """How big one DES workload is at full and at ``--smoke`` size."""

    config: Callable[[], TigerConfig]
    #: Viewers admitted before the window.
    streams: int
    num_files: int
    file_seconds: float
    #: Sim seconds of warm-up after admission (>= one schedule
    #: revolution, so every viewer has its first block).
    warmup: float
    #: Sim seconds of window per requested wall second and repeat,
    #: calibrated on the reference box so a run measures for about
    #: ``--seconds``; the window is a function of ``--seconds`` alone,
    #: so counts and fingerprints are exact for (seed, seconds).
    sim_per_second: float
    #: Sim seconds per timed segment.
    segment: float


# ----------------------------------------------------------------------
# One fresh system
# ----------------------------------------------------------------------
@dataclass
class Counts:
    """Client-side totals and kernel/fabric counters at one instant."""

    received: int
    late: int
    missed: int
    corrupt: int
    events: int
    msgs_sent: int
    msgs_delivered: int
    msgs_dropped: int
    disk_reads: int

    @classmethod
    def of(cls, system: TigerSystem) -> "Counts":
        return cls(
            received=system.total_client_received(),
            late=system.total_client_late(),
            missed=system.total_client_missed(),
            corrupt=system.total_client_corrupt(),
            events=system.sim.events_dispatched,
            msgs_sent=system.network.messages_sent,
            msgs_delivered=system.network.messages_delivered,
            msgs_dropped=system.network.messages_dropped,
            disk_reads=sum(
                disk.reads_completed.count
                for cub in system.cubs
                for disk in cub.disks.values()
            ),
        )


class DesRun:
    """One repeat: a built, warmed system positioned at its window."""

    def __init__(self, system: TigerSystem) -> None:
        self.system = system
        #: Starts requested inside the window: (client, instance).
        self.window_starts: List[Tuple[ViewerClient, int]] = []
        #: Starts the generator refused to issue (never, by construction).
        self.ops_skipped = 0

    def monitors(self) -> List[StreamMonitor]:
        return [
            monitor
            for client in self.system.clients
            for monitor in client.all_monitors()
        ]

    def overdue_blocks(self) -> int:
        """Blocks whose deadline passed with nothing accounted for them.

        A gap is only noticed when a later block arrives, so a stream
        that stalls outright would otherwise fail silently.
        """
        now = self.system.sim.now
        overdue = 0
        for monitor in self.monitors():
            if (
                monitor.first_block_time is None
                or monitor.stopped
                or monitor.finished
            ):
                continue
            due = int(
                (now - monitor.first_block_time - monitor.late_tolerance)
                // monitor.block_play_time
            ) + 1
            due = max(0, min(due, monitor.expected_total))
            overdue += max(0, due - monitor.next_seqno)
        return overdue

    def drain_starts(self, limit: float) -> None:
        """Untimed: let starts still queued at window close get served."""
        deadline = self.system.sim.now + limit
        while self.system.sim.now < deadline and any(
            client.streams[instance].first_block_time is None
            and not client.streams[instance].stopped
            for client, instance in self.window_starts
        ):
            self.system.run_for(2.0)

    def startup_waits(self) -> Tuple[List[float], int]:
        """Startup latency of every window start, and how many are
        still unserved (those enter at their elapsed wait)."""
        now = self.system.sim.now
        waits: List[float] = []
        unserved = 0
        for client, instance in self.window_starts:
            monitor = client.streams[instance]
            latency = monitor.startup_latency
            if latency is None:
                if monitor.stopped:
                    continue  # withdrawn by the viewer before service
                unserved += 1
                latency = now - monitor.request_time
            waits.append(latency)
        return waits, unserved


def _build_system(scale: Scale, seed: int) -> TigerSystem:
    system = TigerSystem(scale.config(), seed)
    system.add_standard_content(
        num_files=scale.num_files, duration_s=scale.file_seconds
    )
    return system


#: Advances a system through (part of) its warm-up; the measuring code
#: passes one that also reads the weather probe as it goes.
Warm = Callable[[TigerSystem, float], None]


def _admit_and_warm(system: TigerSystem, scale: Scale, warm: Warm) -> None:
    # The clients' end-of-file callbacks keep the workload alive.
    ContinuousWorkload(system).add_streams(scale.streams)
    warm(system, scale.warmup)


# ----------------------------------------------------------------------
# Workload builders: (scale, seed, window sim seconds, warm) -> DesRun
# parked at its window start
# ----------------------------------------------------------------------
PAPER_FULL = dict(config=paper_config, num_files=8, file_seconds=240.0)
SMOKE = dict(config=small_config, num_files=4, file_seconds=120.0)


def build_steady_full(
    scale: Scale, seed: int, window: float, warm: Warm = TigerSystem.run_for
) -> DesRun:
    system = _build_system(scale, seed)
    _admit_and_warm(system, scale, warm)
    return DesRun(system)


def build_idle_tick(
    scale: Scale, seed: int, window: float, warm: Warm = TigerSystem.run_for
) -> DesRun:
    system = _build_system(scale, seed)
    warm(system, scale.warmup)
    return DesRun(system)


def build_failed_full(
    scale: Scale, seed: int, window: float, warm: Warm = TigerSystem.run_for
) -> DesRun:
    system = _build_system(scale, seed)
    system.start()
    system.fail_cub(3)
    # Two deadman timeouts: every neighbour has declared the cub dead
    # and mirror coverage is in place before the first viewer arrives.
    warm(system, 2.0 * system.config.deadman_timeout)
    _admit_and_warm(system, scale, warm)
    return DesRun(system)


#: Open-loop operations per sim second in ``churn_95``.
CHURN_OPS_PER_SECOND = 20.0
#: Sim seconds the untimed drain may take after the window.
CHURN_DRAIN_LIMIT = 120.0


def churn_trace(
    seed: int, population: int, window: float, num_files: int, num_blocks: int
) -> List[Tuple[float, str, int, int, int]]:
    """Seeded open-loop trace: ``(offset, op, viewer, file, first_block)``.

    Poisson instants at :data:`CHURN_OPS_PER_SECOND`.  The generator
    keeps its *own* model of who is playing and who is paused — it never
    reads system state — and steers that model at ``population``: below
    it the next op is a start (or a resume), at or above it a stop (or a
    pause).  Viewers ``0..population-1`` are the pre-filled ones.  New
    viewers join time-shifted, at a random block of the file's first
    half, so starts land on every disk (a start at block 0 can only be
    inserted under the file's one start disk) and no viewer reaches
    end-of-file inside the window.
    """
    rng = random.Random(seed)
    playing = list(range(population))
    paused: List[int] = []
    next_viewer = population
    trace: List[Tuple[float, str, int, int, int]] = []
    at = rng.expovariate(CHURN_OPS_PER_SECOND)
    while at < window:
        if len(playing) < population:
            if paused and rng.random() < 0.4:
                viewer = paused.pop(rng.randrange(len(paused)))
                trace.append((at, "resume", viewer, 0, 0))
            else:
                viewer = next_viewer
                next_viewer += 1
                trace.append((
                    at, "start", viewer, rng.randrange(num_files),
                    rng.randrange(num_blocks // 2),
                ))
            playing.append(viewer)
        else:
            viewer = playing.pop(rng.randrange(len(playing)))
            if rng.random() < 0.4:
                paused.append(viewer)
                trace.append((at, "pause", viewer, 0, 0))
            else:
                trace.append((at, "stop", viewer, 0, 0))
        at += rng.expovariate(CHURN_OPS_PER_SECOND)
    return trace


def build_churn_95(
    scale: Scale, seed: int, window: float, warm: Warm = TigerSystem.run_for
) -> DesRun:
    system = _build_system(scale, seed)
    workload = ContinuousWorkload(system)
    instances = workload.add_streams(scale.streams)
    clients = system.clients
    owner = {
        instance: client
        for client in clients
        for instance in client.streams
    }
    #: viewer -> (client, current play instance)
    table: Dict[int, Tuple[ViewerClient, int]] = {
        viewer: (owner[instance], instance)
        for viewer, instance in enumerate(instances)
    }
    run = DesRun(system)
    file_ids = [entry.file_id for entry in system.catalog.files()]

    def apply(op: str, viewer: int, file_index: int, first_block: int) -> None:
        if op == "start":
            client = clients[viewer % len(clients)]
            instance = client.start_stream(file_ids[file_index], first_block)
            table[viewer] = (client, instance)
            run.window_starts.append((client, instance))
            return
        client, instance = table[viewer]
        if op == "stop":
            client.stop_stream(instance)
        elif op == "pause":
            client.pause_stream(instance)
        else:
            resumed = client.resume_stream(instance)
            if resumed is None:
                run.ops_skipped += 1
            else:
                table[viewer] = (client, resumed)
                run.window_starts.append((client, resumed))

    system.run_for(scale.warmup)
    begin = system.sim.now
    num_blocks = min(entry.num_blocks for entry in system.catalog.files())
    for offset, op, viewer, file_index, first_block in churn_trace(
        seed, scale.streams, window, len(file_ids), num_blocks
    ):
        system.sim.call_at(
            begin + offset, apply, op, viewer, file_index, first_block
        )
    return run


@dataclass(frozen=True)
class DesWorkload:
    name: str
    item: str
    build: Callable[..., DesRun]
    full: Scale
    smoke: Scale
    #: Cap on the untimed post-window drain (sim seconds); 0 = none.
    drain_limit: float = 0.0
    #: Items in the window: (before, after, window sim seconds, config).
    items: Callable[[Counts, Counts, float, TigerConfig], float] = (
        lambda before, after, window, config: float(
            (after.received - after.late) - (before.received - before.late)
        )
    )


DES_WORKLOADS: Dict[str, DesWorkload] = {
    workload.name: workload
    for workload in (
        DesWorkload(
            "steady_full",
            "block delivered on time",
            build_steady_full,
            full=Scale(streams=602, warmup=60.0, sim_per_second=15.4,
                       segment=1.0, **PAPER_FULL),
            smoke=Scale(streams=32, warmup=12.0, sim_per_second=20.0,
                        segment=1.0, **SMOKE),
        ),
        DesWorkload(
            "idle_tick",
            "simulated cub-second",
            build_idle_tick,
            full=Scale(streams=0, warmup=10.0, sim_per_second=1120.0,
                       segment=20.0, **PAPER_FULL),
            smoke=Scale(streams=0, warmup=2.0, sim_per_second=200.0,
                        segment=20.0, **SMOKE),
            items=lambda before, after, window, config: (
                window * config.num_cubs
            ),
        ),
        DesWorkload(
            "failed_full",
            "block delivered on time",
            build_failed_full,
            full=Scale(streams=602, warmup=60.0, sim_per_second=12.6,
                       segment=1.0, **PAPER_FULL),
            smoke=Scale(streams=32, warmup=12.0, sim_per_second=20.0,
                        segment=1.0, **SMOKE),
        ),
        DesWorkload(
            "churn_95",
            "block delivered on time",
            build_churn_95,
            full=Scale(streams=572, warmup=60.0, sim_per_second=12.6,
                       segment=1.0, **PAPER_FULL),
            smoke=Scale(streams=30, warmup=12.0, sim_per_second=20.0,
                        segment=1.0, **SMOKE),
            drain_limit=CHURN_DRAIN_LIMIT,
        ),
    )
}


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
@dataclass
class Repeat:
    """What one pass over the window produced (picklable: it crosses
    from the measuring child back to the parent)."""

    segment_wall: List[float]
    segment_cpu: List[float]
    before: Counts
    after: Counts
    fingerprint: str
    registry: Dict[str, float]
    failed: int
    attempted: int
    problems: List[str]
    startup_waits: List[float]
    disk_util: float
    layer_seconds: Dict[str, float] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)
    slacks_ms: List[float] = field(default_factory=list)
    spans_written: int = 0
    #: The measuring child's largest resident set at window close (KB).
    rss_kb: int = 0
    #: Quiet-weather factor for this pass's times (see quiet.ProbeLog).
    scale: float = 1.0

    @property
    def window_wall(self) -> float:
        return sum(self.segment_wall)


def window_segments(scale: Scale, seconds: float) -> int:
    """Timed segments per repeat for a run of ``--seconds``: the repeats
    together measure for about that long."""
    return max(
        2, round(seconds / TIMED_REPEATS * scale.sim_per_second / scale.segment)
    )


def fingerprint_of(registry: Dict[str, float], counts: Counts) -> str:
    """SHA-256 over the seven protocol counters, the clients' received /
    late / missed totals and the kernel's event count at window close."""
    parts = [f"{name}={int(registry[name])}" for name in PROTOCOL_COUNTERS]
    parts += [
        f"received={counts.received}", f"late={counts.late}",
        f"missed={counts.missed}", f"events={counts.events}",
    ]
    return hashlib.sha256(";".join(parts).encode("ascii")).hexdigest()


def time_window(
    workload: DesWorkload,
    scale: Scale,
    run: DesRun,
    segments: int,
    traced: bool,
    drain: bool,
    trace_out: Optional[str],
) -> Repeat:
    """Advance ``run`` through its window, timing each segment, then
    verify the outputs.  Runs in a forked child (see quiet.py), so the
    parent's system stays parked at the window start.

    ``drain`` lets starts still queued at window close be served before
    they are judged — untimed, and done by one repeat only: the repeats
    are the same simulation.
    """
    system = run.system
    # The collector stays on for the window, as it is for any user; it
    # starts every repeat from the same, just-collected state.
    gc.collect()
    before = Counts.of(system)
    registry_before = system.export_metrics().snapshot()
    slacks_ms: List[float] = []
    recorder: Optional[SpanRecorder] = None
    if traced:
        recorder = SpanRecorder(keep_spans=trace_out is not None)
        install_des(recorder, system.sim)

        def note_slack(monitor: StreamMonitor, args: Tuple, _result: Any) -> None:
            seqno, now = args[0], args[1]
            if monitor.next_seqno == seqno + 1:
                slacks_ms.append((monitor.deadline(seqno) - now) * 1e3)

        recorder.observe_method(StreamMonitor, "_complete_block", note_slack)

    segment_wall: List[float] = []
    segment_cpu: List[float] = []
    weather = ProbeLog()
    try:
        for _ in range(segments):
            cpu0 = process_time()
            wall0 = perf_counter()
            system.run_for(scale.segment)
            segment_wall.append(perf_counter() - wall0)
            segment_cpu.append(process_time() - cpu0)
            weather.tick()
    finally:
        if recorder is not None:
            system.sim.set_profiler(None)
            recorder.uninstall()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after = Counts.of(system)
    registry_after = system.export_metrics().snapshot()
    totals = {
        name: snapshot_total(registry_after, name) for name in PROTOCOL_COUNTERS
    }
    living = system.living_cubs()

    # Verification: outputs correct, nothing silently lost.
    problems: List[str] = []
    if workload.drain_limit and drain:
        run.drain_starts(workload.drain_limit)
    waits, unserved = run.startup_waits()
    overdue = run.overdue_blocks()
    if after.corrupt:
        problems.append(f"{after.corrupt} corrupt blocks")
    try:
        system.assert_invariants()
    except AssertionError as error:
        problems.append(f"invariant violated: {error}")
    if run.ops_skipped:
        problems.append(f"{run.ops_skipped} generated ops did not apply")
    lost = (after.missed - before.missed) + (after.corrupt - before.corrupt) + overdue
    repeat = Repeat(
        segment_wall=segment_wall,
        segment_cpu=segment_cpu,
        before=before,
        after=after,
        fingerprint=fingerprint_of(totals, after),
        registry={
            name: snapshot_total(registry_after, name)
            - snapshot_total(registry_before, name)
            for name in REGISTRY_COUNTS
        },
        failed=lost + (after.late - before.late) + unserved,
        attempted=(
            lost + (after.received - before.received) + len(run.window_starts)
        ),
        problems=problems,
        startup_waits=waits,
        disk_util=sum(cub.mean_disk_utilization() for cub in living) / len(living),
        slacks_ms=slacks_ms,
        rss_kb=rss_kb,
        scale=weather.scale(),
    )
    if recorder is not None:
        repeat.layer_seconds = recorder.layer_seconds(repeat.window_wall)
        repeat.layer_calls = dict(recorder.calls)
        if trace_out is not None:
            repeat.spans_written = recorder.write_chrome(trace_out, workload.name)
    return repeat


def measure_des(
    workload: DesWorkload,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    trace_out: Optional[str],
    echo: Callable[[str], None],
) -> Dict[str, Any]:
    """Set one system up, measure its window several times over; returns
    the result parts (``correct``/``attempted``/``failed``,
    ``end_to_end`` or ``per_layer`` values by metric name, ``detail``)."""
    scale = workload.smoke if smoke else workload.full
    # The window depends on --seconds only, never on the mode, so the
    # timed and the traced run of a seed share one fingerprint.
    segments = window_segments(scale, seconds)
    window = segments * scale.segment
    count = 2 if (traced or smoke) else TIMED_REPEATS

    weather = ProbeLog()

    def warm(system: TigerSystem, sim_seconds: float) -> None:
        """Warm-up in 5 sim-s steps, reading the weather between them."""
        end = system.sim.now + sim_seconds
        while system.sim.now < end:
            system.run_until(min(end, system.sim.now + 5.0))
            weather.tick()

    started = perf_counter()
    run = workload.build(scale, seed, window, warm)
    gc.collect()
    setup_wall = perf_counter() - started
    setup_s = setup_wall * weather.scale()
    echo(f"  set-up {setup_wall:.3f} s wall, {setup_s:.3f} s in quiet weather "
         f"(build, content, admission, warm-up to sim t={run.system.sim.now:g} s)")

    repeats: List[Repeat] = []
    for index in range(count):
        trace_this = traced and index == count - 1
        repeat = in_child(lambda: time_window(
            workload, scale, run, segments, trace_this, index == 0,
            trace_out if trace_this else None,
        ))
        repeats.append(repeat)
        echo(
            f"  repeat {index}{' (traced)' if trace_this else ''}: window "
            f"{window:g} sim-s in {repeat.window_wall:.3f} s wall x "
            f"{repeat.scale:.3f} for the weather, fingerprint "
            f"{repeat.fingerprint[:16]}"
        )

    first = repeats[0]
    problems = [p for repeat in repeats for p in repeat.problems]
    if len({repeat.fingerprint for repeat in repeats}) != 1:
        problems.append("fingerprint differs between repeats of one seed")
    plain = repeats[:-1] if traced else repeats
    items = workload.items(first.before, first.after, window, scale.config())
    if items <= 0:
        problems.append("no items delivered in the window")
        items = 1.0

    result: Dict[str, Any] = {
        "correct": not problems,
        "attempted": max(1, first.attempted),
        "failed": first.failed,
        "detail": {
            "item": workload.item,
            "items": items,
            "window_sim_s": window,
            "segments": segments,
            "repeats": len(repeats),
            "fingerprint": first.fingerprint,
            "problems": problems,
            "setup_wall_s": setup_wall,
            "window_wall_s": [repeat.window_wall for repeat in repeats],
            "weather_scale": [repeat.scale for repeat in repeats],
            "starts_in_window": len(first.startup_waits),
        },
    }
    if not traced:
        scales = [repeat.scale for repeat in plain]
        result["end_to_end"] = {
            "setup_s": setup_s,
            "wall_us_per_item": quiet_sum(
                [repeat.segment_wall for repeat in plain], scales
            ) / items * 1e6,
            "cpu_us_per_item": quiet_sum(
                [repeat.segment_cpu for repeat in plain], scales
            ) / items * 1e6,
            # This process and its measuring children at window close;
            # the untimed drain after it is not the program's footprint.
            "peak_rss_mb": own_rss_mb(max(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                + [repeat.rss_kb for repeat in plain]
            )),
        }
        return result

    last = repeats[-1]
    seconds_by_layer = last.layer_seconds
    layer: Dict[str, float] = {
        "sim.events": last.after.events - last.before.events,
        "sim.events_per_sim_s": (last.after.events - last.before.events) / window,
        "sim.x_realtime": window / plain[0].window_wall,
        "net.msgs_sent": last.after.msgs_sent - last.before.msgs_sent,
        "net.msgs_delivered": last.after.msgs_delivered - last.before.msgs_delivered,
        "net.msgs_dropped": last.after.msgs_dropped - last.before.msgs_dropped,
        "disk.reads": last.after.disk_reads - last.before.disk_reads,
        "disk.util_mean": last.disk_util,
        "client.blocks_received": last.after.received - last.before.received,
        "client.blocks_late": last.after.late - last.before.late,
        "client.blocks_missed": last.after.missed - last.before.missed,
        "client.startup_p50_s": percentile(first.startup_waits, 0.50),
        "client.startup_p95_s": percentile(first.startup_waits, 0.95),
        "client.slack_p01_ms": percentile(last.slacks_ms, 0.01),
        "workload.generator_lag_ms_p99": 0.0,  # sim-time generators are never late
        "trace.overhead_share": (
            last.window_wall * last.scale
            / (plain[0].window_wall * plain[0].scale) - 1.0
        ),
        "trace.unattributed_share": seconds_by_layer["other"] / last.window_wall,
    }
    for name in REGISTRY_COUNTS:
        layer[name] = last.registry[name]
    for name in ("sim", "net", "disk", "storage", "cub", "controller",
                 "client", "obs", "workload", "gc"):
        layer[f"{name}.self_s"] = seconds_by_layer[name]
    for name in ("net", "storage", "cub", "obs"):
        layer[f"{name}.calls"] = last.layer_calls.get(name, 0)
    layer["gc.collections"] = last.layer_calls.get("gc", 0)
    result["per_layer"] = layer
    result["detail"]["layer_share"] = {
        name: value / last.window_wall
        for name, value in sorted(seconds_by_layer.items())
    }
    result["detail"]["traced_window_wall_s"] = last.window_wall
    if trace_out is not None:
        echo(f"  wrote {last.spans_written} spans to {trace_out}")
    return result
