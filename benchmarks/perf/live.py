"""The two real-socket workloads: ``live_socket`` and ``hub_relay``.

``live_socket`` boots a whole cluster through the public
``run_cluster(ClusterScenario)`` — five node processes and this driver
over loopback, paced by the wall clock.  ``hub_relay`` keeps one process:
an in-process ``ClusterHub`` with exactly two asyncio connections,
driven closed-loop at saturation, so the wire codec, the hub's routing
and the per-connection send queue do all the work.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import resource
import signal
import tempfile
import threading
import time
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.client import ViewerClient
from repro.core.protocol import (
    BlockData,
    ClientStart,
    StartAck,
    ViewerStateBatch,
    block_pattern,
)
from repro.core.viewerstate import ViewerState
from repro.live.cluster import ClusterHub, ClusterScenario, run_cluster
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    SUPPORTED_CODECS,
    FrameDecoder,
    control_frame,
    encode_message,
)
from repro.net.message import KIND_CONTROL, KIND_DATA, Message
from repro.obs.registry import MetricsRegistry, snapshot_total
from repro.workloads.arrivals import open_loop_trace

from quiet import ProbeLog, own_rss_mb, probe, quiet_sum, weather_scale
from spans import SpanRecorder, install_live
from workloads import REGISTRY_COUNTS, TIMED_REPEATS, percentile

Echo = Callable[[str], None]


# ----------------------------------------------------------------------
# Process accounting (Linux /proc; absent elsewhere -> zeros)
# ----------------------------------------------------------------------
_TICKS = os.sysconf("SC_CLK_TCK")


def child_processes() -> Dict[int, float]:
    """Live children of this process: pid -> CPU seconds so far."""
    me = os.getpid()
    out: Dict[int, float] = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return out
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                # Fields after the parenthesised command name.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            out[int(entry)] = (int(fields[11]) + int(fields[12])) / _TICKS
    return out


def children_peak_rss_kb() -> int:
    """Largest resident-set high-water mark among live children (KB).

    ``RUSAGE_CHILDREN.ru_maxrss`` cannot serve: a spawned child's count
    starts from the *parent's* resident set at the moment of the spawn,
    so it reports the driver, not the nodes.  ``VmHWM`` is reset by the
    exec and is the node's own.
    """
    peak = 0
    for pid in child_processes():
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
                        break
        except (OSError, ValueError):
            continue
    return peak


def reap_stragglers() -> int:
    """Kill and wait for any child still alive; returns how many."""
    stragglers = child_processes()
    for pid in stragglers:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    for pid in stragglers:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    return len(stragglers)


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def span_cost(recorder_calls: int = 20_000) -> float:
    """Seconds one wrapper span costs on this box right now."""
    wrapped = SpanRecorder().traced(lambda: None, "nothing", "other")
    bare = lambda: None  # noqa: E731 - the unwrapped twin of `wrapped`
    started = perf_counter()
    for _ in range(recorder_calls):
        wrapped()
    middle = perf_counter()
    for _ in range(recorder_calls):
        bare()
    return max(0.0, ((middle - started) - (perf_counter() - middle)) / recorder_calls)


def live_layers(
    recorder: SpanRecorder, snapshot: Dict[str, Any], **hub: Any
) -> Dict[str, float]:
    """The per-layer metrics both real-socket workloads share: this
    process's wire, hub, obs and collector spans, and the hub's counters
    from ``snapshot`` (``hub`` narrows the wire counters to the hub's
    own series when the snapshot also holds the nodes')."""
    total = lambda name, **labels: snapshot_total(snapshot, name, **labels)  # noqa: E731
    frames = total("live.wire_frames", **hub)
    return {
        "wire.encode_calls": recorder.calls.get("wire.encode", 0),
        "wire.encode_self_s": recorder.self_s.get("wire.encode", 0.0),
        "wire.decode_calls": recorder.calls.get("wire.decode", 0),
        "wire.decode_self_s": recorder.self_s.get("wire.decode", 0.0),
        "wire.frames": frames,
        "wire.bytes": total("live.wire_bytes", **hub),
        "wire.bytes_per_frame": (
            total("live.wire_bytes", **hub) / frames if frames else 0.0
        ),
        "hub.route_calls": recorder.calls.get("hub.route", 0),
        "hub.route_self_s": recorder.self_s.get("hub.route", 0.0),
        "hub.msgs_routed": total("live.hub_messages_routed"),
        "hub.msgs_dropped": total("live.hub_messages_dropped"),
        "hub.backpressure_events": total("live.hub_backpressure_events"),
        "hub.sendq_dropped": total("live.hub_sendq_dropped"),
        "hub.sendq_peak_bytes": recorder.sendq_peak_bytes,
        "obs.calls": recorder.calls.get("obs", 0),
        "obs.self_s": recorder.self_s.get("obs", 0.0),
        "gc.collections": recorder.calls.get("gc", 0),
        "gc.self_s": recorder.self_s.get("gc", 0.0),
    }


# ----------------------------------------------------------------------
# live_socket
# ----------------------------------------------------------------------
class WeatherThread(threading.Thread):
    """Reads the weather probe (and the node processes' resident sets)
    four times a second while the cluster runs.

    ``run_cluster`` blocks this thread inside its event loop for the
    whole paced run, so the readings have to come from another one.  A
    reading holds the interpreter for ~5 ms at a time — small against
    the ~470 ms of slack a block arrives with — and the CPU it burns is
    kept apart so it can be taken off the driver's.
    """

    PERIOD = 0.25

    def __init__(self) -> None:
        super().__init__(daemon=True)
        #: ``(when, reading, thread CPU seconds so far)`` per reading.
        self.samples: List[Tuple[float, float, float]] = []
        #: Largest resident set seen on any child process (KB).
        self.children_rss_kb = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while True:
            reading = probe()
            self.children_rss_kb = max(
                self.children_rss_kb, children_peak_rss_kb()
            )
            self.samples.append((perf_counter(), reading, time.thread_time()))
            if self._halt.wait(self.PERIOD):
                return

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def scale(self, begin: float, end: float) -> float:
        """Quiet-weather factor for work done between two instants."""
        readings = [r for when, r, _ in self.samples if begin <= when <= end]
        return weather_scale(readings or [r for _, r, _ in self.samples])

    def cpu_between(self, begin: float, end: float) -> float:
        """CPU seconds this thread used between two instants."""
        inside = [cpu for when, _, cpu in self.samples if begin <= when <= end]
        return inside[-1] - inside[0] if len(inside) > 1 else 0.0


def measure_live_socket(
    seed: int, seconds: float, traced: bool, smoke: bool,
    trace_out: Optional[str], scratch: str, echo: Echo,
) -> Dict[str, Any]:
    """One wall-clock run of a 3-cub cluster (3 is the smallest ring)."""
    # 22 of the 24 slots; the smoke size keeps the cluster and drops to
    # the few viewers whose first block fits inside a 6 s run.
    scenario = ClusterScenario(
        cubs=3, streams=8 if smoke else 22,
        duration=6.0 if smoke else max(6.0, seconds), codec=CODEC_BINARY,
        stream_stagger=0.1, seed=seed,
    )
    marks: Dict[str, float] = {}
    at_epoch: Dict[str, Any] = {}

    def on_progress(line: str) -> None:
        if line.startswith("booting"):
            marks["boot"] = perf_counter()
        elif line.startswith("epoch fixed"):
            # Every node has joined; the shared epoch is start_delta away.
            marks["joined"] = perf_counter()
            at_epoch["children"] = sum(child_processes().values())
            at_epoch["self"] = _cpu_self()

    recorder: Optional[SpanRecorder] = None
    start_times: List[Tuple[str, float]] = []
    if traced:
        recorder = SpanRecorder(keep_spans=trace_out is not None)
        install_live(recorder)
        recorder.observe_method(
            ViewerClient, "start_stream",
            lambda client, _args, _result: start_times.append(
                (client.address, client.sim.now)
            ),
        )

    # run_cluster puts its node specs and logs in a fresh temp dir; keep
    # that inside the checkout (and inside `scratch`, which the caller
    # removes) instead of the system temp dir.
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = scratch
    children_before = _cpu_children()
    self_before = _cpu_self()
    weather = WeatherThread()
    weather.start()
    started = perf_counter()
    try:
        report = run_cluster(scenario, echo=on_progress)
    finally:
        finished = perf_counter()
        weather.stop()
        tempfile.tempdir = previous_tempdir
        if recorder is not None:
            recorder.uninstall()
        killed = reap_stragglers()
    if killed:
        echo(f"  reaped {killed} node process(es) the cluster left running")

    merged = report.merged
    total = lambda name, **labels: snapshot_total(merged, name, **labels)  # noqa: E731
    received = int(total("live.client_blocks_received"))
    late = int(total("live.client_blocks_late"))
    missed = int(total("live.client_blocks_missed"))
    corrupt = int(total("live.client_blocks_corrupt"))
    silent = sum(
        1
        for row in merged.get("live.client_blocks_received", {}).get("series", ())
        if not row["value"]
    )
    on_time = received - late
    problems = [
        f"check failed: {name} ({detail})"
        for name, ok, detail in report.checks() if not ok
    ]
    if on_time <= 0:
        problems.append("no block arrived on time")

    joined = marks.get("joined", started)
    # Booting is work and slows with the weather; the wait from "all
    # joined" to the shared epoch is a fixed sleep and does not.
    boot_scale = weather.scale(started, joined)
    setup_s = (joined - started) * boot_scale + scenario.start_delta
    drive_wall = finished - joined
    children_total = _cpu_children() - children_before
    self_total = (
        _cpu_self() - self_before - weather.cpu_between(started, finished)
    )
    drive_cpu = (
        children_total - at_epoch.get("children", 0.0)
        + _cpu_self() - at_epoch.get("self", self_before)
        - weather.cpu_between(joined, finished)
    )
    echo(
        f"  boot->joined {joined - started:.3f} s wall x {boot_scale:.3f} for "
        f"the weather (+{scenario.start_delta:g} s to the epoch), drove "
        f"{scenario.duration:g} s, {on_time} blocks on time, CPU while "
        f"driving {drive_cpu:.3f} s (nodes in all {children_total:.3f} s, "
        f"driver {self_total:.3f} s)"
    )

    result: Dict[str, Any] = {
        "correct": not problems,
        "attempted": received + missed + corrupt + scenario.streams,
        "failed": missed + late + corrupt + silent,
        "detail": {
            "item": "block delivered on time",
            "items": float(max(on_time, 0)),
            "fingerprint": "none (wall-clock run)",
            "problems": problems,
            "wall_seconds": report.wall_seconds,
            "checks": [list(row) for row in report.checks()],
        },
    }
    items = float(max(on_time, 1))
    if not traced:
        result["end_to_end"] = {
            "setup_s": setup_s,
            # Paced by the wall clock: real time, not scaled.
            "wall_us_per_item": drive_wall / items * 1e6,
            # Not scaled either: with six processes on two cores the
            # probe feels the cluster as much as the weather, and
            # scaling by it made this number noisier (25 % between the
            # quartiles of ten runs, against 8-13 % raw).
            "cpu_us_per_item": drive_cpu / items * 1e6,
            # The largest of the driver and the node processes.
            "peak_rss_mb": max(
                own_rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
                weather.children_rss_kb / 1024.0,
            ),
        }
        return result

    assert recorder is not None
    plan = {
        f"client:{index}": start
        for index, _file, start in scenario.stream_plan()
    }
    lags_ms = [
        (now - plan[address]) * 1e3
        for address, now in start_times if address in plan
    ]
    spans = sum(recorder.calls.values())
    layer: Dict[str, float] = {name: total(name) for name in REGISTRY_COUNTS}
    layer.update(live_layers(recorder, merged, node="hub"))
    layer.update({
        "client.blocks_received": received,
        "client.blocks_late": late,
        "client.blocks_missed": missed,
        "client.slack_p01_ms": -total("live.block_lateness_p99") * 1e3,
        "client.self_s": recorder.self_s.get("client", 0.0),
        "workload.generator_lag_ms_p99": percentile(lags_ms, 0.99),
        "node.boot_s": joined - marks.get("boot", started),
        "node.cpu_s": children_total,
        "node.rss_max_mb": weather.children_rss_kb / 1024.0,
        "node.events_dispatched": total("live.events_dispatched"),
        "node.callback_errors": total("live.callback_errors"),
        "node.clock_skew_ms": max(
            (abs(row["value"]) for row in
             merged.get("live.clock_skew", {}).get("series", ())),
            default=0.0,
        ) * 1e3,
        "driver.cpu_s": self_total,
        # A paced run takes the same wall time traced or not; what
        # tracing costs is driver CPU: spans x the measured span cost.
        "trace.overhead_share": spans * span_cost() / max(self_total, 1e-9),
        "trace.unattributed_share": (
            1.0 - recorder.named_seconds() / max(self_total, 1e-9)
        ),
    })
    result["per_layer"] = layer
    if trace_out is not None:
        written = recorder.write_chrome(trace_out, "live_socket driver")
        echo(f"  wrote {written} spans to {trace_out}")
    return result


# ----------------------------------------------------------------------
# hub_relay
# ----------------------------------------------------------------------
SENDER, RECEIVER = "cub:0", "cub:1"
#: Frames per closed-loop round: the sender pushes one chunk, then waits
#: until the receiver holds all of it.
RELAY_CHUNK = 1000
#: Arrivals per requested wall second and repeat (7 frames each),
#: calibrated like the DES windows.
RELAY_ARRIVALS_PER_SECOND = 4200
#: Seconds without a single frame arriving before a round is given up.
RELAY_STALL_TIMEOUT = 5.0


def relay_mix(seed: int, arrivals: int) -> List[Message]:
    """The traffic one arrival trace implies, all on one hub route.

    Per arrival: a start request, its ack, one 4-state gossip batch and
    four whole-block data frames with genuine content fingerprints — the
    shape of ``repro.bench.live.build_frame_mix`` — every frame from
    :data:`SENDER` to :data:`RECEIVER`.  Message ids are sequential, so
    ``(seed, arrivals)`` fixes the mix byte for byte.
    """
    trace = open_loop_trace(
        viewers=arrivals, num_files=32, start=1.0, end=30.0, seed=seed,
        mode="zipf",
    )
    messages: List[Message] = []

    def emit(payload: Any, size: int, kind: str) -> None:
        messages.append(
            Message(SENDER, RECEIVER, payload, size, kind, len(messages) + 1)
        )

    for arrival in trace:
        viewer_id = f"client:{arrival.client_index}#{arrival.client_index}"
        instance = arrival.client_index + 1
        emit(ClientStart(viewer_id, instance, arrival.file_index), 64, KIND_CONTROL)
        emit(StartAck(instance, "controller"), 32, KIND_CONTROL)
        emit(
            ViewerStateBatch(states=tuple(
                ViewerState(
                    viewer_id=viewer_id, instance=instance,
                    slot=arrival.client_index % 128,
                    file_id=arrival.file_index, block_index=hop,
                    disk_id=hop % 16, due_time=arrival.time + hop,
                    play_seqno=hop,
                )
                for hop in range(4)
            )),
            256, KIND_CONTROL,
        )
        for seqno in range(4):
            emit(
                BlockData(
                    viewer_id=viewer_id, instance=instance,
                    file_id=arrival.file_index, block_index=seqno,
                    play_seqno=seqno,
                    pattern=block_pattern(arrival.file_index, seqno),
                ),
                65536, KIND_DATA,
            )
    return messages


async def _join(port: int, address: str) -> Tuple[
    asyncio.StreamReader, asyncio.StreamWriter, FrameDecoder, str
]:
    """Connect as ``address``: hello, then wait for the ``codec_ack``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(control_frame(
        "hello", node=address, pid=os.getpid(), codecs=list(SUPPORTED_CODECS),
    ))
    await writer.drain()
    decoder = FrameDecoder()
    while True:
        data = await reader.read(65536)
        if not data:
            raise ConnectionError("hub closed during the handshake")
        for kind, parsed in decoder.feed_parsed(data):
            if kind == "ctl" and parsed.get("ctl") == "codec_ack":
                return reader, writer, decoder, str(parsed["codec"])


async def relay(
    messages: List[Message], codec: str, registry: MetricsRegistry,
    setup_started: float,
) -> Dict[str, Any]:
    """Push ``messages`` sender -> hub -> receiver, chunk by chunk.

    Returns the per-chunk wall and CPU seconds, the quiet-weather factor
    for them (see quiet.ProbeLog), the frames the receiver decoded, and
    the set-up time measured from ``setup_started``.
    """
    hub = ClusterHub([SENDER, RECEIVER], registry, preferred_codec=codec)
    (port,) = await hub.start()
    _, tx, _, tx_codec = await _join(port, SENDER)
    rx_reader, rx, rx_decoder, _ = await _join(port, RECEIVER)
    await hub.all_joined.wait()

    inbox: List[Message] = []
    progress = asyncio.Event()

    async def receive() -> None:
        while True:
            data = await rx_reader.read(1 << 16)
            if not data:
                return
            for kind, parsed in rx_decoder.feed_parsed(data):
                if kind == "msg":
                    inbox.append(parsed)
            progress.set()

    receiver = asyncio.ensure_future(receive())
    gc.collect()
    setup_s = perf_counter() - setup_started
    chunk_wall: List[float] = []
    chunk_cpu: List[float] = []
    stalled = False
    weather = ProbeLog()
    try:
        for begin in range(0, len(messages), RELAY_CHUNK):
            chunk = messages[begin:begin + RELAY_CHUNK]
            target = len(inbox) + len(chunk)
            cpu0 = process_time()
            wall0 = perf_counter()
            for message in chunk:
                tx.write(encode_message(message, tx_codec))
            await tx.drain()
            while len(inbox) < target:
                progress.clear()
                try:
                    await asyncio.wait_for(progress.wait(), RELAY_STALL_TIMEOUT)
                except asyncio.TimeoutError:
                    stalled = True
                    break
            chunk_wall.append(perf_counter() - wall0)
            chunk_cpu.append(process_time() - cpu0)
            weather.tick()
            if stalled:
                # Frames went missing: later rounds could not tell their
                # own arrivals from this round's stragglers.
                break
    finally:
        # Clients hang up first, so the hub's handlers see EOF and end on
        # their own; stopping the hub under live connections would cancel
        # them mid-read and spray CancelledError noise on stderr.
        for writer in (tx, rx):
            writer.close()
        for writer in (tx, rx):
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
        with contextlib.suppress(asyncio.CancelledError):
            await asyncio.wait_for(receiver, timeout=5.0)
        for _ in range(500):  # the hub's handlers notice the hang-ups
            if not hub.connections:
                break
            await asyncio.sleep(0.01)
        await hub.stop()
    scale = weather.scale()
    return {
        "setup_s": setup_s,
        "scale": scale,
        "chunk_wall": chunk_wall,
        "chunk_cpu": chunk_cpu,
        "inbox": inbox,
        "stalled": stalled,
    }


def intact(sent: List[Message], received: List[Message]) -> int:
    """Frames that arrived equal to what was sent (matched by id)."""
    by_id = {message.msg_id: message for message in received}
    return sum(1 for message in sent if by_id.get(message.msg_id) == message)


def relay_repeat(
    seed: int, arrivals: int, codec: str,
    recorder: Optional[SpanRecorder] = None,
) -> Dict[str, Any]:
    """One fresh hub, two fresh connections, the whole mix once."""
    started = perf_counter()
    messages = relay_mix(seed, arrivals)
    registry = MetricsRegistry()
    if recorder is not None:
        install_live(recorder)
    try:
        outcome = asyncio.run(relay(messages, codec, registry, started))
    finally:
        if recorder is not None:
            recorder.uninstall()
    outcome["sent"] = len(messages)
    outcome["intact"] = intact(messages, outcome.pop("inbox"))
    outcome["snapshot"] = registry.snapshot()
    return outcome


def measure_hub_relay(
    seed: int, seconds: float, traced: bool, smoke: bool,
    trace_out: Optional[str], scratch: str, echo: Echo,
) -> Dict[str, Any]:
    per_second = 300 if smoke else RELAY_ARRIVALS_PER_SECOND
    arrivals = max(300, round(seconds / TIMED_REPEATS * per_second))
    count = 2 if (traced or smoke) else TIMED_REPEATS
    repeats: List[Dict[str, Any]] = []
    recorder: Optional[SpanRecorder] = None
    for index in range(count):
        if traced and index == count - 1:
            recorder = SpanRecorder(keep_spans=trace_out is not None)
        gc.collect()
        repeat = relay_repeat(seed, arrivals, CODEC_BINARY, recorder)
        repeats.append(repeat)
        echo(
            f"  repeat {index}{' (traced)' if recorder else ''}: set-up "
            f"{repeat['setup_s']:.3f} s, {repeat['intact']}/{repeat['sent']} "
            f"frames intact in {sum(repeat['chunk_wall']):.3f} s wall x "
            f"{repeat['scale']:.3f} for the weather"
        )

    first = repeats[0]
    problems: List[str] = []
    for index, repeat in enumerate(repeats):
        if repeat["intact"] != repeat["sent"]:
            problems.append(
                f"repeat {index}: {repeat['sent'] - repeat['intact']} of "
                f"{repeat['sent']} frames not delivered intact"
            )
    plain = repeats[:-1] if traced else repeats
    items = float(max(first["intact"], 1))
    result: Dict[str, Any] = {
        "correct": not problems,
        "attempted": first["sent"],
        "failed": first["sent"] - first["intact"],
        "detail": {
            "item": "frame delivered intact",
            "items": float(first["intact"]),
            "fingerprint": f"{first['sent']} frames, seed {seed}",
            "problems": problems,
            "repeats": len(repeats),
            "setup_s": [repeat["setup_s"] for repeat in repeats],
            "window_wall_s": [sum(repeat["chunk_wall"]) for repeat in repeats],
            "weather_scale": [repeat["scale"] for repeat in repeats],
        },
    }
    if not traced:
        scales = [repeat["scale"] for repeat in plain]
        result["end_to_end"] = {
            # Every repeat sets up afresh; the quietest is the cost.
            "setup_s": min(
                repeat["setup_s"] * repeat["scale"] for repeat in repeats
            ),
            "wall_us_per_item": quiet_sum(
                [repeat["chunk_wall"] for repeat in plain], scales
            ) / items * 1e6,
            "cpu_us_per_item": quiet_sum(
                [repeat["chunk_cpu"] for repeat in plain], scales
            ) / items * 1e6,
            "peak_rss_mb": own_rss_mb(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        }
        return result

    assert recorder is not None
    last = repeats[-1]
    # The evidence asked for on wire v1: the same relay once on JSON.
    json_arrivals = max(300, arrivals // 3)
    json_pass = relay_repeat(seed, json_arrivals, CODEC_JSON)
    if json_pass["intact"] != json_pass["sent"]:
        problems.append("JSON pass lost frames")
        result["correct"] = False
    echo(f"  JSON pass: {json_pass['intact']} frames in "
         f"{sum(json_pass['chunk_wall']):.3f} s wall")
    window = sum(last["chunk_wall"])
    layer = live_layers(recorder, last["snapshot"])
    layer.update({
        "wire.json_frames_per_s": (
            json_pass["intact"] / max(sum(json_pass["chunk_wall"]), 1e-9)
        ),
        "driver.cpu_s": sum(last["chunk_cpu"]),
        "trace.overhead_share": (
            window * last["scale"]
            / (sum(plain[0]["chunk_wall"]) * plain[0]["scale"]) - 1.0
        ),
        "trace.unattributed_share": 1.0 - recorder.named_seconds() / window,
    })
    result["per_layer"] = layer
    result["detail"]["layer_share"] = {
        name: value / window for name, value in sorted(recorder.self_s.items())
    }
    if trace_out is not None:
        written = recorder.write_chrome(trace_out, "hub_relay")
        echo(f"  wrote {written} spans to {trace_out}")
    return result


LIVE_WORKLOADS = {
    "live_socket": measure_live_socket,
    "hub_relay": measure_hub_relay,
}
