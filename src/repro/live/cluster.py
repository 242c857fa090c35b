"""The live cluster driver: spawn, route, drive, kill, compare.

This module is the hub of the star.  ``run_cluster`` boots one
subprocess per cub plus the controller (and optionally the backup
controller) on localhost, plays the role of the paper's ATM switch by
routing every length-prefixed frame between them, hosts the viewer
clients in-process, streams per-node metrics back into one merged
registry snapshot, optionally SIGKILLs a cub mid-run to exercise the
deadman/mirror path on real processes — and, with ``compare_sim``,
replays the *identical* scenario in the discrete-event simulator and
diffs the protocol counters within a documented tolerance.

Topology
--------
Endpoints never talk directly: every node opens exactly one TCP
connection to the driver, which routes by destination address
(``cub:2``, ``controller``, ``client:0``).  That mirrors the paper's
switched fabric, keeps join/handshake trivial, and gives the driver a
complete vantage point: it sees every frame, every disconnect, and
every metrics snapshot.  The driver listens on one socket, served on
its one event loop.  Each connection gets a send queue with high/low
watermark backpressure accounting and a hard cap (see
:class:`NodeConnection`), so one slow peer cannot wedge the hub.

Codecs
------
Frames start as v1 JSON.  A node's ``hello`` advertises the codecs it
speaks; the hub answers with a ``codec_ack`` choosing one per
connection (:func:`repro.live.wire.choose_codec`, steered by
``scenario.codec``), after which both sides *encode* protocol
messages with the chosen codec — decoders accept both at all times,
and control frames stay JSON forever.  Per-codec frame/byte counters
land in ``live.wire_frames`` / ``live.wire_bytes``.

Like the switch it stands in for, the hub does not interpret what it
only carries: it reads a binary frame's envelope and queues the
sender's bytes untouched on a binary peer's connection — each run of
one read's consecutive frames for one peer in a single send — decoding
the payload only for a driver-local or JSON-codec destination.  A
payload is validated exactly once, by whoever consumes it
(docs/WIRE.md).

Determinism and comparability
-----------------------------
A :class:`ClusterScenario` is the single source of truth for both
backends, and :func:`arm_scenario` the single function that arms it:
the same restripe, viewer script and fault plan go onto a
:class:`LiveCluster`'s wall clock and onto a
:class:`~repro.core.tiger.TigerSystem`'s virtual one — both hosts are
the same assembly (:mod:`repro.core.world`), handed a different
runtime and transport.  Wall-clock jitter, real socket
latency, and OS scheduling make the live counters *noisy*, not
*different in kind* — the comparison asserts each counter lands within
``max(floor, rel x max(sim, live))`` of its simulated value (see
:data:`COMPARE_COUNTERS` and DESIGN.md for the derivation).
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from collections import deque

from repro.config import TigerConfig
from repro.core.protocol import BACKUP_CONTROLLER_ADDRESS, BlockData
from repro.core.tiger import TigerSystem
from repro.core.world import World
from repro.faults.injectors import install_plan
from repro.faults.plan import (
    CONTROLLER_KILL,
    CUB_CRASH,
    HELPER_CRASH,
    FaultPlan,
)
from repro.helpers import attach_helpers
from repro.helpers.node import origin_offload_ratio
from repro.live.node import (
    DEFAULT_METRICS_INTERVAL,
    ROLE_BACKUP,
    ROLE_CONTROLLER,
    ROLE_CUB,
    ROLE_HELPER,
    config_to_dict,
)
from repro.live.runtime import LiveRuntime
from repro.live.transport import HubTransport
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    SUPPORTED_CODECS,
    EnvelopeDecoder,
    RawFrame,
    WireError,
    WireStats,
    choose_codec,
    control_frame,
    encode_message,
)
from repro.net.message import Message, reset_message_ids
from repro.obs.registry import (
    MetricsRegistry,
    merge_snapshots,
    snapshot_total,
)
from repro.sim.rng import RngRegistry
from repro.storage.rebalance import (
    RESTRIPER_ADDRESS,
    arm_rebalance,
    make_restriper,
)
from repro.workloads.arrivals import (
    ARRIVAL_MODES,
    DEFAULT_ZIPF_EXPONENT,
    open_loop_trace,
)

#: How long the driver waits for every node to join before giving up.
JOIN_TIMEOUT = 30.0
#: How long the driver waits for nodes to say goodbye after ``_stop``.
DRAIN_TIMEOUT = 8.0

#: Send-queue depth (bytes) at which a connection counts itself
#: backpressured; cleared once the drainer works it back under the
#: low watermark.
SEND_HIGH_WATERMARK = 256 * 1024
SEND_LOW_WATERMARK = 64 * 1024
#: Hard send-queue cap: beyond this, frames to that peer are dropped
#: and counted (``live.hub_sendq_dropped``) instead of ballooning the
#: driver's memory — the live analogue of a switch queue overflowing.
SEND_QUEUE_HARD_CAP = 4 * 1024 * 1024


# ----------------------------------------------------------------------
# Scenario: one description, two backends
# ----------------------------------------------------------------------
@dataclass
class ClusterScenario:
    """Everything needed to run the same experiment live or simulated."""

    cubs: int = 4
    #: Runtime seconds from epoch to the stop broadcast.
    duration: float = 20.0
    streams: int = 6
    seed: int = 0
    #: Cub id to SIGKILL mid-run; None runs fault-free.
    kill_cub: Optional[int] = None
    #: When to kill the victims, both when both are set; None kills
    #: the cub at 40% of the duration and the helper at 50%.
    kill_at: Optional[float] = None
    backup: bool = True
    num_files: int = 8
    file_duration_s: float = 120.0
    #: Short deadman so failover completes inside a short run (the
    #: paper's 6 s default would eat a third of a 20 s scenario).
    deadman_timeout: float = 3.0
    first_start: float = 1.0
    stream_stagger: float = 0.25
    metrics_interval: float = DEFAULT_METRICS_INTERVAL
    #: Seconds between the ``_start`` broadcast and the shared epoch.
    #: The window covers delivery of ``_start`` plus one node's
    #: ``_boot``, which only binds a runtime and a transport and builds
    #: the component: a node imports its role and builds its content
    #: before it joins.  The worst delay measured on loopback was
    #: 5.1 ms over 32 runs of 3 cubs and 22 streams, and 12.2 ms over
    #: 16 runs of 8 cubs and 1,000 viewers (10 nodes; 12.6 ms beside a
    #: busy core), so this is over 4x the worst (PROTOCOL.md, "Epoch
    #: handshake").  Every node proves it made it with a ``_ready``
    #: frame, and ``ClusterReport.checks`` fails a run where one did
    #: not.
    start_delta: float = 0.06
    #: Preferred message codec (``json`` or ``binary``); negotiated
    #: per connection, so a peer that only speaks JSON stays on JSON.
    codec: str = CODEC_JSON
    #: Arrival-trace shape (see :mod:`repro.workloads.arrivals`).
    arrivals: str = "stagger"
    #: Catalog popularity skew for random arrival modes.
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT
    #: The helper tier of :meth:`config` (``TigerConfig.helpers`` and
    #: kin): one process per helper.
    helpers: int = 0
    helper_capacity: int = 0
    #: Helper id to SIGKILL mid-run; None keeps all helpers alive.
    kill_helper: Optional[int] = None
    #: Seeded VCR churn events (pause/resume/stop) to schedule on top
    #: of the arrival plan; 0 keeps the legacy plan byte-for-byte.
    churn: int = 0
    #: Per-disk capacity weights for an online restripe running in the
    #: background of the scenario; None runs restripe-free.
    restripe_weights: Optional[Tuple[int, ...]] = None
    #: NIC fraction the restriper may consume per source cub.
    restripe_throttle: float = 0.25
    #: Runtime second at which the restripe starts.
    restripe_start: float = 5.0
    #: Write-ahead move journal path; an existing journal from a
    #: crashed run is loaded and the restripe resumes (the
    #: ``--compare-sim`` replay always executes the full plan).
    restripe_journal: Optional[str] = None

    def __post_init__(self) -> None:
        # The config checks its own fields: cubs and the helper tier.
        num_disks = self.config().num_disks
        if self.duration <= self.first_start:
            raise ValueError("duration too short for any stream to start")
        if self.streams < 0:
            raise ValueError("streams must be >= 0")
        if self.num_files < 1:
            raise ValueError("a scenario needs at least one file")
        if self.file_duration_s <= 0:
            raise ValueError("file duration must be positive")
        if self.kill_cub is not None and not 0 <= self.kill_cub < self.cubs:
            raise ValueError(f"kill target cub:{self.kill_cub} out of range")
        if self.kill_helper is not None and not (
            0 <= self.kill_helper < self.helpers
        ):
            raise ValueError(
                f"kill target helper:{self.kill_helper} out of range"
            )
        if self.kill_at is not None:
            # A kill time with nothing to kill, or outside the run, never
            # fires: the run would report PASS having exercised nothing
            # (and the replay's simulator refuses a time in the past
            # outright).
            if self.kill_cub is None and self.kill_helper is None:
                raise ValueError("kill time set but no kill target")
            if not 0.0 < self.kill_at < self.duration:
                raise ValueError("kill time must land inside the run")
        if self.codec not in SUPPORTED_CODECS:
            raise ValueError(
                f"unknown codec {self.codec!r}; pick one of "
                f"{sorted(SUPPORTED_CODECS)}"
            )
        if self.arrivals not in ARRIVAL_MODES:
            raise ValueError(
                f"unknown arrival mode {self.arrivals!r}; pick one of "
                f"{ARRIVAL_MODES}"
            )
        if self.churn < 0:
            raise ValueError("churn must be >= 0")
        if self.restripe_weights is not None:
            if len(self.restripe_weights) != num_disks:
                raise ValueError(
                    f"restripe weights need one entry per disk "
                    f"({num_disks}), got {len(self.restripe_weights)}"
                )
            if any(weight < 1 for weight in self.restripe_weights):
                raise ValueError("restripe weights must be >= 1")
        if not 0.0 < self.restripe_throttle <= 1.0:
            raise ValueError("restripe throttle must be in (0, 1]")
        if self.restripe_weights is not None and not (
            0.0 <= self.restripe_start < self.duration
        ):
            raise ValueError("restripe start must land inside the run")

    def config(self) -> TigerConfig:
        """The Tiger config both backends run."""
        return TigerConfig(
            num_cubs=self.cubs,
            disks_per_cub=2,
            decluster=2,
            streams_per_disk_override=4.0,
            deadman_timeout=self.deadman_timeout,
            helpers=self.helpers,
            helper_capacity=self.helper_capacity,
        )

    def stream_plan(self) -> List[Tuple[int, int, float]]:
        """``(client_index, file_index, start_time)`` per stream.

        ``stagger`` keeps the legacy deterministic ramp byte-for-byte
        (existing baselines and smoke runs depend on it); the random
        modes delegate to :func:`repro.workloads.arrivals
        .open_loop_trace`, seeded from the scenario, so the simulator
        replay sees the identical offered load.
        """
        if self.arrivals == "stagger":
            return [
                (
                    index,
                    index % self.num_files,
                    self.first_start + index * self.stream_stagger,
                )
                for index in range(self.streams)
            ]
        # Leave the last quarter of the run for started streams to
        # actually play; the window floor keeps tiny durations legal.
        window_end = max(self.first_start + 1.0, self.duration * 0.75)
        trace = open_loop_trace(
            viewers=self.streams,
            num_files=self.num_files,
            start=self.first_start,
            end=window_end,
            seed=self.seed,
            mode=self.arrivals,
            zipf_exponent=self.zipf_exponent,
        )
        return [
            (arrival.client_index, arrival.file_index, arrival.time)
            for arrival in trace
        ]

    def stop_plan(self) -> List[Tuple[int, float]]:
        """``(client_index, stop_time)``: one mid-run viewer stop.

        Exercises the deschedule-flooding path in both backends;
        omitted when the run is too short for the stop to land between
        start and shutdown.
        """
        stop_at = self.duration * 0.6
        if self.streams > 0 and stop_at > self.first_start + 3.0:
            return [(0, stop_at)]
        return []

    def churn_plan(self) -> List[Tuple[float, str, int]]:
        """Seeded VCR events ``(time, op, client_index)``.

        ``op`` is ``pause``, ``resume``, or ``stop``.  The plan is a
        pure function of the scenario, so the live run and the
        ``--compare-sim`` replay execute the identical operation
        sequence.  Client 0 is left alone (the legacy :meth:`stop_plan`
        owns it) and each victim is touched once, so the plan never
        depends on runtime state.
        """
        if self.churn <= 0:
            return []
        rng = RngRegistry(self.seed).stream("cluster-churn")
        window_start = self.first_start + 2.0
        window_end = max(window_start + 1.0, self.duration * 0.85)
        free = list(range(1, self.streams))
        events: List[Tuple[float, str, int]] = []
        for _ in range(self.churn):
            if not free:
                break
            victim = free.pop(rng.randrange(len(free)))
            at = rng.uniform(window_start, window_end)
            if rng.random() < 0.7:
                resume_at = min(window_end, at + rng.uniform(1.0, 4.0))
                events.append((at, "pause", victim))
                events.append((resume_at, "resume", victim))
            else:
                events.append((at, "stop", victim))
        events.sort(key=lambda event: (event[0], event[2]))
        return events

    def kill_time(self) -> Optional[float]:
        if self.kill_cub is None:
            return None
        return self.kill_at if self.kill_at is not None else self.duration * 0.4

    def helper_kill_time(self) -> Optional[float]:
        """When to SIGKILL the victim helper (half-way by default, so
        the cache has demonstrably served before its viewers degrade)."""
        if self.kill_helper is None:
            return None
        return self.kill_at if self.kill_at is not None else self.duration * 0.5

    def fault_plan(self) -> FaultPlan:
        """The scenario's faults as the one plan both backends execute
        (empty when the run is fault-free)."""
        plan = FaultPlan(name="scenario")
        if self.kill_cub is not None:
            plan.crash_cub(self.kill_cub, self.kill_time())
        if self.kill_helper is not None:
            plan.crash_helper(self.kill_helper, self.helper_kill_time())
        return plan

    def node_addresses(self) -> List[str]:
        out = [f"cub:{cub_id}" for cub_id in range(self.cubs)]
        out.append("controller")
        if self.backup:
            out.append(BACKUP_CONTROLLER_ADDRESS)
        out.extend(f"helper:{hid}" for hid in range(self.helpers))
        return out

    def namespace_of(self, address: str) -> int:
        """Disjoint message-id namespaces: cub i -> i+1, controller ->
        N+1, backup -> N+2, the driver itself -> N+3, helper j ->
        N+4+j (0 stays free so a forgotten reset is recognizable)."""
        if address.startswith("cub:"):
            return int(address.split(":", 1)[1]) + 1
        if address == "controller":
            return self.cubs + 1
        if address == BACKUP_CONTROLLER_ADDRESS:
            return self.cubs + 2
        if address.startswith("helper:"):
            return self.cubs + 4 + int(address.split(":", 1)[1])
        raise ValueError(f"no namespace for address {address!r}")

    @property
    def driver_namespace(self) -> int:
        return self.cubs + 3


def schedule_viewer_script(
    runtime: Any, scenario: ClusterScenario, clients: Any, files: Any
) -> None:
    """Arm the scenario's viewer operations on ``runtime``.

    The one scenario script both backends execute: every start, stop
    and VCR churn event of :meth:`ClusterScenario.stream_plan`,
    :meth:`~ClusterScenario.stop_plan` and
    :meth:`~ClusterScenario.churn_plan` becomes a ``runtime.call_at``
    against ``clients[client_index]`` — nothing but the Runtime
    contract, so the live driver's ``LiveRuntime`` and the replay's
    ``Simulator`` take the identical sequence.  Each client plays one
    stream at a time; the script tracks its live play instance (and,
    while paused, the parked one a resume hands back in).  An operation
    on a viewer that has no such instance — never started, refused, or
    already gone — is a no-op, as it is for a real viewer.
    """
    instances: Dict[int, int] = {}
    paused_instances: Dict[int, int] = {}

    def _start_stream(client_index: int, file_index: int) -> None:
        file_id = files[file_index].file_id
        instances[client_index] = clients[client_index].start_stream(file_id)

    def _stop_stream(client_index: int) -> None:
        instance = instances.get(client_index)
        if instance is not None:
            clients[client_index].stop_stream(instance)

    def _pause_stream(client_index: int) -> None:
        instance = instances.get(client_index)
        if instance is not None:
            parked = clients[client_index].pause_stream(instance)
            if parked is not None:
                paused_instances[client_index] = parked
                instances.pop(client_index, None)

    def _resume_stream(client_index: int) -> None:
        parked = paused_instances.pop(client_index, None)
        if parked is not None:
            resumed = clients[client_index].resume_stream(parked)
            if resumed is not None:
                instances[client_index] = resumed

    _churn_ops = {
        "pause": _pause_stream,
        "resume": _resume_stream,
        "stop": _stop_stream,
    }

    for client_index, file_index, start_at in scenario.stream_plan():
        runtime.call_at(start_at, _start_stream, client_index, file_index)
    for client_index, stop_at in scenario.stop_plan():
        runtime.call_at(stop_at, _stop_stream, client_index)
    for churn_at, op, client_index in scenario.churn_plan():
        runtime.call_at(churn_at, _churn_ops[op], client_index)


def arm_scenario(host: Any, scenario: ClusterScenario) -> None:
    """Turn ``scenario`` into armed work on ``host``.

    The single place a scenario becomes a restriper, viewer clients,
    their script and a fault plan.  ``host`` is an assembly
    (:class:`~repro.core.world.World`: ``runtime``, layout, catalog)
    that also knows how to take a client and a restriper into its own
    fabric — ``add_client()``, ``attach_restriper(plan, journal=...,
    throttle=...)`` — and executes the fault verbs its ``fault_kinds``
    name (:func:`~repro.faults.injectors.install_plan`).  Two exist:
    :class:`~repro.core.tiger.TigerSystem` (the ``--compare-sim``
    replay) and :class:`LiveCluster` (the real thing).

    The order — restriper, clients, script, faults — is fixed: on the
    DES it decides event sequence numbers, hence equal-time tie order,
    hence the replay's counters.  A wall clock has no order to keep.
    """
    if scenario.restripe_weights is not None:
        arm_rebalance(
            host,
            scenario.restripe_weights,
            scenario.restripe_throttle,
            scenario.restripe_start,
            scenario.restripe_journal,
        )
    clients = [host.add_client() for _ in range(scenario.streams)]
    schedule_viewer_script(
        host.runtime, scenario, clients, host.catalog.files()
    )
    install_plan(scenario.fault_plan(), host)


# ----------------------------------------------------------------------
# Per-connection send queue with watermark backpressure
# ----------------------------------------------------------------------
class NodeConnection:
    """One peer's socket, fronted by a bounded send queue.

    Writers never touch the :class:`asyncio.StreamWriter` directly:
    :meth:`send` enqueues the frame and a single drainer task per
    connection writes it out, awaiting ``writer.drain()`` so a slow
    peer backpressures only its own drainer — the routing hot path
    stays non-blocking.  Crossing :data:`SEND_HIGH_WATERMARK` counts a
    backpressure event (cleared at :data:`SEND_LOW_WATERMARK`);
    overflowing :data:`SEND_QUEUE_HARD_CAP` drops the frame and counts
    it, the moral equivalent of a switch queue tail-dropping.
    """

    def __init__(
        self,
        address: str,
        writer: asyncio.StreamWriter,
        backpressure_counter: Any,
        dropped_counter: Any,
    ) -> None:
        self.address = address
        self.writer = writer
        #: Negotiated *encoding* codec for protocol messages.
        self.codec = CODEC_JSON
        self.backpressure_events = backpressure_counter
        self.sendq_dropped = dropped_counter
        self._queue: deque = deque()
        self._queued_bytes = 0
        self._paused = False
        self._closed = False
        self._wake = asyncio.Event()
        self._drainer = asyncio.ensure_future(self._drain_loop())

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    @property
    def paused(self) -> bool:
        return self._paused

    def is_closing(self) -> bool:
        return self._closed or self.writer.is_closing()

    def send(self, frame: bytes) -> bool:
        """Enqueue one frame; False when closed or over the hard cap."""
        if self.is_closing():
            return False
        if self._queued_bytes + len(frame) > SEND_QUEUE_HARD_CAP:
            self.sendq_dropped.increment()
            return False
        self._queue.append(frame)
        self._queued_bytes += len(frame)
        if self._queued_bytes >= SEND_HIGH_WATERMARK and not self._paused:
            self._paused = True
            self.backpressure_events.increment()
        self._wake.set()
        return True

    def close(self) -> None:
        """Stop the drainer and close the socket."""
        self._closed = True
        self._wake.set()
        if not self.writer.is_closing():
            self.writer.close()

    async def _drain_loop(self) -> None:
        try:
            while not self._closed:
                await self._wake.wait()
                self._wake.clear()
                while self._queue and not self._closed:
                    frame = self._queue.popleft()
                    self._queued_bytes -= len(frame)
                    if self._paused and self._queued_bytes <= SEND_LOW_WATERMARK:
                        self._paused = False
                    self.writer.write(frame)
                    # TCP backpressure lands here: a full kernel buffer
                    # parks this drainer, frames pool in the queue, and
                    # the watermark accounting above sees it.
                    await self.writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._closed = True


# ----------------------------------------------------------------------
# The hub: one listener, one routing table, a metrics inbox
# ----------------------------------------------------------------------
class ClusterHub:
    """Routes frames between node sockets and driver-local components."""

    def __init__(
        self,
        expected: List[str],
        registry: MetricsRegistry,
        preferred_codec: str = CODEC_JSON,
    ) -> None:
        self.expected = set(expected)
        self.preferred_codec = preferred_codec
        self.connections: Dict[str, NodeConnection] = {}
        #: Driver-local delivery targets (the viewer clients).
        self.local: Dict[str, Callable[[Message], None]] = {}
        #: Latest metrics snapshot per node address.
        self.node_metrics: Dict[str, Dict[str, Any]] = {}
        #: ``_bye`` sign-off bodies per node address.
        self.byes: Dict[str, Dict[str, Any]] = {}
        #: ``(address, runtime disconnect reason)`` in arrival order.
        self.disconnects: List[Tuple[str, str]] = []
        #: Addresses whose disconnect is expected (killed or stopping).
        self.expected_exits: set = set()
        self.all_joined = asyncio.Event()
        #: Set when the last open connection closes.
        self.all_left = asyncio.Event()
        #: The ``_start`` frame :meth:`fix_epoch` broadcast; every later
        #: ``hello`` is answered with it too.
        self.start_frame: Optional[bytes] = None
        self.wire_errors: List[str] = []
        self._registry = registry
        self._server: Optional[asyncio.AbstractServer] = None
        self.routed = registry.counter(
            "live.hub_messages_routed",
            help="Protocol messages routed through the cluster hub",
            unit="messages")
        self.dropped = registry.counter(
            "live.hub_messages_dropped",
            help="Messages to unreachable addresses (e.g. killed nodes)",
            unit="messages")
        self.backpressure_events = registry.counter(
            "live.hub_backpressure_events",
            help="Connection send queues crossing the high watermark",
            unit="events")
        self.sendq_dropped = registry.counter(
            "live.hub_sendq_dropped",
            help="Frames dropped at the per-connection hard queue cap",
            unit="frames")
        self.forwarded_raw, self.forwarded_decoded = (
            registry.counter(
                "live.hub_frames_forwarded",
                help="Messages routed, by path: raw = a binary frame's "
                     "bytes relayed untouched, decoded = delivered "
                     "locally or encoded for the destination",
                unit="frames", mode=mode)
            for mode in ("raw", "decoded")
        )
        self.wire_stats = WireStats(registry, node="hub")

    async def start(self) -> List[int]:
        """Listen on an ephemeral localhost port; returns ``[port]``."""
        self._server = await asyncio.start_server(
            self._handle_connection, "127.0.0.1", 0
        )
        return [self._server.sockets[0].getsockname()[1]]

    async def stop(self) -> None:
        for connection in list(self.connections.values()):
            connection.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- framed sends --------------------------------------------------
    def _send_control(self, connection: NodeConnection, frame: bytes) -> bool:
        """Queue a (JSON) control frame, with tx accounting."""
        if connection.send(frame):
            self.wire_stats.on_encoded(CODEC_JSON, len(frame))
            return True
        return False

    # -- routing ------------------------------------------------------
    def route(self, run: Union[Message, RawFrame, List[RawFrame]]) -> bool:
        """Deliver protocol messages to their destination's inbox.

        ``run`` is one :class:`~repro.net.message.Message` (from a
        driver-local sender), or a run: consecutive
        :class:`~repro.live.wire.RawFrame` frames of one read (binary
        frames off a socket, payloads unread) that share one ``dst``.
        A lone ``RawFrame`` is a run of one.  A run bound for a connection
        that negotiated binary is queued as the bytes its senders
        wrote, with one hard-cap check, one ``send`` and one increment
        per counter; if it would overflow the hard cap, it is admitted
        frame by frame, so exactly the frames that fit are queued.  For
        any other destination the hub consumes each payload in order
        and decodes it here.  Counters count frames either way.

        :returns: True when every message was delivered.
        :raises WireError: when a decode finds a corrupt payload.
        """
        if not isinstance(run, list):
            run = [run]
        dst = run[0].dst
        deliver = self.local.get(dst)
        if deliver is not None:
            for message in run:
                if isinstance(message, RawFrame):
                    message = message.message()
                self.routed.increment()
                self.forwarded_decoded.increment()
                deliver(message)
            return True
        connection = self.connections.get(dst)
        if connection is None or connection.is_closing():
            self.dropped.increment(len(run))
            return False
        if connection.codec == CODEC_BINARY and isinstance(run[0], RawFrame):
            return self._forward_raw(connection, [raw.frame for raw in run])
        sent = 0
        for message in run:
            if isinstance(message, RawFrame):
                message = message.message()
            frame = encode_message(message, connection.codec, self.wire_stats)
            if connection.send(frame):
                self.routed.increment()
                self.forwarded_decoded.increment()
                sent += 1
            else:
                self.dropped.increment()
        return sent == len(run)

    def _forward_raw(
        self, connection: NodeConnection, frames: List[bytes]
    ) -> bool:
        """Queue senders' frames untouched on a binary peer's connection."""
        data = b"".join(frames)
        if connection.queued_bytes + len(data) <= SEND_QUEUE_HARD_CAP:
            connection.send(data)
            sent, nbytes = len(frames), len(data)
        else:
            # Over the hard cap: each frame takes its own chance, and
            # send() counts each one that does not fit.
            kept = [frame for frame in frames if connection.send(frame)]
            sent, nbytes = len(kept), sum(map(len, kept))
            self.dropped.increment(len(frames) - sent)
        # Still frames this endpoint put on a socket: count them tx.
        self.routed.increment(sent)
        self.forwarded_raw.increment(sent)
        self.wire_stats.on_encoded(CODEC_BINARY, nbytes, sent)
        return sent == len(frames)

    def broadcast(self, frame: bytes) -> None:
        """Queue one control frame to every connected node."""
        for connection in self.connections.values():
            self._send_control(connection, frame)

    def fix_epoch(self, epoch: float, duration: float) -> None:
        """Broadcast ``_start`` and keep it for nodes that join later."""
        self.start_frame = control_frame(
            "_start", epoch=epoch, duration=duration
        )
        self.broadcast(self.start_frame)

    # -- per-connection service ---------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = EnvelopeDecoder(stats=self.wire_stats)
        address: Optional[str] = None
        connection: Optional[NodeConnection] = None
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for kind, parsed in _runs(decoder.feed_parsed(data)):
                    if kind != "ctl":
                        self.route(parsed)
                        continue
                    ctl = parsed.get("ctl")
                    if ctl == "hello":
                        address = parsed["node"]
                        connection = NodeConnection(
                            address,
                            writer,
                            self.backpressure_events,
                            self.sendq_dropped,
                        )
                        self.connections[address] = connection
                        # Codec negotiation: a peer that advertised
                        # nothing is a v1 build — leave it on JSON and
                        # send no ack it wouldn't understand anyway.
                        offered = parsed.get("codecs")
                        if offered:
                            chosen = choose_codec(
                                offered, self.preferred_codec
                            )
                            connection.codec = chosen
                            self._send_control(
                                connection,
                                control_frame("codec_ack", codec=chosen),
                            )
                        if self.start_frame is not None:
                            self._send_control(connection, self.start_frame)
                        self.all_left.clear()
                        if self.expected <= set(self.connections):
                            self.all_joined.set()
                    elif ctl == "_ready":
                        self._registry.gauge(
                            "live.epoch_slack",
                            help="Shared epoch minus the node's wall "
                                 "time when it was ready to run",
                            unit="seconds", node=parsed["node"],
                        ).set(float(parsed["slack"]))
                    elif ctl == "_metrics":
                        self.node_metrics[parsed["node"]] = parsed["data"]
                    elif ctl == "_bye":
                        self.byes[parsed["node"]] = parsed
                        self.expected_exits.add(parsed["node"])
                    elif ctl == "_error":
                        # A node's decoder rejected a frame the hub
                        # forwarded unopened; ``src`` names its sender.
                        self.wire_errors.append(
                            f"{parsed['node']} (from "
                            f"{parsed.get('src') or '?'}): "
                            f"{parsed.get('reason', '?')}"
                        )
        except (ConnectionError, OSError):
            pass
        except WireError as error:
            self.wire_errors.append(f"{address or '?'}: {error}")
            if not writer.is_closing():
                # Tell the peer why it is about to lose its socket —
                # written past the send queue, which the close() below
                # abandons unsent.
                frame = control_frame("_error", reason=str(error))
                writer.write(frame)
                self.wire_stats.on_encoded(CODEC_JSON, len(frame))
        finally:
            if address is not None:
                # A node that re-sent ``hello`` on a new socket owns the
                # entry now; this socket's end must not evict it.
                if self.connections.get(address) is connection:
                    del self.connections[address]
                    if not self.connections:
                        self.all_left.set()
                reason = (
                    "clean" if address in self.expected_exits else "unexpected"
                )
                self.disconnects.append((address, reason))
            if connection is not None:
                connection.close()
            elif not writer.is_closing():
                writer.close()


def _runs(frames: List[Tuple[str, Any]]) -> Iterator[Tuple[str, Any]]:
    """One read's parsed frames, in order, with each stretch of
    consecutive ``raw`` frames bound for one ``dst`` grouped into one
    ``("raw", [RawFrame, ...])`` run; every other frame ends the run in
    progress and passes through alone."""
    run: List[RawFrame] = []
    for kind, parsed in frames:
        if kind == "raw":
            if run and run[0].dst != parsed.dst:
                yield "raw", run
                run = []
            run.append(parsed)
            continue
        if run:
            yield "raw", run
            run = []
        yield kind, parsed
    if run:
        yield "raw", run


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class ClusterReport:
    """Everything a live run produced, plus pass/fail bookkeeping."""

    scenario: ClusterScenario
    merged: Dict[str, Any]
    node_metrics: Dict[str, Dict[str, Any]]
    byes: Dict[str, Dict[str, Any]]
    unexpected_exits: List[str]
    wire_errors: List[str]
    kills: List[Tuple[float, str]]
    wall_seconds: float
    workdir: str
    #: ``(counter, sim, live, tolerance, ok)`` rows when compare ran.
    comparison: List[Tuple[str, float, float, float, bool]] = field(
        default_factory=list
    )
    compared: bool = False

    def checks(self) -> List[Tuple[str, bool, str]]:
        """Acceptance checks: ``(name, ok, detail)`` rows."""
        merged = self.merged
        rows: List[Tuple[str, bool, str]] = []
        violations = snapshot_total(merged, "invariant.violations")
        rows.append((
            "invariant violations", violations == 0, f"{violations:g}"
        ))
        corrupt = snapshot_total(merged, "live.client_blocks_corrupt")
        rows.append((
            "corrupt blocks at clients", corrupt == 0, f"{corrupt:g}"
        ))
        errors = sum(
            int(bye.get("errors", 0)) for bye in self.byes.values()
        )
        rows.append(("node callback errors", errors == 0, f"{errors}"))
        rows.append((
            "unexpected node exits",
            not self.unexpected_exits,
            ", ".join(self.unexpected_exits) or "none",
        ))
        rows.append((
            "wire protocol errors",
            not self.wire_errors,
            "; ".join([f"{len(self.wire_errors)}"] + self.wire_errors),
        ))
        received = snapshot_total(merged, "live.client_blocks_received")
        rows.append((
            "clients received data", received > 0, f"{received:g} blocks"
        ))
        rows.append(self._readiness_row())
        if self.scenario.restripe_weights is not None:
            committed = snapshot_total(merged, "restripe.moves_committed")
            skipped = snapshot_total(merged, "restripe.moves_skipped")
            rows.append((
                "restripe made progress",
                committed + skipped > 0,
                f"{committed:g} committed, {skipped:g} resumed-skipped",
            ))
        cub_kills = [
            kill for kill in self.kills if kill[1].startswith("cub:")
        ]
        if cub_kills:
            pieces = snapshot_total(merged, "cub.mirror_pieces_sent")
            rows.append((
                "mirror takeover after kill",
                pieces > 0,
                f"{pieces:g} mirror pieces sent",
            ))
        if self.compared:
            bad = [row[0] for row in self.comparison if not row[4]]
            rows.append((
                "sim/live counters within tolerance",
                not bad,
                ", ".join(bad) or f"{len(self.comparison)} counters match",
            ))
        return rows

    def _readiness_row(self) -> Tuple[str, bool, str]:
        """Every node's ``_ready`` slack (``live.epoch_slack``) must be
        positive: a node that was not ready by the epoch, or never said
        it was, ran on a start window too short to cover its boot."""
        slack = {
            row["labels"].get("node"): row["value"]
            for row in self.merged.get("live.epoch_slack", {}).get("series", ())
        }
        addresses = self.scenario.node_addresses()
        late = [
            f"{address} "
            + (f"{slack[address] * 1e3:.1f} ms" if address in slack
               else "never reported")
            for address in addresses
            if slack.get(address, 0.0) <= 0.0
        ]
        if late:
            return "nodes ready before the epoch", False, "; ".join(late)
        least = min(slack[address] for address in addresses)
        return (
            "nodes ready before the epoch", True,
            f"min slack {least * 1e3:.1f} ms of "
            f"{self.scenario.start_delta * 1e3:g} ms",
        )

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks())

    def render(self) -> str:
        """Human-readable multi-section report."""
        lines: List[str] = []
        scenario = self.scenario
        lines.append(
            f"live cluster: {scenario.cubs} cubs, {scenario.streams} "
            f"streams, {scenario.duration:g}s runtime "
            f"({self.wall_seconds:.1f}s wall), codec {scenario.codec}, "
            f"arrivals {scenario.arrivals}"
        )
        if scenario.helpers:
            lines.append(
                f"  helper tier: {scenario.helpers} helper(s), "
                f"{scenario.helper_capacity} blocks each"
            )
        if scenario.restripe_weights is not None:
            lines.append(
                f"  restripe: weights "
                f"{','.join(str(w) for w in scenario.restripe_weights)}, "
                f"throttle {scenario.restripe_throttle:g}, "
                f"start t={scenario.restripe_start:g}s"
            )
        for when, address in self.kills:
            lines.append(f"  fault: SIGKILL {address} at t={when:g}s")
        lines.append(f"  node logs and specs: {self.workdir}")
        lines.append("")
        lines.append("protocol counters (all nodes merged):")
        for name in (
            "cub.viewer_states_forwarded",
            "cub.deschedules_forwarded",
            "cub.inserts_performed",
            "cub.blocks_sent",
            "cub.mirror_pieces_sent",
            "cub.server_missed_blocks",
            "controller.starts_routed",
            "controller.stops_routed",
            "live.hub_messages_routed",
            "live.wire_frames",
            "live.hub_backpressure_events",
            "live.hub_sendq_dropped",
        ) + (
            (
                "helper.hits",
                "helper.misses",
                "helper.blocks_served",
                "helper.origin_offload_ratio",
            )
            if scenario.helpers
            else ()
        ) + (
            (
                "restripe.moves_planned",
                "restripe.moves_committed",
                "restripe.bytes_moved",
                "restripe.retries",
            )
            if scenario.restripe_weights is not None
            else ()
        ):
            lines.append(
                f"  {name:<34} {snapshot_total(self.merged, name):>12g}"
            )
        if self.compared:
            lines.append("")
            lines.append("simulator comparison (|sim - live| <= tolerance):")
            for name, sim_v, live_v, tol, ok in self.comparison:
                mark = "ok " if ok else "FAIL"
                drift = relative_drift(sim_v, live_v)
                lines.append(
                    f"  {mark} {name:<34} sim={sim_v:>9g} "
                    f"live={live_v:>9g} tol={tol:g} drift={drift:.0%}"
                )
        lines.append("")
        lines.append("checks:")
        for name, ok, detail in self.checks():
            lines.append(f"  {'ok ' if ok else 'FAIL'} {name}: {detail}")
        lines.append("")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class LiveCluster(World):
    """The live scenario host: the driver's assembly plus the spawned
    node processes its fault verbs SIGKILL.

    Viewer clients and the online restriper are driver-hosted protocol
    nodes — the same classes the DES runs, on ``LiveRuntime`` +
    ``HubTransport``; what they send rides the hub to the real node
    processes, and replies route back through ``hub.local``.
    """

    def __init__(
        self,
        scenario: ClusterScenario,
        hub: ClusterHub,
        runtime: LiveRuntime,
        registry: MetricsRegistry,
        procs: Dict[str, subprocess.Popen],
    ) -> None:
        super().__init__(
            scenario.config(),
            runtime,
            HubTransport(hub, runtime),
            registry,
            tracer=None,
            rngs=RngRegistry(scenario.seed),
        )
        self.add_standard_content(
            num_files=scenario.num_files,
            duration_s=scenario.file_duration_s,
        )
        self.hub = hub
        self.procs = procs
        self.clients: List[Any] = []
        self.restriper: Any = None
        #: ``(runtime_time, address)`` kills actually performed.
        self.kills: List[Tuple[float, str]] = []
        self._backup = BACKUP_CONTROLLER_ADDRESS if scenario.backup else None
        self.lateness = registry.histogram(
            "live.block_lateness",
            help="Whole-block arrival time minus play deadline at "
                 "driver-hosted viewers (negative = early)",
            unit="seconds",
        )

    # -- the host contract (see arm_scenario) --------------------------
    def add_client(self) -> Any:
        """Host one more viewer, reachable as ``client:<n>`` at the hub."""
        client = self.make_client(len(self.clients), backup=self._backup)
        attach_helpers(client)
        self.hub.local[client.address] = self._observed_deliver(client)
        self.clients.append(client)
        return client

    def _observed_deliver(self, client: Any) -> Callable[[Message], None]:
        """Delivery tap: record block-service lateness, then deliver."""
        lateness, runtime = self.lateness, self.runtime

        def deliver(message: Message) -> None:
            payload = message.payload
            if isinstance(payload, BlockData) and payload.piece is None:
                monitor = client.streams.get(payload.instance)
                if (
                    monitor is not None
                    and monitor.first_block_time is not None
                ):
                    lateness.observe(
                        runtime.now - monitor.deadline(payload.play_seqno)
                    )
            client.deliver(message)

        return deliver

    def attach_restriper(self, plan: Any, **options: Any) -> Any:
        """Host the restriper; acks route back through ``hub.local``."""
        self.restriper = make_restriper(self, plan, **options)
        self.hub.local[RESTRIPER_ADDRESS] = self.restriper.deliver
        return self.restriper

    # -- fault verbs (see install_plan) ---------------------------------
    #: What a SIGKILL can do.  Respawning a process (``cub.restart``)
    #: is not implemented, so the live backend has no recovery verbs.
    fault_kinds = frozenset({CUB_CRASH, CONTROLLER_KILL, HELPER_CRASH})

    def fail_cub(self, cub_id: int) -> None:
        self.kill_node(f"cub:{cub_id}")

    def fail_helper(self, helper_id: int) -> None:
        self.kill_node(f"helper:{helper_id}")

    def fail_controller(self) -> None:
        self.kill_node("controller")

    def kill_node(self, address: str) -> None:
        """SIGKILL a node: every live fault is one.  It is the most
        faithful fault available — the victim stops mid-protocol with
        no cleanup or goodbye, its TCP connection drops, and a cub's
        survivors walk the same §2.3 deadman path the simulator does."""
        proc = self.procs.get(address)
        if proc is None or proc.poll() is not None:
            return
        self.hub.expected_exits.add(address)
        proc.kill()
        self.kills.append((self.runtime.now, address))

    # -- end of run -----------------------------------------------------
    def export_metrics(self) -> MetricsRegistry:
        """Fold driver-side observations into the registry."""
        registry = self.registry
        for client in self.clients:
            for metric, total in (
                ("live.client_blocks_received", client.total_received()),
                ("live.client_blocks_late", client.total_late()),
                ("live.client_blocks_missed", client.total_missed()),
                ("live.client_blocks_corrupt", client.total_corrupt()),
            ):
                registry.gauge(
                    metric,
                    help="Driver-hosted viewer reception bookkeeping",
                    unit="blocks", node=client.address,
                ).set(total)
        lateness = self.lateness
        registry.gauge(
            "live.block_lateness_p99",
            help="p99 of live.block_lateness across the whole run",
            unit="seconds",
        ).set(lateness.quantile(0.99) if lateness.n else 0.0)
        if self.restriper is not None:
            self.restriper.export_gauges()
        if self.config.helpers:
            # Offload ratio across the whole run, from the nodes' final
            # snapshots.
            registry.gauge(
                "helper.origin_offload_ratio",
                help="Fraction of whole-block services the helper tier "
                     "absorbed instead of the cub schedule",
                unit="ratio",
            ).set(origin_offload_ratio(
                merge_snapshots(list(self.hub.node_metrics.values()))
            ))
        return registry


def _reap(procs: Dict[str, subprocess.Popen], timeout: float = 5.0) -> None:
    """Terminate and wait out every remaining subprocess."""
    for proc in procs.values():
        if proc.poll() is None:
            proc.terminate()
    deadline = time.time() + timeout
    for proc in procs.values():
        remaining = max(0.1, deadline - time.time())
        try:
            proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5.0)


def _write_node_spec(
    workdir: Path,
    scenario: ClusterScenario,
    address: str,
    port: int,
) -> Path:
    """Write one node's boot spec; ``port`` is the hub's listener."""
    if address.startswith("cub:"):
        role, node_id = ROLE_CUB, int(address.split(":", 1)[1])
    elif address.startswith("helper:"):
        role, node_id = ROLE_HELPER, int(address.split(":", 1)[1])
    elif address == "controller":
        role, node_id = ROLE_CONTROLLER, 0
    else:
        role, node_id = ROLE_BACKUP, 0
    spec = {
        "role": role,
        "node_id": node_id,
        "address": address,
        "namespace": scenario.namespace_of(address),
        "seed": scenario.seed,
        "host": "127.0.0.1",
        "port": port,
        "config": config_to_dict(scenario.config()),
        "content": {
            "num_files": scenario.num_files,
            "duration_s": scenario.file_duration_s,
        },
        "metrics_interval": scenario.metrics_interval,
        "backup_enabled": scenario.backup,
    }
    path = workdir / f"{address.replace(':', '-')}.json"
    path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
    return path


def _spawn_nodes(
    workdir: Path,
    scenario: ClusterScenario,
    port: int,
) -> Dict[str, subprocess.Popen]:
    procs: Dict[str, subprocess.Popen] = {}
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    for address in scenario.node_addresses():
        spec_path = _write_node_spec(workdir, scenario, address, port)
        log_path = workdir / f"{address.replace(':', '-')}.log"
        with open(log_path, "wb") as log:
            procs[address] = subprocess.Popen(
                # -S: a node needs only the standard library and
                # repro, so skip the site-packages scan.
                [sys.executable, "-S", "-m", "repro.live.node",
                 "--spec", str(spec_path)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
            )
    return procs


async def _run_cluster_async(
    scenario: ClusterScenario,
    echo: Callable[[str], None],
) -> ClusterReport:
    wall_start = time.time()
    registry = MetricsRegistry()
    hub = ClusterHub(
        scenario.node_addresses(), registry, preferred_codec=scenario.codec
    )
    (port,) = await hub.start()
    workdir = Path(tempfile.mkdtemp(prefix="tiger-live-"))
    echo(
        f"booting {len(scenario.node_addresses())} node processes "
        f"(hub on 127.0.0.1:{port}, codec {scenario.codec}, "
        f"workdir {workdir})"
    )
    procs = _spawn_nodes(workdir, scenario, port)
    # The driver's own assembly is built while the nodes boot.  Its
    # runtime has no epoch yet, so nothing can be scheduled on it
    # before the join fixes one.
    runtime = LiveRuntime.awaiting_epoch(asyncio.get_running_loop())
    reset_message_ids(scenario.driver_namespace)
    cluster = LiveCluster(scenario, hub, runtime, registry, procs)
    try:
        await asyncio.wait_for(
            hub.all_joined.wait(), timeout=JOIN_TIMEOUT
        )
    except asyncio.TimeoutError:
        _reap(procs)
        await hub.stop()
        missing = sorted(hub.expected - set(hub.connections))
        raise RuntimeError(
            f"cluster never assembled: {missing} did not join within "
            f"{JOIN_TIMEOUT:g}s (logs in {workdir})"
        ) from None

    # Every node is connected: fix the shared epoch start_delta in the
    # future, for every node to boot by t=0 — each one's ``_ready``
    # says whether it did.
    epoch = time.time() + scenario.start_delta
    hub.fix_epoch(epoch, scenario.duration)
    runtime.fix_epoch(epoch)
    # One turn of the loop lets every connection's drainer put its
    # ``_start`` on the wire before the driver arms the scenario.
    await asyncio.sleep(0)
    arm_scenario(cluster, scenario)
    if cluster.restriper is not None:
        echo(
            f"armed restripe: {len(cluster.restriper.plan.moves)} moves "
            f"at t={scenario.restripe_start:g}s, throttle "
            f"{scenario.restripe_throttle:g}"
        )
    for spec in scenario.fault_plan().events:
        echo(f"armed fault: SIGKILL {spec.target} at t={spec.start:g}s")

    echo(
        f"epoch fixed; driving {scenario.streams} streams for "
        f"{scenario.duration:g}s of runtime"
    )
    await asyncio.sleep(max(0.0, epoch + scenario.duration - time.time()))

    # Stop: ask every surviving node to snapshot and sign off, and
    # wait for the last one to hang up.
    for address in hub.connections:
        hub.expected_exits.add(address)
    hub.broadcast(control_frame("_stop"))
    try:
        await asyncio.wait_for(hub.all_left.wait(), timeout=DRAIN_TIMEOUT)
    except asyncio.TimeoutError:
        pass
    runtime.cancel_all()
    _reap(procs)
    await hub.stop()
    cluster.export_metrics()

    killed = {address for _, address in cluster.kills}
    unexpected = [
        address
        for address, reason in hub.disconnects
        if reason == "unexpected" and address not in killed
    ]
    merged = merge_snapshots(
        [registry.snapshot()] + list(hub.node_metrics.values())
    )
    return ClusterReport(
        scenario=scenario,
        merged=merged,
        node_metrics=dict(hub.node_metrics),
        byes=dict(hub.byes),
        unexpected_exits=unexpected,
        wire_errors=list(hub.wire_errors),
        kills=list(cluster.kills),
        wall_seconds=time.time() - wall_start,
        workdir=str(workdir),
    )


# ----------------------------------------------------------------------
# The same scenario in the simulator, and the comparison
# ----------------------------------------------------------------------
def replay_scenario_in_sim(scenario: ClusterScenario) -> TigerSystem:
    """Replay a cluster scenario on the DES; returns the system at the
    scenario's end, metrics exported.

    Identical wiring decisions: same config, same content library, same
    staggered starts, same mid-run stop, same kill instant (a powered
    -off cub, the DES equivalent of SIGKILL).
    """
    system = TigerSystem(scenario.config(), seed=scenario.seed)
    system.add_standard_content(
        num_files=scenario.num_files, duration_s=scenario.file_duration_s
    )
    if scenario.backup:
        system.enable_controller_backup()
    # The replay always executes the full plan: no journal to resume.
    arm_scenario(system, replace(scenario, restripe_journal=None))
    system.run_until(scenario.duration)
    system.export_metrics()
    return system


def run_scenario_in_sim(scenario: ClusterScenario) -> Dict[str, Any]:
    """The metrics snapshot of :func:`replay_scenario_in_sim`."""
    return replay_scenario_in_sim(scenario).registry.snapshot()


#: ``(counter family, relative tolerance, absolute floor)`` — the
#: contract ``repro cluster --compare-sim`` enforces.  Rationale in
#: DESIGN.md: wall-clock jitter shifts pump/heartbeat phase and failover
#: detection instants, so counts wobble but stay the same order; the
#: mirror/deschedule counters get wider bands because one failover
#: detection arriving a heartbeat later changes how many blocks the
#: mirror path covers.
COMPARE_COUNTERS: List[Tuple[str, float, float]] = [
    ("cub.viewer_states_forwarded", 0.35, 200.0),
    ("cub.deschedules_forwarded", 0.50, 40.0),
    ("cub.inserts_performed", 0.35, 8.0),
    ("cub.blocks_sent", 0.35, 30.0),
    ("cub.mirror_pieces_sent", 0.50, 40.0),
    ("controller.starts_routed", 0.25, 2.0),
    ("controller.stops_routed", 0.25, 2.0),
    # Restripe pacing is time-based, so a short live run's commit count
    # drifts with wall-clock jitter; both sides are zero restripe-free.
    ("restripe.moves_committed", 0.50, 25.0),
]


def relative_drift(sim_total: float, live_total: float) -> float:
    """``|sim - live|`` as a fraction of the larger side, zero-safe.

    A freshly booted scenario legitimately leaves some baseline
    counters at zero (no kill → no mirror pieces, no stops → no
    deschedules).  Two zeros are perfect agreement (drift ``0.0``);
    one zero against a nonzero value is total disagreement (drift
    ``1.0``) — never a :class:`ZeroDivisionError`.
    """
    reference = max(abs(sim_total), abs(live_total))
    if reference == 0:
        return 0.0
    return abs(sim_total - live_total) / reference


def compare_counters(
    sim_snapshot: Dict[str, Any], live_snapshot: Dict[str, Any]
) -> List[Tuple[str, float, float, float, bool]]:
    """Diff protocol counters between backends.

    Pass/fail is decided on the *absolute* band ``max(floor, rel x
    max(sim, live))`` — never a ratio — so a zero-valued baseline
    counter can't divide anything; :func:`relative_drift` supplies the
    display percentage with the same zero-safety.

    :returns: ``(name, sim_total, live_total, tolerance, ok)`` rows,
        one per entry of :data:`COMPARE_COUNTERS`.
    """
    rows = []
    for name, rel, floor in COMPARE_COUNTERS:
        sim_total = snapshot_total(sim_snapshot, name)
        live_total = snapshot_total(live_snapshot, name)
        tolerance = max(floor, rel * max(sim_total, live_total))
        ok = abs(sim_total - live_total) <= tolerance
        rows.append((name, sim_total, live_total, tolerance, ok))
    return rows


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_cluster(
    scenario: ClusterScenario,
    compare_sim: bool = False,
    echo: Optional[Callable[[str], None]] = None,
) -> ClusterReport:
    """Boot, drive, and tear down a live cluster; optionally compare.

    :param scenario: What to run.
    :param compare_sim: Also replay the scenario in the DES and attach
        counter-comparison rows to the report.
    :param echo: Progress sink (e.g. ``print``); None is silent.
    :returns: The finished :class:`ClusterReport`.
    """
    sink = echo if echo is not None else (lambda _line: None)
    report = asyncio.run(_run_cluster_async(scenario, sink))
    if compare_sim:
        sink("replaying the identical scenario in the simulator...")
        sim_snapshot = run_scenario_in_sim(scenario)
        report.comparison = compare_counters(sim_snapshot, report.merged)
        report.compared = True
    return report
