"""One Tiger component as a real OS process.

``python -S -m repro.live.node --spec FILE`` boots exactly one protocol
component — a cub, the controller, the backup controller or a helper —
against the live backend.  Everything that does not depend on the
cluster's epoch happens before the node joins:

1. read the JSON **node spec** (written by the cluster driver:
   role, address, message-id namespace, hub endpoint, serialized
   :class:`~repro.config.TigerConfig`, content parameters);
2. import the classes of its role, and no other role's
   (:data:`ROLE_MODULES`);
3. build the same assembly the simulator runs
   (:class:`~repro.core.world.World`) with its content — placement is
   a pure function of the config, so no metadata distribution protocol
   is needed and every node's placement table is byte-identical to
   the simulator's;
4. connect to the cluster hub and say hello.

Then it waits for the hub's ``_start`` frame carrying the shared
**epoch** (the wall-clock instant that is runtime time 0.0 for every
node), and only wires:

5. bind a :class:`~repro.live.runtime.LiveRuntime` and a
   :class:`~repro.live.transport.NodeTransport` to the world, ask it
   for the **one** node the spec names — the unmodified protocol class,
   wired by the same ``make_*`` call that wires it in the DES — and
   report ``_ready`` with its slack, how long before the epoch it got
   there;
6. pump frames: incoming message frames go to ``component.deliver``,
   metrics snapshots stream back to the hub every few seconds, and a
   ``_stop`` frame (or hub disconnect) ends the process after one
   final snapshot.

The driver starts it with ``-S``: a node needs the standard library and
``repro`` only, so the interpreter skips site processing.  The spec is
a file, not argv, so a config never hits shell quoting and the driver
can keep specs around for post-mortem reruns.
"""

from __future__ import annotations

import asyncio
import dataclasses
import importlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.config import TigerConfig
from repro.core.protocol import BACKUP_CONTROLLER_ADDRESS, CONTROLLER_ADDRESS
from repro.core.world import World
from repro.live.runtime import LiveRuntime
from repro.live.transport import NodeTransport
from repro.live.wire import (
    CODEC_JSON,
    SUPPORTED_CODECS,
    FrameDecoder,
    WireError,
    WireStats,
    control_frame,
)
from repro.net.message import reset_message_ids
from repro.obs.registry import MetricsRegistry
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

if TYPE_CHECKING:
    from repro.faults.monitor import InvariantMonitor

ROLE_CUB = "cub"
ROLE_CONTROLLER = "controller"
ROLE_BACKUP = "backup"
ROLE_HELPER = "helper"

#: What :func:`build_component` imports for each role: the class its
#: ``make_*`` call builds, and for a cub the tiers it attaches and the
#: invariant monitor.  A node imports these before it says hello, so
#: that ``_start`` finds them loaded.
ROLE_MODULES: Dict[str, Tuple[str, ...]] = {
    ROLE_CUB: (
        "repro.core.cub",
        "repro.faults.monitor",
        "repro.helpers",
        "repro.storage.rebalance",
    ),
    ROLE_CONTROLLER: ("repro.core.controller",),
    ROLE_BACKUP: ("repro.core.failover",),
    ROLE_HELPER: ("repro.helpers.node",),
}

#: Default cadence of ``_metrics`` frames back to the hub.
DEFAULT_METRICS_INTERVAL = 2.0


# ----------------------------------------------------------------------
# Spec decoding: the config round trip and the role dispatch
# ----------------------------------------------------------------------
def config_to_dict(config: TigerConfig) -> Dict[str, Any]:
    """Serialize a config's scalar fields for a node spec.

    The nested :class:`~repro.disk.model.DiskParameters` (with its zone
    geometry) is deliberately left out: live clusters run the default
    disk timing model, and a node rebuilds it from defaults.  Everything
    the schedule protocol itself depends on — counts, leads, timeouts,
    block timing — round-trips exactly.
    """
    out: Dict[str, Any] = {}
    for field in dataclasses.fields(TigerConfig):
        if field.name == "disk":
            continue
        out[field.name] = getattr(config, field.name)
    return out


def config_from_dict(data: Dict[str, Any]) -> TigerConfig:
    """Inverse of :func:`config_to_dict` (default disk model)."""
    known = {field.name for field in dataclasses.fields(TigerConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config fields in node spec: {unknown}")
    return TigerConfig(**data)


def build_component(
    spec: Dict[str, Any], world: World
) -> Tuple[Any, Optional[InvariantMonitor]]:
    """Have ``world`` build the protocol component a spec asks for.

    :returns: ``(component, monitor)``; an invariant monitor of the
        cub-scope checks is only created for cubs (it is not installed
        yet).
    """
    role = spec["role"]
    if role == ROLE_CUB:
        from repro.faults.monitor import InvariantMonitor
        from repro.helpers import attach_helpers
        from repro.storage.rebalance import attach_restripe

        # No slot audit: it books the schedule off the DES fabric, so a
        # live double-book is not counted at all.
        cub = world.make_cub(int(spec["node_id"]))
        attach_restripe(cub)
        attach_helpers(cub)
        if spec.get("backup_enabled"):
            cub.controller_addresses = (
                CONTROLLER_ADDRESS, BACKUP_CONTROLLER_ADDRESS
            )
        return cub, InvariantMonitor(world, cub)
    if role == ROLE_CONTROLLER:
        controller = world.make_controller()
        if spec.get("backup_enabled"):
            controller.attach_backup(BACKUP_CONTROLLER_ADDRESS)
        return controller, None
    if role == ROLE_HELPER:
        from repro.helpers.node import make_helper

        return make_helper(world, int(spec["node_id"])), None
    if role == ROLE_BACKUP:
        return world.make_backup_controller(), None
    raise ValueError(f"unknown node role {role!r}")


# ----------------------------------------------------------------------
# The node process proper
# ----------------------------------------------------------------------
class LiveNode:
    """Lifecycle of one node process: handshake, run, drain, exit."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        """Everything the epoch does not decide: the role's classes
        and the world's content."""
        self.spec = spec
        self.address: str = spec["address"]
        self.metrics_interval = float(
            spec.get("metrics_interval", DEFAULT_METRICS_INTERVAL)
        )
        if spec["role"] not in ROLE_MODULES:
            raise ValueError(f"unknown node role {spec['role']!r}")
        for module in ROLE_MODULES[spec["role"]]:
            importlib.import_module(module)
        self.runtime: Optional[LiveRuntime] = None
        self.transport: Optional[NodeTransport] = None
        self.registry = MetricsRegistry()
        # No runtime or transport yet: _boot binds them at _start.
        self.world = World(
            config_from_dict(spec["config"]),
            None,
            None,
            self.registry,
            Tracer(capacity=4096),
            RngRegistry(int(spec.get("seed", 0))),
        )
        content = spec.get("content", {})
        self.world.add_standard_content(
            num_files=int(content.get("num_files", 16)),
            duration_s=float(content.get("duration_s", 600.0)),
        )
        self.component: Any = None
        self.monitor: Optional[InvariantMonitor] = None
        self._stopping = False
        #: Frames this node's decoder rejected (fatal: at most 1).
        self.wire_errors = 0
        #: Outgoing message codec; JSON until the hub's ``codec_ack``.
        self.codec = CODEC_JSON
        self.wire_stats = WireStats(self.registry, node=self.address)

    # -- metrics ------------------------------------------------------
    def _publish_runtime_health(self) -> None:
        runtime, transport = self.runtime, self.transport
        gauge = self.registry.gauge
        gauge("live.events_dispatched",
              help="Timer callbacks executed on this node's runtime",
              unit="events", node=self.address).set(runtime.events_dispatched)
        gauge("live.callback_errors",
              help="Exceptions raised by runtime callbacks",
              unit="errors", node=self.address).set(runtime.callback_errors)
        gauge("live.messages_sent",
              help="Protocol messages framed onto the hub socket",
              unit="messages", node=self.address).set(transport.messages_sent)
        gauge("live.bytes_sent",
              help="Frame bytes written to the hub socket",
              unit="bytes", node=self.address).set(transport.bytes_sent)
        gauge("live.clock_skew",
              help="Node wall clock minus hub epoch schedule time; "
                   "localhost nodes share one clock so this tracks "
                   "metrics-pump lateness, not true skew",
              unit="seconds", node=self.address).set(0.0)

    def _metrics_frame(self) -> bytes:
        self._publish_runtime_health()
        return control_frame(
            "_metrics",
            node=self.address,
            t=self.runtime.now,
            data=self.registry.snapshot(),
        )

    def _write_control(self, writer: asyncio.StreamWriter, frame: bytes) -> None:
        # Control frames are always JSON; count them so tx accounting
        # covers every frame this node puts on the wire.
        writer.write(frame)
        self.wire_stats.on_encoded(CODEC_JSON, len(frame))

    def _pump_metrics(self, writer: asyncio.StreamWriter) -> None:
        if self._stopping or writer.is_closing():
            return
        self._write_control(writer, self._metrics_frame())
        self.runtime.call_after(
            self.metrics_interval, self._pump_metrics, writer
        )

    # -- lifecycle ----------------------------------------------------
    async def run(self) -> int:
        """Connect, handshake, serve until stopped; returns exit code."""
        spec = self.spec
        # Namespace the message-id sequence so every live node mints ids
        # in a disjoint range — globally unique with zero coordination.
        reset_message_ids(int(spec["namespace"]))
        reader, writer = await asyncio.open_connection(
            spec.get("host", "127.0.0.1"), int(spec["port"])
        )
        self._write_control(
            writer,
            control_frame(
                "hello", node=self.address, pid=os.getpid(),
                codecs=list(SUPPORTED_CODECS),
            ),
        )
        await writer.drain()

        decoder = FrameDecoder(stats=self.wire_stats)
        try:
            start_body = await self._await_start(reader, decoder)
            epoch = float(start_body["epoch"])
            self._boot(epoch, writer)
            # The proof that the start window covered this boot: how
            # long before the epoch this node could run.
            self._write_control(
                writer,
                control_frame(
                    "_ready", node=self.address, slack=epoch - time.time()
                ),
            )
            await self._serve(reader, decoder)
        except WireError as error:
            # The hub forwards binary frames unopened, so a peer's bad
            # payload is first seen here.  Say why before leaving, and
            # name the sender: the hub fails the run on it.
            self.wire_errors += 1
            print(
                f"{self.address}: rejected a frame from "
                f"{error.src or '?'}: {error}",
                flush=True,
            )
            self._write_control(
                writer,
                control_frame(
                    "_error", node=self.address, reason=str(error),
                    src=error.src, msg_id=error.msg_id,
                ),
            )
        await self._shutdown(writer)
        return 1 if self.wire_errors else 0

    def _boot(self, epoch: float, writer: asyncio.StreamWriter) -> None:
        """Wire the runtime and the component once the epoch is known."""
        self.runtime = LiveRuntime(epoch, asyncio.get_running_loop())
        self.transport = NodeTransport(
            self.runtime, writer, codec=self.codec, stats=self.wire_stats
        )
        self.world.bind(self.runtime, self.transport)
        self.component, self.monitor = build_component(self.spec, self.world)
        if self.monitor is not None:
            # A cub: heartbeats, pumps, deadman and invariant sweeps
            # begin at epoch, in lockstep with every other cub's
            # runtime time 0.
            self.runtime.call_at(0.0, self.component.start)
            self.runtime.call_at(0.0, self.monitor.install)
        self.runtime.call_after(
            self.metrics_interval, self._pump_metrics, writer
        )

    def _handle_control(self, parsed: Dict[str, Any]) -> None:
        ctl = parsed.get("ctl")
        if ctl == "codec_ack":
            # Negotiation result: switch the *encoder*.  The decoder
            # accepts both codecs throughout, so ordering races between
            # the ack and in-flight frames are harmless.
            self.codec = str(parsed.get("codec", CODEC_JSON))
            if self.transport is not None:
                self.transport.set_codec(self.codec)
        elif ctl == "_error":
            # The hub rejected one of our frames; record and carry on
            # (the hub closes the connection for fatal decode errors).
            print(
                f"{self.address}: hub reported wire error: "
                f"{parsed.get('reason', '?')}",
                flush=True,
            )
        elif ctl == "_stop":
            self._stopping = True

    async def _await_start(
        self, reader: asyncio.StreamReader, decoder: FrameDecoder
    ) -> Dict[str, Any]:
        while True:
            data = await reader.read(65536)
            if not data:
                raise ConnectionError("hub closed before _start")
            for kind, parsed in decoder.feed_parsed(data):
                if kind != "ctl":
                    continue  # pre-start protocol traffic: driver bug
                if parsed.get("ctl") == "_start":
                    return parsed
                self._handle_control(parsed)

    async def _serve(
        self, reader: asyncio.StreamReader, decoder: FrameDecoder
    ) -> None:
        while not self._stopping:
            data = await reader.read(65536)
            if not data:
                break  # hub gone: shut down quietly
            for kind, parsed in decoder.feed_parsed(data):
                if kind == "msg":
                    self.component.deliver(parsed)
                else:
                    self._handle_control(parsed)

    async def _shutdown(self, writer: asyncio.StreamWriter) -> None:
        self._stopping = True
        if self.runtime is None:
            # Rejected a frame before ``_start``: nothing ran, so there
            # is nothing to snapshot or sign off.
            writer.close()
            return
        if self.monitor is not None:
            self.monitor.stop()
        self.runtime.cancel_all()
        if not writer.is_closing():
            # Final snapshot + sign-off so the driver's merged report
            # includes everything up to the stop instant.
            self._write_control(writer, self._metrics_frame())
            self._write_control(
                writer,
                control_frame(
                    "_bye",
                    node=self.address,
                    events=self.runtime.events_dispatched,
                    errors=self.runtime.callback_errors + self.wire_errors,
                    error_details=[
                        {"t": t, "fn": fn, "traceback": tb}
                        for t, fn, tb in self.runtime.errors[:8]
                    ],
                ),
            )
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry: ``python -S -m repro.live.node --spec FILE``."""
    # Only the entry point parses argv; the driver imports this module
    # for its spec helpers.
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.live.node",
        description="Run one Tiger component as a live cluster node.",
    )
    parser.add_argument(
        "--spec", required=True,
        help="Path to the JSON node spec written by the cluster driver.",
    )
    options = parser.parse_args(argv)
    with open(options.spec, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    node = LiveNode(spec)
    try:
        return asyncio.run(node.run())
    except (ConnectionError, KeyboardInterrupt):
        return 1


if __name__ == "__main__":
    sys.exit(main())
