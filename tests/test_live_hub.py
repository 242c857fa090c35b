"""The hub as a switch: a real ``ClusterHub`` on loopback, in-process.

Every test boots a :class:`~repro.live.cluster.ClusterHub` on an
ephemeral localhost port and talks to it through hand-rolled
connections (``hello`` / ``codec_ack`` by hand, raw socket bytes kept
beside the decoded frames), so what is asserted is what a node's socket
would actually see:

* a binary frame bound for a binary peer arrives as the *bytes the
  sender wrote*; one bound for a JSON peer or a driver-local component
  is decoded at the hub;
* every envelope error is still caught at the hub and closes the
  sender; every payload error is caught exactly once, by whoever
  consumes the payload — and still fails the run, naming its sender;
* the hub's counters (wire frames/bytes per codec, drops, the send
  queue's hard cap) read as they did when the hub decoded everything;
* a ``hello`` that arrives after the epoch is fixed gets the same
  ``_start``, a node's ``_ready`` lands as its ``live.epoch_slack``,
  and ``all_left`` fires when the last connection closes.
"""

import asyncio
import contextlib
import random
import socket
import struct
import time
from types import SimpleNamespace

import pytest

from repro.core.protocol import (
    BlockData,
    ClientStart,
    Heartbeat,
    ViewerStateBatch,
    block_pattern,
)
from repro.core.viewerstate import ViewerState
from repro.core.world import World
from repro.live import cluster as cluster_module
from repro.live.cluster import (
    SEND_QUEUE_HARD_CAP,
    ClusterHub,
    ClusterReport,
    ClusterScenario,
    LiveCluster,
    NodeConnection,
    run_cluster,
)
from repro.live.node import ROLE_CONTROLLER, LiveNode, config_to_dict
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME_BYTES,
    SUPPORTED_CODECS,
    EnvelopeDecoder,
    FrameDecoder,
    WireError,
    binary_message_frame,
    control_frame,
    decode_frames,
    encode_message,
    registered_payload_types,
)
from repro.net.message import KIND_DATA, Message, reset_message_ids
from repro.obs.registry import MetricsRegistry, snapshot_total
from tests.test_live_wire import _instance_of

#: Seconds any single wait may take before the test fails.
TIMEOUT = 5.0
#: A peer that advertises nothing in its ``hello``: a v1, JSON-only build.
V1 = ()


# ----------------------------------------------------------------------
# Harness: hand-rolled connections to a real hub
# ----------------------------------------------------------------------
class Peer:
    """One hand-rolled hub connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.codec = CODEC_JSON
        #: Every byte the socket read since the handshake, undecoded.
        self.raw = bytearray()
        #: The same bytes as parsed ``(kind, value)`` frames.
        self.frames = []
        self.eof = False
        self._decoder = FrameDecoder()

    def send(self, *frames):
        self.writer.write(b"".join(frames))

    async def read(self, until):
        """Pump the socket until ``until()`` holds (or EOF)."""

        async def pump():
            while not until() and not self.eof:
                data = await self.reader.read(1 << 16)
                self.eof = not data
                self.raw += data
                self.frames += self._decoder.feed_parsed(data)

        await asyncio.wait_for(pump(), TIMEOUT)

    async def read_messages(self, count):
        await self.read(lambda: len(self.messages) >= count)
        return self.messages

    @property
    def messages(self):
        return [value for kind, value in self.frames if kind == "msg"]

    @property
    def controls(self):
        return [value for kind, value in self.frames if kind == "ctl"]


async def settled(condition):
    """Poll until the hub's side of things makes ``condition()`` true."""
    for _ in range(int(TIMEOUT / 0.01)):
        if condition():
            return
        await asyncio.sleep(0.01)
    raise AssertionError("the hub never got there")


async def join(port, address, codecs):
    """Connect as ``address``; with codecs, wait out the ``codec_ack``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    peer = Peer(reader, writer)
    hello = {"node": address, "pid": 1}
    if codecs:
        hello["codecs"] = list(codecs)
    peer.send(control_frame("hello", **hello))
    if codecs:
        await peer.read(lambda: peer.frames)
        ((_, ack),) = peer.frames
        assert ack["ctl"] == "codec_ack"
        peer.codec = ack["codec"]
        peer.frames.clear()
        peer.raw.clear()
    return peer


@contextlib.asynccontextmanager
async def running_hub(*joins, preferred=CODEC_BINARY):
    """A hub plus one joined :class:`Peer` per ``(address, codecs)``."""
    registry = MetricsRegistry()
    hub = ClusterHub(
        [address for address, _ in joins], registry, preferred_codec=preferred
    )
    (port,) = await hub.start()
    peers = [await join(port, address, codecs) for address, codecs in joins]
    await asyncio.wait_for(hub.all_joined.wait(), TIMEOUT)
    try:
        yield SimpleNamespace(
            hub=hub, registry=registry, port=port, peers=peers
        )
    finally:
        # Peers hang up first, so the hub's handlers end on EOF instead
        # of being cancelled mid-read by hub.stop().
        for peer in peers:
            peer.writer.close()
        try:
            await settled(lambda: not hub.connections)
        finally:
            await hub.stop()


def total(rig, name, **labels):
    return snapshot_total(rig.registry.snapshot(), name, **labels)


def forwarded(rig):
    """``(raw, decoded)`` of ``live.hub_frames_forwarded``."""
    return (
        total(rig, "live.hub_frames_forwarded", mode="raw"),
        total(rig, "live.hub_frames_forwarded", mode="decoded"),
    )


def message_to(dst, payload=None, src="cub:0", msg_id=7, **envelope):
    if payload is None:
        payload = ViewerState("client:0#1", 1, 2, 3, 4, 5, 6.5, 7)
    envelope.setdefault("size_bytes", 100)
    return Message(src, dst, payload, msg_id=msg_id, **envelope)


def reframe(body):
    return struct.pack(">I", len(body)) + bytes(body)


BOTH = SUPPORTED_CODECS


# ----------------------------------------------------------------------
# (a) binary -> binary: the receiver's socket reads the sender's bytes
# ----------------------------------------------------------------------
def test_binary_frames_reach_a_binary_peer_byte_for_byte():
    messages = []
    for tag, cls in sorted(registered_payload_types().items()):
        for seed in range(3):
            rng = random.Random(f"hub-{tag}-{seed}")
            messages.append(message_to(
                "cub:1", _instance_of(cls, rng),
                src=f"cub:{rng.randrange(16)}",
                size_bytes=rng.randrange(1, 10**6),
                kind=rng.choice(["control", "data"]),
                msg_id=len(messages) + 1,
            ))
    frames = [binary_message_frame(message) for message in messages]

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", BOTH)) as rig:
            tx, rx = rig.peers
            assert (tx.codec, rx.codec) == (CODEC_BINARY, CODEC_BINARY)
            tx.send(*frames)
            assert await rx.read_messages(len(messages)) == messages
            assert bytes(rx.raw) == b"".join(frames)
            assert not tx.raw
            assert forwarded(rig) == (len(messages), 0)
            assert total(rig, "live.hub_messages_routed") == len(messages)

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (b) codec mismatch: the hub decodes and re-encodes, as before
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "sender_codecs, receiver_codecs, wire_codec, first_body_byte",
    [(BOTH, V1, CODEC_JSON, ord("{")), (V1, BOTH, CODEC_BINARY, 0xB2)],
    ids=["binary-to-json-peer", "json-to-binary-peer"],
)
def test_frames_cross_codecs_through_the_decoded_path(
    sender_codecs, receiver_codecs, wire_codec, first_body_byte
):
    rng = random.Random("cross")
    messages = [
        message_to("cub:1", _instance_of(cls, rng), msg_id=index + 1)
        for index, (_, cls) in enumerate(
            sorted(registered_payload_types().items())
        )
    ]

    async def scenario():
        async with running_hub(
            ("cub:0", sender_codecs), ("cub:1", receiver_codecs)
        ) as rig:
            tx, rx = rig.peers
            tx.send(*(encode_message(m, tx.codec) for m in messages))
            assert await rx.read_messages(len(messages)) == messages
            assert bytes(rx.raw) == b"".join(
                encode_message(m, wire_codec) for m in messages
            )
            assert rx.raw[4] == first_body_byte
            assert forwarded(rig) == (0, len(messages))

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (c) driver-local destinations get a decoded Message, sockets nothing
# ----------------------------------------------------------------------
def test_local_destination_gets_the_decoded_message():
    block = BlockData(
        "client:0#1", 1, 2, 3, 4, pattern=block_pattern(2, 3)
    )
    to_client = message_to("client:0", block, kind=KIND_DATA, msg_id=1)
    sentinel = message_to("cub:1", Heartbeat(0), msg_id=2)

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", BOTH)) as rig:
            tx, rx = rig.peers
            inbox = []
            rig.hub.local["client:0"] = inbox.append
            tx.send(
                binary_message_frame(to_client), binary_message_frame(sentinel)
            )
            # One connection is FIFO: once the sentinel is through, the
            # frame before it has been routed.
            assert await rx.read_messages(1) == [sentinel]
            assert inbox == [to_client]
            assert bytes(rx.raw) == binary_message_frame(sentinel)
            assert not tx.raw
            assert forwarded(rig) == (1, 1)

    asyncio.run(scenario())


def test_local_senders_messages_are_encoded_for_the_peer():
    # HubTransport hands route() a Message that never was a frame.
    message = message_to("cub:1", src="client:0")

    async def scenario():
        async with running_hub(("cub:1", BOTH)) as rig:
            (rx,) = rig.peers
            assert rig.hub.route(message)
            assert await rx.read_messages(1) == [message]
            assert forwarded(rig) == (0, 1)

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (d) unknown destination: dropped and counted, the stream goes on
# ----------------------------------------------------------------------
def test_unknown_destination_is_dropped_and_later_frames_flow():
    lost = message_to("cub:9", msg_id=1)
    kept = message_to("cub:1", msg_id=2)

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", BOTH)) as rig:
            tx, rx = rig.peers
            tx.send(binary_message_frame(lost), binary_message_frame(kept))
            assert await rx.read_messages(1) == [kept]
            assert bytes(rx.raw) == binary_message_frame(kept)
            assert total(rig, "live.hub_messages_dropped") == 1
            assert total(rig, "live.hub_messages_routed") == 1
            assert forwarded(rig) == (1, 0)
            assert not rig.hub.wire_errors

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (e) every envelope error is still the hub's, and the sender's problem
# ----------------------------------------------------------------------
def _mangled_envelopes():
    body = bytearray(binary_message_frame(message_to("cub:1"))[4:])
    src_at = 16  # magic, version, type, u64 id, u32 size, u8 kind
    dst_at = src_at + 4 + len("cub:0")
    payload_at = dst_at + 4 + len("cub:1")

    def patched(offset, replacement):
        out = bytearray(body)
        out[offset:offset + len(replacement)] = replacement
        return reframe(out)

    return {
        "bad magic": (patched(0, b"\xb3"), "undecodable frame body"),
        "wrong version": (patched(1, b"\x03"), "unsupported wire version 3"),
        "unknown frame type": (
            patched(2, b"\x7f"), "unknown binary frame type 0x7f"),
        "unknown kind code": (
            patched(15, b"\x09"), "unknown message kind code 9"),
        "zero size": (
            patched(11, bytes(4)), "bad message envelope: messages must"),
        "bad utf-8 in src": (
            patched(src_at + 4, b"\xff"), "bad utf-8 in binary frame"),
        "truncated head": (reframe(body[:2]), "binary frame too short"),
        "truncated fixed envelope": (
            reframe(body[:10]), "truncated binary envelope"),
        "truncated src": (
            reframe(body[:src_at + 6]), "truncated binary string body"),
        "truncated dst": (
            reframe(body[:dst_at + 2]), "truncated binary string: "),
        "oversized length prefix": (
            struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x", "exceeds maximum"),
        "no payload bytes": (
            reframe(body[:payload_at]), "truncated binary value"),
    }


MANGLED_ENVELOPES = _mangled_envelopes()


@pytest.mark.parametrize("case", sorted(MANGLED_ENVELOPES))
def test_malformed_envelope_closes_the_sender_only(case):
    mangled, expected = MANGLED_ENVELOPES[case]
    # The hub's reader and the full decoder agree on the reason.
    with pytest.raises(WireError) as full:
        FrameDecoder().feed_parsed(mangled)
    with pytest.raises(WireError) as envelope_only:
        EnvelopeDecoder().feed_parsed(mangled)
    reason = str(full.value)
    assert expected in reason and str(envelope_only.value) == reason
    echo = message_to("cub:1", src="cub:1")

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", BOTH)) as rig:
            tx, rx = rig.peers
            tx.send(mangled)
            await tx.read(lambda: False)  # until the hub hangs up
            assert tx.eof
            assert [(c["ctl"], c["reason"]) for c in tx.controls] == [
                ("_error", reason)
            ]
            assert rig.hub.wire_errors == [f"cub:0: {reason}"]
            assert "cub:0" not in rig.hub.connections
            # The other connection never noticed.
            rx.send(binary_message_frame(echo))
            assert await rx.read_messages(1) == [echo]
            assert len(rig.hub.wire_errors) == 1

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (f) payload errors belong to whoever consumes the payload
# ----------------------------------------------------------------------
def _corrupt_payloads(dst):
    body = bytearray(binary_message_frame(message_to(dst))[4:])
    payload_at = 16 + 4 + len("cub:0") + 4 + len(dst)
    assert body[payload_at] == 0x07  # an obj value: its registry id follows
    unknown_id = bytearray(body)
    unknown_id[payload_at + 1] = 0xFE
    return {
        "unknown registry id": (
            reframe(unknown_id), "unknown binary payload id 254"),
        "truncated value": (reframe(body[:-3]), "truncated binary value"),
        "trailing bytes": (
            reframe(body + b"\x00\x00"),
            "2 trailing byte(s) after binary payload"),
    }


CORRUPT_PAYLOAD_CASES = sorted(_corrupt_payloads("cub:1"))


@pytest.mark.parametrize("case", CORRUPT_PAYLOAD_CASES)
def test_corrupt_payload_is_forwarded_and_rejected_by_the_receiver(case):
    corrupt, expected = _corrupt_payloads("cub:1")[case]
    echo = message_to("cub:0", msg_id=8)

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", BOTH)) as rig:
            tx, rx = rig.peers
            tx.send(corrupt)
            with pytest.raises(WireError) as rejected:
                await rx.read(lambda: False)
            # The same reason as ever, now with the envelope's sender.
            assert expected in str(rejected.value)
            assert (rejected.value.src, rejected.value.msg_id) == ("cub:0", 7)
            assert bytes(rx.raw) == corrupt
            # The hub read the envelope only: nothing to object to.
            assert not rig.hub.wire_errors
            assert forwarded(rig) == (1, 0)
            # ... and the sender's connection is still good.
            tx.send(binary_message_frame(echo))
            assert await tx.read_messages(1) == [echo]

    asyncio.run(scenario())


@pytest.mark.parametrize("case", CORRUPT_PAYLOAD_CASES)
def test_corrupt_payload_for_a_local_destination_closes_the_sender(case):
    corrupt, expected = _corrupt_payloads("client:0")[case]

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", BOTH)) as rig:
            tx, _ = rig.peers
            inbox = []
            rig.hub.local["client:0"] = inbox.append
            tx.send(corrupt)
            await tx.read(lambda: False)
            assert tx.eof and not inbox
            ((error,),) = [tx.controls]
            assert error["ctl"] == "_error" and expected in error["reason"]
            assert rig.hub.wire_errors == [f"cub:0: {error['reason']}"]

    asyncio.run(scenario())


def test_corrupt_payload_for_a_json_peer_closes_the_sender():
    corrupt, expected = _corrupt_payloads("cub:1")["unknown registry id"]

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", V1)) as rig:
            tx, rx = rig.peers
            tx.send(corrupt)
            await tx.read(lambda: False)
            assert tx.eof
            assert rig.hub.wire_errors == [f"cub:0: {expected}"]
            assert not rx.raw

    asyncio.run(scenario())


def test_live_node_reports_a_forwarded_corrupt_payload_and_fails_the_run():
    scenario_ = ClusterScenario(cubs=3)
    corrupt, expected = _corrupt_payloads("controller")["unknown registry id"]

    async def scenario():
        async with running_hub(("cub:0", BOTH)) as rig:
            hub = rig.hub
            node = LiveNode({
                "role": ROLE_CONTROLLER, "node_id": 0,
                "address": "controller",
                "namespace": scenario_.namespace_of("controller"),
                "port": rig.port,
                "config": config_to_dict(scenario_.config()),
                "content": {"num_files": 2, "duration_s": 10.0},
                "metrics_interval": 60.0,
            })
            running = asyncio.ensure_future(node.run())
            await settled(lambda: "controller" in hub.connections)
            hub.broadcast(
                control_frame("_start", epoch=time.time(), duration=60.0)
            )
            (tx,) = rig.peers
            tx.send(corrupt)
            assert await asyncio.wait_for(running, TIMEOUT) == 1
            await settled(lambda: "controller" not in hub.connections)
            return hub

    try:
        hub = asyncio.run(scenario())
    finally:
        reset_message_ids()  # the node rebound the process-wide sequence
    assert hub.wire_errors == [f"controller (from cub:0): {expected}"]
    # It left through _shutdown(): final snapshot, then a _bye that
    # owns up to the error — a reported exit, not an unexplained one.
    assert "controller" in hub.node_metrics
    assert hub.byes["controller"]["errors"] == 1
    assert ("controller", "clean") in hub.disconnects
    report = ClusterReport(
        scenario=scenario_, merged={}, node_metrics={}, byes=dict(hub.byes),
        unexpected_exits=[], wire_errors=list(hub.wire_errors), kills=[],
        wall_seconds=0.0, workdir="",
    )
    (row,) = [row for row in report.checks() if row[0] == "wire protocol errors"]
    assert not row[1] and expected in row[2] and "cub:0" in row[2]
    assert not report.passed


# ----------------------------------------------------------------------
# (g) wire accounting: forwarded frames count exactly as re-encoded ones
# ----------------------------------------------------------------------
def _fixed_mix(count):
    """``count`` messages cycling through four payload shapes."""
    out = []
    for index in range(count):
        viewer = f"client:{index % 7}#{index}"
        state = ViewerState(
            viewer, index, index % 24, index % 8, index, index % 6,
            1.5 * index, index,
        )
        payload = (
            state,
            Heartbeat(index % 3),
            ViewerStateBatch(states=(state,) * 4),
            BlockData(
                viewer, index, index % 8, index, index,
                pattern=block_pattern(index % 8, index),
            ),
        )[index % 4]
        out.append(Message(
            "cub:0", "cub:1", payload, 64 + index,
            kind=KIND_DATA if index % 4 == 3 else "control", msg_id=index + 1,
        ))
    return out


#: ``live.wire_frames`` / ``live.wire_bytes`` at the hub for the mix
#: below, as measured with the hub that decoded and re-encoded every
#: frame (commit bdf977e), plus each heartbeat's boot epoch since the
#: beat carries one.  Forwarding must not move any of them.
PINNED_WIRE_COUNTS = {
    (CODEC_BINARY, "rx"): (150, 24768),
    (CODEC_BINARY, "tx"): (150, 25081),
    (CODEC_JSON, "rx"): (53, 16836),  # 3 hellos + 50 messages
    (CODEC_JSON, "tx"): (52, 16114),  # 2 codec_acks + 50 messages
}


async def _relay_fixed_mix():
    """Run the 200-frame mix; returns the hub's wire counts by
    ``(codec, direction)`` and its ``(raw, decoded)`` forwarding split."""
    mix = _fixed_mix(200)
    # 100 binary -> binary, 50 binary -> JSON, 50 JSON -> binary.
    for message in mix[100:150]:
        message.dst = "cub:2"
    for message in mix[150:]:
        message.src = "cub:2"
    async with running_hub(
        ("cub:0", BOTH), ("cub:1", BOTH), ("cub:2", V1)
    ) as rig:
        binary_tx, binary_rx, json_peer = rig.peers
        binary_tx.send(*(binary_message_frame(m) for m in mix[:150]))
        json_peer.send(*(encode_message(m, CODEC_JSON) for m in mix[150:]))
        await binary_rx.read_messages(150)
        await json_peer.read_messages(50)
        counts = {
            (codec, direction): tuple(
                total(rig, name, codec=codec, direction=direction, node="hub")
                for name in ("live.wire_frames", "live.wire_bytes")
            )
            for codec, direction in PINNED_WIRE_COUNTS
        }
        return counts, forwarded(rig)


def test_wire_accounting_is_unmoved_by_forwarding():
    counts, split = asyncio.run(_relay_fixed_mix())
    assert counts == PINNED_WIRE_COUNTS
    assert split == (100, 100)


# ----------------------------------------------------------------------
# (h) the send queue's hard cap applies to forwarded bytes too
# ----------------------------------------------------------------------
def test_forwarded_frame_over_the_hard_cap_is_dropped_and_counted():
    big = message_to(
        "cub:1", ClientStart("v" * (256 * 1024), 1, 2), msg_id=1
    )
    frame = binary_message_frame(big)
    fits = SEND_QUEUE_HARD_CAP // len(frame)
    ((_, raw),) = EnvelopeDecoder().feed_parsed(frame)
    small = message_to("cub:1", msg_id=2)

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", BOTH)) as rig:
            tx, rx = rig.peers
            # No await between these calls, so the drainer cannot run
            # and the queue only grows: exactly `fits` frames fit.
            outcomes = [rig.hub.route(raw) for _ in range(fits + 1)]
            assert outcomes == [True] * fits + [False]
            assert total(rig, "live.hub_sendq_dropped") == 1
            assert total(rig, "live.hub_messages_dropped") == 1
            assert forwarded(rig) == (fits, 0)
            assert total(rig, "live.hub_backpressure_events") == 1
            # The queue drains and the connection carries on.
            tx.send(binary_message_frame(small))
            assert await rx.read_messages(fits + 1) == [big] * fits + [small]

    asyncio.run(scenario())


def test_envelope_decoder_yields_the_frame_and_a_lazy_message():
    message = message_to("cub:1")
    frame = binary_message_frame(message)
    control = control_frame("_stop")
    json_frame = encode_message(message, CODEC_JSON)
    parsed = EnvelopeDecoder().feed_parsed(frame + control + json_frame)
    assert [kind for kind, _ in parsed] == ["raw", "ctl", "msg"]
    raw = parsed[0][1]
    assert (raw.src, raw.dst, raw.msg_id, raw.frame) == (
        "cub:0", "cub:1", 7, frame
    )
    assert raw.message() == message == parsed[2][1]
    assert list(decode_frames(raw.frame)) == [("msg", message)]


# ----------------------------------------------------------------------
# (i) the hub forwards runs, and a run is invisible on the wire
# ----------------------------------------------------------------------
def _interleaved_read():
    """One read from ``cub:0``: binary frames for two binary peers, a
    JSON peer, a driver-local sink and an unknown address, one JSON
    message frame, and control frames between them.

    Returns the read's bytes, its message frames as ``(dst, message)``
    in order, and the runs the hub should hand ``route`` as
    ``(dst, frame count)``: consecutive binary frames to one ``dst``,
    ended by a change of ``dst`` or by any other frame.
    """
    mix = iter(_fixed_mix(23))
    script = [
        ("cub:1", 3), ("cub:2", 2), ("cub:1", 1), "_metrics", ("cub:1", 2),
        ("client:0", 2), ("cub:3", 2), "_bye", ("cub:9", 2), ("cub:2", 3),
        ("json", "cub:2"), ("cub:2", 2),
    ]
    frames, sent, runs = [], [], []
    for step in script:
        if step == "_metrics":
            frames.append(control_frame(step, node="cub:0", data={}))
        elif step == "_bye":
            frames.append(control_frame(step, node="cub:0", errors=0))
        elif step[0] == "json":
            message = next(mix)
            message.dst = step[1]
            frames.append(encode_message(message, CODEC_JSON))
            sent.append((message.dst, message))
            runs.append((message.dst, 1))
        else:
            dst, count = step
            for _ in range(count):
                message = next(mix)
                message.dst = dst
                frames.append(binary_message_frame(message))
                sent.append((dst, message))
            runs.append((dst, count))
    return b"".join(frames), sent, runs


def test_runs_reach_every_peer_byte_for_byte_with_per_frame_counts():
    read, sent, runs = _interleaved_read()

    def to(dst):
        return [message for to_dst, message in sent if to_dst == dst]

    async def scenario():
        async with running_hub(
            ("cub:0", BOTH), ("cub:1", BOTH), ("cub:2", BOTH), ("cub:3", V1)
        ) as rig:
            hub = rig.hub
            _, one, two, json_peer = rig.peers
            inbox = []
            hub.local["client:0"] = inbox.append
            routes = []
            route = hub.route

            def counted(run):
                routes.append(
                    (run[0].dst, len(run)) if isinstance(run, list)
                    else (run.dst, 1)
                )
                return route(run)

            hub.route = counted
            before = rig.registry.snapshot()
            # Fed to a handler whole, the bytes are exactly one read.
            reader = asyncio.StreamReader()
            reader.feed_data(read)
            reader.feed_eof()
            # A sender that never says hello, its socket already gone.
            sender = SimpleNamespace(is_closing=lambda: True)
            await hub._handle_connection(reader, sender)

            assert await one.read_messages(len(to("cub:1"))) == to("cub:1")
            assert await two.read_messages(len(to("cub:2"))) == to("cub:2")
            assert await json_peer.read_messages(2) == to("cub:3")
            assert inbox == to("client:0")
            assert bytes(one.raw) == b"".join(map(binary_message_frame, to("cub:1")))
            assert bytes(two.raw) == b"".join(map(binary_message_frame, to("cub:2")))
            assert bytes(json_peer.raw) == b"".join(
                encode_message(m, CODEC_JSON) for m in to("cub:3")
            )
            assert routes == runs
            assert hub.byes["cub:0"]["errors"] == 0 and "cub:0" in hub.node_metrics
            assert not hub.wire_errors

            after = rig.registry.snapshot()

            def delta(name, **labels):
                return (
                    snapshot_total(after, name, **labels)
                    - snapshot_total(before, name, **labels)
                )

            binary_peers = len(to("cub:1") + to("cub:2"))
            decoded = len(to("client:0") + to("cub:3")) + 1
            assert delta("live.hub_messages_routed") == len(sent) - len(to("cub:9"))
            # All but the one JSON frame to cub:2, which is re-encoded.
            assert delta("live.hub_frames_forwarded", mode="raw") == binary_peers - 1
            assert delta("live.hub_frames_forwarded", mode="decoded") == decoded
            assert delta("live.hub_messages_dropped") == len(to("cub:9"))
            binary_tx = {"codec": CODEC_BINARY, "direction": "tx", "node": "hub"}
            json_tx = {"codec": CODEC_JSON, "direction": "tx", "node": "hub"}
            assert delta("live.wire_frames", **binary_tx) == binary_peers
            assert delta("live.wire_bytes", **binary_tx) == len(one.raw) + len(two.raw)
            assert delta("live.wire_frames", **json_tx) == 2
            assert delta("live.wire_bytes", **json_tx) == len(json_peer.raw)

    asyncio.run(scenario())


def test_a_run_straddling_the_hard_cap_queues_exactly_what_fits():
    big = message_to(
        "cub:1", ClientStart("v" * (256 * 1024), 1, 2), msg_id=1
    )
    small = message_to("cub:1", msg_id=2)
    echo = message_to("cub:1", msg_id=3)
    big_frame, small_frame = map(binary_message_frame, (big, small))
    fits = SEND_QUEUE_HARD_CAP // len(big_frame)
    room = (SEND_QUEUE_HARD_CAP - fits * len(big_frame)) // len(small_frame)
    assert room > 0
    ((_, big_raw),) = EnvelopeDecoder().feed_parsed(big_frame)
    ((_, small_raw),) = EnvelopeDecoder().feed_parsed(small_frame)

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", BOTH)) as rig:
            hub = rig.hub
            tx, rx = rig.peers
            queue = hub.connections["cub:1"]
            # No await between these calls: the drainer cannot run.
            assert hub.route([big_raw] * fits)
            assert not hub.route([small_raw] * (room + 3))
            assert queue.queued_bytes == (
                fits * len(big_frame) + room * len(small_frame)
            )
            assert total(rig, "live.hub_sendq_dropped") == 3
            assert total(rig, "live.hub_messages_dropped") == 3
            assert total(rig, "live.hub_messages_routed") == fits + room
            assert forwarded(rig) == (fits + room, 0)
            assert total(
                rig, "live.wire_frames", codec=CODEC_BINARY, direction="tx",
                node="hub",
            ) == fits + room
            # The queue drains and the connection carries on.
            tx.send(binary_message_frame(echo))
            expected = [big] * fits + [small] * room + [echo]
            assert await rx.read_messages(len(expected)) == expected

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (j) a node that joins again keeps its new connection
# ----------------------------------------------------------------------
def test_a_rejoined_node_survives_its_old_sockets_close():
    message = message_to("cub:1")

    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", BOTH)) as rig:
            hub = rig.hub
            tx, old = rig.peers
            # A respawned cub:1 says hello on a new socket ...
            new = await join(rig.port, "cub:1", BOTH)
            rig.peers.append(new)
            # ... and only then does its old socket go.
            old.writer.close()
            await settled(lambda: ("cub:1", "unexpected") in hub.disconnects)
            assert sorted(hub.connections) == ["cub:0", "cub:1"]
            tx.send(binary_message_frame(message))
            assert await new.read_messages(1) == [message]
            assert total(rig, "live.hub_messages_dropped") == 0

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (k) the epoch handshake: a late hello gets the same ``_start``, every
# node proves it was ready, and the hub knows when the last one left
# ----------------------------------------------------------------------
@pytest.mark.parametrize("codecs", [BOTH, V1], ids=["negotiating", "v1"])
def test_a_node_that_joins_after_the_epoch_gets_the_same_start(codecs):
    async def scenario():
        async with running_hub(("cub:0", BOTH)) as rig:
            hub = rig.hub
            (early,) = rig.peers
            hub.fix_epoch(time.time() + 1.0, 30.0)
            await early.read(lambda: early.controls)
            assert bytes(early.raw) == hub.start_frame
            # A new address, and a re-hello from cub:0 on a new socket.
            for address in ("cub:1", "cub:0"):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", rig.port
                )
                late = Peer(reader, writer)
                rig.peers.append(late)
                hello = {"node": address, "pid": 2}
                if codecs:
                    hello["codecs"] = list(codecs)
                late.send(control_frame("hello", **hello))
                expected = hub.start_frame
                if codecs:
                    expected = control_frame(
                        "codec_ack", codec=CODEC_BINARY
                    ) + expected
                await late.read(lambda: len(late.raw) >= len(expected))
                assert bytes(late.raw) == expected
            # The epoch went out once; nothing re-broadcast it.
            assert bytes(early.raw) == hub.start_frame

    asyncio.run(scenario())


def test_a_late_live_node_boots_and_reports_its_slack():
    scenario_ = ClusterScenario(cubs=3)

    async def scenario():
        async with running_hub(("cub:0", BOTH)) as rig:
            hub = rig.hub
            hub.fix_epoch(time.time() + 2.0, 60.0)
            node = LiveNode({
                "role": ROLE_CONTROLLER, "node_id": 0,
                "address": "controller",
                "namespace": scenario_.namespace_of("controller"),
                "port": rig.port,
                "config": config_to_dict(scenario_.config()),
                "content": {"num_files": 2, "duration_s": 10.0},
                "metrics_interval": 60.0,
            })
            running = asyncio.ensure_future(node.run())
            await settled(
                lambda: "live.epoch_slack" in rig.registry.snapshot()
            )
            assert 0.0 < total(rig, "live.epoch_slack", node="controller") < 2.0
            hub.broadcast(control_frame("_stop"))
            assert await asyncio.wait_for(running, TIMEOUT) == 0

    try:
        asyncio.run(scenario())
    finally:
        reset_message_ids()  # the node rebound the process-wide sequence


def test_a_live_node_is_built_before_it_joins(monkeypatch):
    """Content before ``hello``; after ``_start``, only wiring."""
    scenario_ = ClusterScenario(cubs=3)
    events = []
    files_at_hello = []
    nodes = []
    real_add_file, real_boot = World.add_file, LiveNode._boot

    def add_file(world, *args, **kwargs):
        events.append("add_file")
        return real_add_file(world, *args, **kwargs)

    def boot(node, *args):
        events.append("_start")
        return real_boot(node, *args)

    class HelloProbe(NodeConnection):
        def __init__(self, address, *args):
            if address == "controller":
                (node,) = nodes
                files_at_hello.append(len(node.world.catalog.files()))
            super().__init__(address, *args)

    monkeypatch.setattr(World, "add_file", add_file)
    monkeypatch.setattr(LiveNode, "_boot", boot)

    async def scenario():
        async with running_hub(("cub:0", BOTH)) as rig:
            monkeypatch.setattr(cluster_module, "NodeConnection", HelloProbe)
            rig.hub.fix_epoch(time.time() + 2.0, 60.0)
            nodes.append(LiveNode({
                "role": ROLE_CONTROLLER, "node_id": 0,
                "address": "controller",
                "namespace": scenario_.namespace_of("controller"),
                "port": rig.port,
                "config": config_to_dict(scenario_.config()),
                "content": {"num_files": 3, "duration_s": 10.0},
                "metrics_interval": 60.0,
            }))
            running = asyncio.ensure_future(nodes[0].run())
            await settled(
                lambda: "live.epoch_slack" in rig.registry.snapshot()
            )
            rig.hub.broadcast(control_frame("_stop"))
            assert await asyncio.wait_for(running, TIMEOUT) == 0

    try:
        asyncio.run(scenario())
    finally:
        reset_message_ids()
    assert files_at_hello == [3]
    assert events == ["add_file"] * 3 + ["_start"]


def test_the_driver_arms_the_scenario_after_every_start_is_on_the_wire(
    monkeypatch,
):
    """The driver's assembly exists before the join, refuses timers
    until the epoch, and every connected node's socket holds ``_start``
    by the time the scenario is armed."""
    scenario_ = ClusterScenario(
        cubs=3, backup=False, streams=0, duration=0.6, first_start=0.3
    )
    sockets = {}
    refused = []
    controls = {}
    real_arm = cluster_module.arm_scenario

    def spawn(_workdir, scenario, port):
        for address in scenario.node_addresses():
            peer = socket.create_connection(("127.0.0.1", port))
            peer.sendall(control_frame(
                "hello", node=address, pid=1, codecs=list(SUPPORTED_CODECS),
            ))
            sockets[address] = peer
        return {}

    class PreBuilt(LiveCluster):
        def __init__(self, *args):
            super().__init__(*args)
            try:
                self.runtime.call_after(0.0, lambda: None)
            except RuntimeError:
                refused.append(True)

    def arm(host, scenario):
        for address, peer in sockets.items():
            decoder = FrameDecoder()
            peer.setblocking(False)
            frames = []
            with contextlib.suppress(BlockingIOError):
                while data := peer.recv(1 << 16):
                    frames += decoder.feed_parsed(data)
            controls[address] = [
                value["ctl"] for kind, value in frames if kind == "ctl"
            ]
            peer.close()
        real_arm(host, scenario)

    monkeypatch.setattr(cluster_module, "_spawn_nodes", spawn)
    monkeypatch.setattr(cluster_module, "LiveCluster", PreBuilt)
    monkeypatch.setattr(cluster_module, "arm_scenario", arm)
    try:
        run_cluster(scenario_)
    finally:
        reset_message_ids()
        for peer in sockets.values():
            peer.close()
    assert refused == [True]
    assert controls == {
        address: ["codec_ack", "_start"]
        for address in scenario_.node_addresses()
    }


def test_all_left_fires_on_the_last_close_and_not_before():
    async def scenario():
        async with running_hub(("cub:0", BOTH), ("cub:1", V1)) as rig:
            hub = rig.hub
            first, last = rig.peers
            assert not hub.all_left.is_set()
            first.writer.close()
            await settled(lambda: "cub:0" not in hub.connections)
            await asyncio.sleep(0.05)
            assert not hub.all_left.is_set()
            last.writer.close()
            await asyncio.wait_for(hub.all_left.wait(), TIMEOUT)
            assert not hub.connections
            # A node joining again re-arms it.
            rig.peers.append(await join(rig.port, "cub:0", BOTH))
            assert not hub.all_left.is_set()

    asyncio.run(scenario())
