"""Wire-format tests: every payload round-trips, every mangling rejects.

The round-trip half is property-style: instances of every registered
payload type are synthesized from their type hints with seeded
randomness (several per type), encoded to frame bytes, decoded back,
and compared for exact equality — so adding a payload type to the
registry automatically extends the test, and a codec that silently
loses a field or narrows a float fails here first.
"""

import dataclasses
import json
import random
import struct
import typing

import pytest

from repro.core.protocol import BlockData, ViewerStateBatch, block_pattern
from repro.core.viewerstate import MirrorViewerState, ViewerState
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    WIRE_VERSION_BINARY,
    FrameDecoder,
    WireError,
    WireStats,
    binary_message_frame,
    choose_codec,
    control_frame,
    decode_frames,
    decode_payload,
    encode_message,
    encode_payload,
    message_frame,
    parse_frame,
    register_payload,
    registered_payload_types,
)
from repro.net.message import Message
from repro.obs.registry import MetricsRegistry, snapshot_total

REGISTRY = registered_payload_types()


# ----------------------------------------------------------------------
# Property-style instance synthesis from type hints
# ----------------------------------------------------------------------
def _synthesize(hint, rng: random.Random, depth: int = 0):
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]
        choices = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if rng.random() < 0.3:
            return None
        return _synthesize(rng.choice(choices), rng, depth)
    if origin is tuple:
        args = typing.get_args(hint)
        element = args[0] if args else int
        count = rng.randrange(0, 4) if depth < 2 else 0
        return tuple(_synthesize(element, rng, depth + 1) for _ in range(count))
    if hint is bool:
        return rng.random() < 0.5
    if hint is int:
        return rng.randrange(-(10**9), 10**12)
    if hint is float:
        # Mix of magnitudes, including values with no short repr.
        return rng.choice(
            [0.0, -1.5, rng.uniform(-1e6, 1e6), rng.random() * 1e-9]
        )
    if hint is str:
        return "".join(
            rng.choice("abc:#/0123 é☃") for _ in range(rng.randrange(0, 12))
        )
    if dataclasses.is_dataclass(hint):
        return _instance_of(hint, rng, depth + 1)
    raise AssertionError(f"no synthesizer for type hint {hint!r}")


def _instance_of(cls, rng: random.Random, depth: int = 0):
    hints = typing.get_type_hints(cls)
    kwargs = {
        field.name: _synthesize(hints[field.name], rng, depth)
        for field in dataclasses.fields(cls)
    }
    return cls(**kwargs)


@pytest.mark.parametrize("tag", sorted(REGISTRY))
def test_payload_round_trips(tag):
    cls = REGISTRY[tag]
    for seed in range(20):
        original = _instance_of(cls, random.Random(f"{tag}-{seed}"))
        assert decode_payload(encode_payload(original)) == original


@pytest.mark.parametrize("tag", sorted(REGISTRY))
def test_message_frame_round_trips(tag):
    cls = REGISTRY[tag]
    for seed in range(5):
        rng = random.Random(f"msg-{tag}-{seed}")
        message = Message(
            src=f"cub:{rng.randrange(16)}",
            dst="controller",
            payload=_instance_of(cls, rng),
            size_bytes=rng.randrange(1, 10**6),
            kind=rng.choice(["control", "data"]),
        )
        frames = list(decode_frames(message_frame(message)))
        assert len(frames) == 1
        kind, decoded = frames[0]
        assert kind == "msg"
        assert decoded.src == message.src
        assert decoded.dst == message.dst
        assert decoded.kind == message.kind
        assert decoded.size_bytes == message.size_bytes
        assert decoded.msg_id == message.msg_id
        assert decoded.payload == message.payload


def test_nested_batch_round_trips_exactly():
    batch = ViewerStateBatch(
        states=tuple(
            ViewerState(f"client:0#{i}", i, i * 3, 1, i, i % 8, 1.5 * i, i)
            for i in range(5)
        ),
        mirrors=(
            MirrorViewerState("client:1#9", 9, 4, 2, 7, 1, 2, 3, 8.25, 7),
        ),
    )
    assert decode_payload(encode_payload(batch)) == batch


def test_decoder_accepts_arbitrary_chunk_boundaries():
    rng = random.Random(7)
    messages = [
        Message("cub:0", "cub:1", _instance_of(REGISTRY["vstate"], rng), 100)
        for _ in range(10)
    ]
    stream = b"".join(message_frame(m) for m in messages)
    decoder = FrameDecoder()
    decoded = []
    position = 0
    while position < len(stream):
        step = rng.randrange(1, 7)
        decoded.extend(decoder.feed_parsed(stream[position:position + step]))
        position += step
    decoder.assert_drained()
    assert [kind for kind, _ in decoded] == ["msg"] * len(messages)
    assert [m.payload for _, m in decoded] == [m.payload for m in messages]


def test_control_frames_round_trip():
    frame = control_frame("_start", epoch=123.5, duration=20.0)
    (kind, body), = decode_frames(frame)
    assert kind == "ctl"
    assert body["ctl"] == "_start"
    assert body["epoch"] == 123.5


# ----------------------------------------------------------------------
# Rejection: malformed, truncated, hostile
# ----------------------------------------------------------------------
def test_unregistered_payload_type_rejected_at_encode():
    class NotRegistered:
        pass

    with pytest.raises(WireError, match="not wire-registered"):
        encode_payload(NotRegistered())


def test_unknown_tag_rejected_at_decode():
    with pytest.raises(WireError, match="unknown payload tag"):
        decode_payload({"_t": "no-such-payload", "x": 1})


def test_unknown_field_rejected_at_decode():
    encoded = encode_payload(
        ViewerState("client:0#1", 1, 2, 3, 4, 5, 6.0, 7)
    )
    encoded["smuggled"] = True
    with pytest.raises(WireError, match="no field 'smuggled'"):
        decode_payload(encoded)


def test_missing_required_field_rejected_at_decode():
    encoded = encode_payload(
        ViewerState("client:0#1", 1, 2, 3, 4, 5, 6.0, 7)
    )
    del encoded["viewer_id"]
    with pytest.raises(WireError, match="bad 'vstate' payload"):
        decode_payload(encoded)


def _json_frame(body) -> bytes:
    data = json.dumps(body).encode("utf-8")
    return struct.pack(">I", len(data)) + data


def test_wrong_wire_version_rejected():
    ((_, body),) = decode_frames(control_frame("_start", epoch=0.0))
    body["v"] = WIRE_VERSION + 1
    with pytest.raises(WireError, match="unsupported wire version"):
        parse_frame(body)
    with pytest.raises(WireError, match="unsupported wire version"):
        FrameDecoder().feed_parsed(_json_frame(body))


def test_oversized_length_prefix_rejected_before_buffering():
    hostile = struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x"
    decoder = FrameDecoder()
    with pytest.raises(WireError, match="exceeds maximum"):
        decoder.feed_parsed(hostile)
    assert decoder.pending_bytes() == len(hostile)  # nothing consumed


def test_truncated_stream_detected():
    frame = control_frame("_stop")
    decoder = FrameDecoder()
    assert decoder.feed_parsed(frame[:-3]) == []
    assert decoder.pending_bytes() == len(frame) - 3
    with pytest.raises(WireError, match="truncated"):
        decoder.assert_drained()
    with pytest.raises(WireError, match="truncated"):
        list(decode_frames(frame[:-3]))


def test_garbage_body_rejected():
    garbage = struct.pack(">I", 4) + b"\xff\xfe\x00\x01"
    with pytest.raises(WireError, match="undecodable frame body"):
        FrameDecoder().feed_parsed(garbage)


def test_frame_missing_envelope_field_rejected():
    ((_, body),) = decode_frames(control_frame("x"))
    del body["ctl"]  # now neither a control nor a complete message frame
    with pytest.raises(WireError, match="missing envelope field"):
        parse_frame(body)
    with pytest.raises(WireError, match="missing envelope field"):
        FrameDecoder().feed_parsed(_json_frame(body))


def test_duplicate_tag_registration_rejected():
    with pytest.raises(WireError, match="already registered"):
        register_payload("vstate", MirrorViewerState)


def test_non_dataclass_registration_rejected():
    with pytest.raises(WireError, match="not a dataclass"):
        register_payload("bogus", int)


# ----------------------------------------------------------------------
# Binary codec (wire v2)
# ----------------------------------------------------------------------
def _binary_frame_of(payload, **envelope):
    message = Message(
        src=envelope.pop("src", "cub:0"),
        dst=envelope.pop("dst", "cub:1"),
        payload=payload,
        size_bytes=envelope.pop("size_bytes", 64),
        **envelope,
    )
    return message, binary_message_frame(message)


@pytest.mark.parametrize("tag", sorted(REGISTRY))
def test_binary_payload_round_trips(tag):
    cls = REGISTRY[tag]
    for seed in range(20):
        rng = random.Random(f"bin-{tag}-{seed}")
        message, frame = _binary_frame_of(
            _instance_of(cls, rng),
            src=f"cub:{rng.randrange(16)}",
            dst="controller",
            size_bytes=rng.randrange(1, 10**6),
            kind=rng.choice(["control", "data"]),
            msg_id=rng.randrange(0, 2**63),
        )
        (kind, decoded), = decode_frames(frame)
        assert kind == "msg"
        assert decoded == message


def test_binary_round_trips_u64_fingerprints():
    # Content fingerprints are full-width 64-bit hashes; values at or
    # above 2**63 must survive (they overflow the signed i64 code).
    block = BlockData(
        viewer_id="client:0#1", instance=1, file_id=2, block_index=3,
        play_seqno=4, pattern=block_pattern(2, 3),
    )
    assert block.pattern >= (1 << 63)  # the fixture must exercise u64
    _, frame = _binary_frame_of(block, kind="data")
    (_, decoded), = decode_frames(frame)
    assert decoded.payload.pattern == block.pattern


def test_binary_rejects_int_beyond_u64():
    oversized = ViewerState("client:0#1", 1 << 64, 2, 3, 4, 5, 6.0, 7)
    with pytest.raises(WireError, match="out of binary range"):
        binary_message_frame(Message("cub:0", "cub:1", oversized, 64))


def test_mixed_codec_stream_decodes():
    # Frames are self-describing (first body byte), so one decoder
    # accepts an interleaved json/binary stream — what a connection
    # looks like around the codec_ack switchover.
    rng = random.Random(11)
    messages = [
        Message("cub:0", "cub:1", _instance_of(REGISTRY["vstate"], rng), 100)
        for _ in range(8)
    ]
    stream = b"".join(
        encode_message(m, CODEC_BINARY if i % 2 else CODEC_JSON)
        for i, m in enumerate(messages)
    )
    decoder = FrameDecoder()
    decoded = decoder.feed_parsed(stream)
    decoder.assert_drained()
    assert [m for _, m in decoded] == messages


def test_binary_bad_magic_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    mangled = frame[:4] + b"\xb3" + frame[5:]
    with pytest.raises(WireError, match="undecodable frame body"):
        FrameDecoder().feed_parsed(mangled)


def test_binary_wrong_version_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    mangled = frame[:5] + bytes([WIRE_VERSION_BINARY + 1]) + frame[6:]
    with pytest.raises(WireError, match="unsupported wire version"):
        FrameDecoder().feed_parsed(mangled)


def test_binary_unknown_frame_type_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    mangled = frame[:6] + b"\x7f" + frame[7:]
    with pytest.raises(WireError, match="unknown binary frame type"):
        FrameDecoder().feed_parsed(mangled)


def test_binary_truncated_payload_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    body = frame[4:-3]  # drop payload bytes but keep the prefix honest
    mangled = struct.pack(">I", len(body)) + body
    with pytest.raises(WireError, match="truncated binary"):
        FrameDecoder().feed_parsed(mangled)


def test_binary_unknown_payload_id_rejected():
    _, frame = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    body = bytearray(frame[4:])
    obj_at = body.index(0x07)  # first _B_OBJ type code is the payload's
    body[obj_at + 1] = 0xFE  # no registry id 254
    mangled = struct.pack(">I", len(body)) + bytes(body)
    with pytest.raises(WireError, match="unknown binary payload id"):
        FrameDecoder().feed_parsed(mangled)


def test_encode_message_rejects_unknown_codec():
    message, _ = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    with pytest.raises(WireError, match="unknown codec"):
        encode_message(message, "gzip")


def test_choose_codec_prefers_preferred_then_first_mutual():
    assert choose_codec(["json", "binary"], CODEC_BINARY) == CODEC_BINARY
    assert choose_codec(["json"], CODEC_BINARY) == CODEC_JSON
    assert choose_codec([], CODEC_BINARY) == CODEC_JSON
    # Preferred codec the peer lacks: fall back to the best mutual one
    # in SUPPORTED_CODECS preference order.
    assert choose_codec(["gzip", "binary"], CODEC_JSON) == CODEC_BINARY
    assert choose_codec(["gzip"], CODEC_BINARY) == CODEC_JSON


def test_binary_frames_are_smaller_than_json():
    # The reason the v2 codec exists: the same gossip batch or block
    # frame costs fewer wire bytes than its JSON spelling.
    states = tuple(
        ViewerState("client:7#7", 8, 7 + hop, 3, hop, hop % 16, 6.5 + hop, hop)
        for hop in range(4)
    )
    block = BlockData("client:7#7", 8, 3, 2, 2, pattern=block_pattern(3, 2))
    for payload in (ViewerStateBatch(states=states), block):
        message, binary_frame = _binary_frame_of(payload)
        assert len(binary_frame) < len(encode_message(message, CODEC_JSON))


def test_wire_stats_counts_frames_and_bytes_per_codec():
    registry = MetricsRegistry()
    stats = WireStats(registry, node="test")
    message, _ = _binary_frame_of(ViewerState("c#1", 1, 2, 3, 4, 5, 6.0, 7))
    json_frame = encode_message(message, CODEC_JSON, stats)
    binary_frame = encode_message(message, CODEC_BINARY, stats)
    decoder = FrameDecoder(stats=stats)
    decoder.feed_parsed(json_frame + binary_frame)
    snapshot = registry.snapshot()
    for codec, direction, expected in (
        (CODEC_JSON, "tx", len(json_frame)),
        (CODEC_BINARY, "tx", len(binary_frame)),
        (CODEC_JSON, "rx", len(json_frame)),
        (CODEC_BINARY, "rx", len(binary_frame)),
    ):
        assert snapshot_total(
            snapshot, "live.wire_frames",
            codec=codec, direction=direction, node="test",
        ) == 1
        assert snapshot_total(
            snapshot, "live.wire_bytes",
            codec=codec, direction=direction, node="test",
        ) == expected
