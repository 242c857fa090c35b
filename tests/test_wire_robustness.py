"""A damaged binary frame is a ``WireError``, never a crash.

The binary decoder reads a payload in one flat loop, so its checks —
a value cut short, a bad type code, an unknown registry id, bad UTF-8 —
are spread over inline branches and one handler per frame.  These tests
hold every one of them from the outside, over a small corpus:

* every cut point: each strict prefix of a frame's bytes, and each
  strict prefix of its body re-framed with a matching length, is
  rejected as truncated;
* every flipped byte: each of the 255 other values of each byte either
  decodes or raises ``WireError`` — never ``IndexError``,
  ``struct.error`` or ``UnicodeDecodeError``;
* both through :class:`FrameDecoder` and through the hub's
  :class:`EnvelopeDecoder` plus :meth:`RawFrame.message`, and with the
  sender's ``src`` / ``msg_id`` on the error whenever the envelope
  parsed.

And the one failure that went the other way: a string that JSON
carries but UTF-8 cannot (a lone surrogate) is a ``WireError`` on
binary encode too — at the hub, the sender's fault, not a crash.
"""

import asyncio

import pytest

from repro.core.protocol import (
    BlockData,
    ClientStart,
    ClientStop,
    DescheduleForward,
    StartAck,
    ViewerStateBatch,
    block_pattern,
)
from repro.core.viewerstate import DescheduleRequest, MirrorViewerState, ViewerState
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    EnvelopeDecoder,
    WireError,
    binary_message_frame,
    decode_frames,
    encode_message,
)
from repro.net.message import KIND_CONTROL, KIND_DATA, Message
from tests.test_live_hub import BOTH, V1, reframe, running_hub

CORPUS = [
    Message("cub:0", "cub:1", payload, 64, kind, msg_id)
    for msg_id, (payload, kind) in enumerate([
        (ClientStart("client:3#3", 4, 5, 0, 1.5), KIND_CONTROL),
        (StartAck(4, "contrôleur"), KIND_CONTROL),
        (ViewerStateBatch(
            states=(ViewerState("client:3#3", 4, 3, 5, 1, 1, 2.25, 1),),
            mirrors=(MirrorViewerState("c#9", 9, 4, 2, 7, 1, 2, 3, 8.25, 7),),
        ), KIND_CONTROL),
        (BlockData("client:3#3", 4, 5, 2, 2, None, 1, True,
                   block_pattern(5, 2)), KIND_DATA),
        (DescheduleForward(DescheduleRequest("c#1", 1, 2, 3.0)), KIND_CONTROL),
    ], start=1)
]
FRAMES = [binary_message_frame(message) for message in CORPUS]


def spelled(value):
    """A decoded frame as comparable text (a flipped byte can make NaN)."""
    if isinstance(value, Message):
        return (value.src, value.dst, repr(value.payload), value.size_bytes,
                value.kind, value.msg_id)
    return repr(value)


def full_decode(frame):
    """Every frame of ``frame`` through a node's decoder."""
    return [spelled(value) for _, value in decode_frames(frame)]


def hub_then_consumer(frame):
    """The hub's envelope read, then the consumer's payload decode."""
    decoder = EnvelopeDecoder()
    frames = decoder.feed_parsed(frame)
    decoder.assert_drained()
    return [
        spelled(value.message() if kind == "raw" else value)
        for kind, value in frames
    ]


def envelope_of(frame):
    """``(src, msg_id)`` if ``frame`` is one binary frame whose envelope
    the hub accepts, else None."""
    decoder = EnvelopeDecoder()
    try:
        frames = decoder.feed_parsed(frame)
    except WireError:
        return None
    if decoder.pending_bytes() or [kind for kind, _ in frames] != ["raw"]:
        return None
    ((_, raw),) = frames
    return (raw.src, raw.msg_id)


# ----------------------------------------------------------------------
# Every cut point
# ----------------------------------------------------------------------
@pytest.mark.parametrize("decode", [full_decode, hub_then_consumer])
@pytest.mark.parametrize("index", range(len(FRAMES)))
def test_every_prefix_of_the_stream_is_truncated(decode, index):
    frame = FRAMES[index]
    for cut in range(1, len(frame)):
        with pytest.raises(WireError, match="truncated"):
            decode(frame[:cut])


@pytest.mark.parametrize("decode", [full_decode, hub_then_consumer])
@pytest.mark.parametrize("index", range(len(FRAMES)))
def test_every_prefix_of_the_body_is_truncated(decode, index):
    frame = FRAMES[index]
    body = frame[4:]
    for cut in range(1, len(body)):
        mangled = reframe(body[:cut])
        # Under 3 bytes there is no frame head to be truncated yet.
        reason = "binary frame too short" if cut < 3 else "truncated"
        with pytest.raises(WireError, match=reason) as caught:
            decode(mangled)
        envelope = envelope_of(mangled)
        assert (caught.value.src, caught.value.msg_id) == (
            envelope or (None, None)
        )


# ----------------------------------------------------------------------
# Every flipped byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index", range(len(FRAMES)))
def test_every_flipped_byte_decodes_or_is_a_wire_error(index):
    frame = FRAMES[index]
    outcomes = {"decoded": 0, "rejected": 0}
    for position in range(len(frame)):
        for value in range(256):
            if value == frame[position]:
                continue
            mangled = bytearray(frame)
            mangled[position] = value
            mangled = bytes(mangled)
            verdicts = []
            for decode in (full_decode, hub_then_consumer):
                try:
                    verdicts.append(decode(mangled))
                except WireError as error:
                    verdicts.append(error)
            full, hub = verdicts
            # Whoever decodes the payload reaches the same verdict.
            assert type(full) is type(hub), (position, value)
            if not isinstance(full, WireError):
                assert full == hub, (position, value)
                outcomes["decoded"] += 1
                continue
            outcomes["rejected"] += 1
            envelope = envelope_of(mangled)
            if envelope is not None:
                # ... for the same reason, naming the frame's sender —
                # unless a changed length prefix split the bytes into
                # frames that the two readers open in another order.
                assert str(full) == str(hub), (position, value)
                assert (full.src, full.msg_id) == envelope, (position, value)
                assert (hub.src, hub.msg_id) == envelope, (position, value)
    assert outcomes["decoded"] and outcomes["rejected"]


# ----------------------------------------------------------------------
# A string UTF-8 cannot carry
# ----------------------------------------------------------------------
UNENCODABLE = Message("cub:0", "cub:1", ClientStop("a\udc80", 3), 64, KIND_CONTROL, 9)


def test_a_lone_surrogate_is_a_wire_error_on_binary_encode():
    ((_, decoded),) = decode_frames(encode_message(UNENCODABLE, CODEC_JSON))
    assert decoded == UNENCODABLE
    with pytest.raises(WireError, match="not encodable"):
        encode_message(UNENCODABLE, CODEC_BINARY)
    with pytest.raises(WireError, match="not encodable"):
        binary_message_frame(Message("cub:\udc80", "cub:1", 0, 64))


def test_a_json_frame_the_hub_cannot_re_encode_closes_the_sender():
    """A JSON peer's message for a binary peer is re-encoded at the hub;
    when that fails, the sender gets ``_error`` and the run records it."""

    async def scenario():
        async with running_hub(("cub:0", V1), ("cub:1", BOTH)) as rig:
            tx, rx = rig.peers
            tx.send(encode_message(UNENCODABLE, CODEC_JSON))
            await tx.read(lambda: False)  # until the hub hangs up
            assert tx.eof
            ((error,),) = [tx.controls]
            assert error["ctl"] == "_error" and "not encodable" in error["reason"]
            assert rig.hub.wire_errors == [f"cub:0: {error['reason']}"]
            assert "cub:0" not in rig.hub.connections
            assert not rx.raw

    asyncio.run(scenario())
