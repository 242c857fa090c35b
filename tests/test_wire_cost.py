"""A binary frame's Python call budget, per codec entry point.

Every frame on the live backend is encoded once by its sender, has its
envelope read once by the hub, and is decoded once by its receiver.
These tests count the Python-level calls (``sys.setprofile`` call
events) each of the three entry points makes per frame, over a fixed
mix shaped like the hub_relay benchmark: per arrival a ``ClientStart``,
a ``StartAck``, a 4-state ``ViewerStateBatch`` and 4 ``BlockData`` with
genuine content fingerprints, read back in 64 KiB socket reads.  The
recursive coder this budget replaced made 14.6 / 5.0 / 22.6 calls a
frame; a coder that recurses per value again fails here first.
"""

import sys

import pytest

from repro.core.protocol import (
    BlockData,
    ClientStart,
    StartAck,
    ViewerStateBatch,
    block_pattern,
)
from repro.core.viewerstate import ViewerState
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    EnvelopeDecoder,
    FrameDecoder,
    encode_message,
)
from repro.net.message import KIND_CONTROL, KIND_DATA, Message

ARRIVALS = 200
#: Bytes per socket read, as the hub and the nodes read.
READ = 1 << 16


def relay_mix():
    messages = []

    def emit(payload, size, kind):
        messages.append(
            Message("cub:0", "cub:1", payload, size, kind, len(messages) + 1)
        )

    for index in range(ARRIVALS):
        viewer_id = f"client:{index}#{index}"
        file_id = index % 32
        emit(ClientStart(viewer_id, index + 1, file_id), 64, KIND_CONTROL)
        emit(StartAck(index + 1, "controller"), 32, KIND_CONTROL)
        emit(ViewerStateBatch(states=tuple(
            ViewerState(viewer_id, index + 1, index % 128, file_id, hop,
                        hop % 16, 1.0 + index * 0.007 + hop, hop)
            for hop in range(4)
        )), 256, KIND_CONTROL)
        for seqno in range(4):
            emit(BlockData(viewer_id, index + 1, file_id, seqno, seqno,
                           pattern=block_pattern(file_id, seqno)),
                 65536, KIND_DATA)
    return messages


def calls_during(work):
    """Python call events while ``work()`` runs."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def calls_per_frame():
    """``{entry point: calls per frame}`` over the mix."""
    messages = relay_mix()
    frames = [encode_message(message, CODEC_BINARY) for message in messages]
    stream = b"".join(frames)
    reads = [stream[at:at + READ] for at in range(0, len(stream), READ)]

    def encode():
        for message in messages:
            encode_message(message, CODEC_BINARY)

    def reader(decoder_class, kind):
        def read():
            decoder = decoder_class()
            parsed = []
            for data in reads:
                parsed += decoder.feed_parsed(data)
            assert [k for k, _ in parsed] == [kind] * len(messages)
        return read

    return {
        "encode_message": calls_during(encode) / len(messages),
        "EnvelopeDecoder.feed_parsed":
            calls_during(reader(EnvelopeDecoder, "raw")) / len(messages),
        "FrameDecoder.feed_parsed":
            calls_during(reader(FrameDecoder, "msg")) / len(messages),
    }


@pytest.fixture(scope="module")
def measured():
    return calls_per_frame()


@pytest.mark.parametrize("entry, ceiling", [
    ("encode_message", 2.5),
    ("EnvelopeDecoder.feed_parsed", 3.5),
    ("FrameDecoder.feed_parsed", 7.5),
])
def test_a_frame_stays_inside_its_call_budget(measured, entry, ceiling):
    """What one frame costs in Python calls: the entry point, its one
    coding function, and the records and ``Message`` it builds —
    never a call per value.  Ceilings, not equalities: Python 3.12
    counts fewer."""
    assert measured[entry] <= ceiling, measured


def test_a_read_is_counted_once_per_codec():
    """Frames and bytes decoded go into the stats once per read and
    codec — the hub's rx accounting costs two counter increments per
    read, not two per frame."""
    counted = []

    class Stats:
        def on_decoded(self, codec, nbytes, count=1):
            counted.append((codec, nbytes, count))

    messages = relay_mix()[:14]
    binary = [encode_message(message, CODEC_BINARY) for message in messages]
    json = [encode_message(message, CODEC_JSON) for message in messages[:3]]
    for decoder_class in (FrameDecoder, EnvelopeDecoder):
        counted.clear()
        decoder_class(stats=Stats()).feed_parsed(b"".join(binary + json))
        assert counted == [
            (CODEC_BINARY, sum(map(len, binary)), len(binary)),
            (CODEC_JSON, sum(map(len, json)), len(json)),
        ]
