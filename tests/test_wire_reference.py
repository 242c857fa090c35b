"""The binary coder against the recursive one it replaced.

``wire.binary_message_frame`` and the binary decoders code a payload in
one flat pass per frame.  The reference below is the coder they
replaced — one recursive call per value — copied here unchanged as the
oracle.  The tests drive both over every registered payload type, and
over the values a flat coder gets wrong most easily: ``True`` against
``1``, ``IntEnum`` members, the edges of the i64/u64 ranges, negative
zero and the infinities, non-ASCII strings, a list where a tuple is
declared, nested batches, and one-field records.  Frames must be equal
byte for byte, and decodes equal and of the same types all the way
down.

Last, a SHA-256 over every frame of a fixed corpus, in both codecs,
pins the bytes themselves: it was taken with the recursive coder, so
"byte-identical" is checked rather than claimed.
"""

import dataclasses
import hashlib
import math
import random
import struct
import typing
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.protocol import (
    BlockData,
    ClientStart,
    DescheduleForward,
    Heartbeat,
    StartAck,
    ViewerStateBatch,
    block_pattern,
)
from repro.core.viewerstate import (
    DescheduleRequest,
    MirrorViewerState,
    ViewerState,
)
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    RawFrame,
    EnvelopeDecoder,
    FrameDecoder,
    WireError,
    binary_message_frame,
    decode_frames,
    encode_message,
    payload_registry,
)
from repro.net.message import KIND_CONTROL, KIND_DATA, Message

REGISTRY = {tag: cls for _, tag, cls in payload_registry()}


# ----------------------------------------------------------------------
# The oracle: the recursive coder, as it was
# ----------------------------------------------------------------------
class WireErrorRef(ValueError):
    pass


_TYPE_TO_ID = {cls: numeric_id for numeric_id, _, cls in payload_registry()}
_ID_TO_TYPE = {numeric_id: cls for numeric_id, _, cls in payload_registry()}
_TYPE_FIELDS = {
    cls: tuple(field.name for field in dataclasses.fields(cls))
    for cls in _TYPE_TO_ID
}
_LENGTH = struct.Struct(">I")
_BIN_HEAD = struct.Struct(">BBB")
_BIN_MSG = struct.Struct(">QIB")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")
_KIND_TO_CODE = {KIND_CONTROL: 0, KIND_DATA: 1}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}
_B_NONE, _B_TRUE, _B_FALSE, _B_INT = 0x00, 0x01, 0x02, 0x03
_B_FLOAT, _B_STR, _B_SEQ, _B_OBJ, _B_U64 = 0x04, 0x05, 0x06, 0x07, 0x08


def _encode_binary_value(obj, out):
    if obj is None:
        out.append(_B_NONE)
    elif obj is True:
        out.append(_B_TRUE)
    elif obj is False:
        out.append(_B_FALSE)
    elif isinstance(obj, int):
        if -(1 << 63) <= obj < (1 << 63):
            out.append(_B_INT)
            out += _I64.pack(obj)
        elif obj < (1 << 64):
            out.append(_B_U64)
            out += _U64.pack(obj)
        else:
            raise WireErrorRef(f"int {obj} out of binary range")
    elif isinstance(obj, float):
        out.append(_B_FLOAT)
        out += _F64.pack(obj)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        if len(data) > 0xFFFFFFFF:
            raise WireErrorRef("string too long for binary frame")
        out.append(_B_STR)
        out += _U32.pack(len(data))
        out += data
    elif isinstance(obj, (tuple, list)):
        out.append(_B_SEQ)
        out += _U32.pack(len(obj))
        for item in obj:
            _encode_binary_value(item, out)
    else:
        numeric_id = _TYPE_TO_ID.get(type(obj))
        if numeric_id is None:
            raise WireErrorRef(
                f"payload type {type(obj).__name__} is not wire-registered"
            )
        out.append(_B_OBJ)
        out.append(numeric_id)
        for name in _TYPE_FIELDS[type(obj)]:
            _encode_binary_value(getattr(obj, name), out)


def binary_message_frame_ref(message):
    kind_code = _KIND_TO_CODE.get(message.kind)
    if kind_code is None:
        raise WireErrorRef(f"unknown message kind {message.kind!r}")
    src = message.src.encode("utf-8")
    dst = message.dst.encode("utf-8")
    body = bytearray()
    body += _BIN_HEAD.pack(0xB2, 2, 0x01)
    try:
        body += _BIN_MSG.pack(message.msg_id, message.size_bytes, kind_code)
    except struct.error as error:
        raise WireErrorRef(f"envelope field out of binary range: {error}") from error
    body += _U32.pack(len(src))
    body += src
    body += _U32.pack(len(dst))
    body += dst
    _encode_binary_value(message.payload, body)
    return _LENGTH.pack(len(body)) + bytes(body)


def _read_binary_str(view, offset):
    try:
        (length,) = _U32.unpack_from(view, offset)
    except struct.error as error:
        raise WireErrorRef(f"truncated binary string: {error}") from error
    offset += _U32.size
    end = offset + length
    if end > len(view):
        raise WireErrorRef("truncated binary string body")
    try:
        return str(view[offset:end], "utf-8"), end
    except UnicodeDecodeError as error:
        raise WireErrorRef(f"bad utf-8 in binary frame: {error}") from error


def _decode_binary_value(view, offset):
    if offset >= len(view):
        raise WireErrorRef("truncated binary value")
    code = view[offset]
    offset += 1
    if code == _B_NONE:
        return None, offset
    if code == _B_TRUE:
        return True, offset
    if code == _B_FALSE:
        return False, offset
    try:
        if code == _B_INT:
            (value,) = _I64.unpack_from(view, offset)
            return value, offset + _I64.size
        if code == _B_U64:
            (value,) = _U64.unpack_from(view, offset)
            return value, offset + _U64.size
        if code == _B_FLOAT:
            (value,) = _F64.unpack_from(view, offset)
            return value, offset + _F64.size
        if code == _B_STR:
            return _read_binary_str(view, offset)
        if code == _B_SEQ:
            (count,) = _U32.unpack_from(view, offset)
            offset += _U32.size
            if count > len(view):
                raise WireErrorRef(f"binary sequence count {count} too large")
            items = []
            for _ in range(count):
                item, offset = _decode_binary_value(view, offset)
                items.append(item)
            return tuple(items), offset
        if code == _B_OBJ:
            if offset >= len(view):
                raise WireErrorRef("truncated binary object header")
            numeric_id = view[offset]
            offset += 1
            cls = _ID_TO_TYPE.get(numeric_id)
            if cls is None:
                raise WireErrorRef(f"unknown binary payload id {numeric_id}")
            values = []
            for _ in _TYPE_FIELDS[cls]:
                value, offset = _decode_binary_value(view, offset)
                values.append(value)
            try:
                return cls(*values), offset
            except (TypeError, ValueError) as error:
                raise WireErrorRef(f"bad {cls.__name__} payload: {error}") from error
    except struct.error as error:
        raise WireErrorRef(f"truncated binary value: {error}") from error
    raise WireErrorRef(f"unknown binary value type code {code:#04x}")


def reference_message(frame):
    """The oracle's decode of one whole, well-formed v2 frame."""
    view = memoryview(frame)
    msg_id, size_bytes, kind_code = _BIN_MSG.unpack_from(view, 7)
    src, offset = _read_binary_str(view, 20)
    dst, offset = _read_binary_str(view, offset)
    payload, offset = _decode_binary_value(view, offset)
    assert offset == len(view)
    return Message(src, dst, payload, size_bytes, _CODE_TO_KIND[kind_code], msg_id)


# ----------------------------------------------------------------------
# Equal, and of the same types all the way down
# ----------------------------------------------------------------------
def typed(value):
    """``value`` spelled out with every type, floats by their bits —
    ``True == 1`` and ``0.0 == -0.0`` would hide a coder's mistake."""
    if isinstance(value, Message):
        return ("Message", value.src, value.dst, typed(value.payload),
                value.size_bytes, value.kind, value.msg_id)
    if dataclasses.is_dataclass(value):
        return (type(value), tuple(
            typed(getattr(value, field.name))
            for field in dataclasses.fields(value)
        ))
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(typed(item) for item in value))
    if isinstance(value, float):
        return (float, value.hex())
    return (type(value), value)


def assert_coders_agree(message):
    """Both coders write the same bytes; all three decoders read them
    back as the oracle does."""
    frame = binary_message_frame(message)
    assert frame == binary_message_frame_ref(message)
    assert encode_message(message, CODEC_BINARY) == frame
    expected = typed(reference_message(frame))
    ((kind, decoded),) = decode_frames(frame)
    assert kind == "msg" and typed(decoded) == expected
    ((kind, raw),) = EnvelopeDecoder().feed_parsed(frame)
    assert kind == "raw" and isinstance(raw, RawFrame)
    assert raw.frame == frame and typed(raw.message()) == expected
    return decoded


def message_of(payload, src="cub:0"):
    return Message(src, "cub:1", payload, 256, KIND_CONTROL, 42)


# ----------------------------------------------------------------------
# Every registered type, drawn by hypothesis
# ----------------------------------------------------------------------
def _strategy(hint):
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return st.none() | _strategy(inner)
    if origin is tuple:
        element = _strategy(typing.get_args(hint)[0])
        items = st.lists(element, max_size=3)
        # A list where a tuple is declared codes the same way.
        return items.map(tuple) | items
    if hint is bool:
        return st.booleans()
    if hint is int:
        return st.integers(-(1 << 63), (1 << 64) - 1) | st.integers(-3, 3)
    if hint is float:
        return st.floats(allow_nan=True, allow_infinity=True)
    if hint is str:
        return st.text(max_size=12)
    if dataclasses.is_dataclass(hint):
        return _record_strategy(hint)
    raise AssertionError(f"no strategy for type hint {hint!r}")


def _record_strategy(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        field.name: _strategy(hints[field.name])
        for field in dataclasses.fields(cls)
    })


@pytest.mark.parametrize("tag", sorted(REGISTRY))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_flat_coder_matches_the_recursive_one(tag, data):
    payload = data.draw(_record_strategy(REGISTRY[tag]))
    kind = data.draw(st.sampled_from([KIND_CONTROL, KIND_DATA]))
    msg_id = data.draw(st.integers(0, (1 << 64) - 1))
    size = data.draw(st.integers(1, (1 << 32) - 1))
    src = data.draw(st.text(min_size=1, max_size=8))
    assert_coders_agree(Message(src, "cub:1", payload, size, kind, msg_id))


# ----------------------------------------------------------------------
# The traps
# ----------------------------------------------------------------------
def test_true_stays_0x01_and_one_stays_0x03():
    assert binary_message_frame(message_of(True)).endswith(b"\x01")
    assert binary_message_frame(message_of(1)).endswith(b"\x03" + bytes(7) + b"\x01")
    for value in (True, False, 1, 0):
        assert typed(assert_coders_agree(message_of(Heartbeat(value))).payload) == (
            Heartbeat, ((type(value), value), (float, (0.0).hex()))
        )


def test_an_int_enum_codes_as_its_int():
    class Code(IntEnum):
        SEVEN = 7

    decoded = assert_coders_agree(message_of(Heartbeat(Code.SEVEN)))
    assert type(decoded.payload.cub_id) is int and decoded.payload.cub_id == 7
    assert binary_message_frame(message_of(Code.SEVEN)) == binary_message_frame(
        message_of(7)
    )


@pytest.mark.parametrize("value, code", [
    (-(1 << 63), 0x03), ((1 << 63) - 1, 0x03), (1 << 63, 0x08), ((1 << 64) - 1, 0x08),
])
def test_the_edges_of_the_integer_ranges(value, code):
    frame = binary_message_frame(message_of(value))
    assert frame[-9] == code
    assert assert_coders_agree(message_of(value)).payload == value
    assert_coders_agree(message_of(BlockData("v", 1, 2, 3, 4, pattern=value)))


@pytest.mark.parametrize("value", [1 << 64, -(1 << 63) - 1])
def test_an_int_past_both_ranges_is_a_wire_error(value):
    with pytest.raises(WireError, match="out of binary range"):
        binary_message_frame(message_of(Heartbeat(value)))


@pytest.mark.parametrize("value", [-0.0, 0.0, math.inf, -math.inf, 5e-324])
def test_signed_zero_and_the_infinities(value):
    decoded = assert_coders_agree(message_of(ClientStart("v", 1, 2, 3, value)))
    assert decoded.payload.request_time.hex() == value.hex()


def test_non_ascii_strings():
    for text in ("é", "☃ client", "\U0001f3a5#7", "\x00", ""):
        decoded = assert_coders_agree(message_of(StartAck(3, text), src="cüb:0"))
        assert decoded.payload.controller == text and decoded.src == "cüb:0"


def test_a_list_where_a_tuple_is_declared():
    states = [ViewerState("client:0#1", 1, 2, 3, 4, 5, 6.5, 7)] * 2
    listed = message_of(ViewerStateBatch(states=states))
    assert binary_message_frame(listed) == binary_message_frame(
        message_of(ViewerStateBatch(states=tuple(states)))
    )
    assert type(assert_coders_agree(listed).payload.states) is tuple


def test_a_nested_batch_with_mirrors():
    batch = ViewerStateBatch(
        states=tuple(
            ViewerState(f"client:0#{i}", i, i * 3, 1, i, i % 8, 1.5 * i, i)
            for i in range(5)
        ),
        mirrors=(
            MirrorViewerState("client:1#9", 9, 4, 2, 7, 1, 2, 3, 8.25, 7),
            MirrorViewerState("client:1#9", 9, 4, 2, 7, 2, 2, 4, 8.25, 7),
        ),
    )
    assert assert_coders_agree(message_of(batch)).payload == batch
    nested = (batch, [batch], ((), [()]))
    assert_coders_agree(message_of(nested))


@pytest.mark.parametrize("record", [
    DescheduleForward((1, 2)),
    DescheduleForward(()),
    DescheduleForward(((3,),)),
    DescheduleForward((DescheduleRequest("v", 1, 2, 3.0),)),
    DescheduleForward(DescheduleRequest("v", 1, 2, 3.0)),
])
def test_a_one_field_record_holding_a_tuple(record):
    assert assert_coders_agree(message_of(record)).payload == record


def test_bare_payload_values():
    for payload in (None, True, False, 0, -1, 2.5, "x", (), [1, "a", None], (None,)):
        assert_coders_agree(message_of(payload))


# ----------------------------------------------------------------------
# The pinned corpus
# ----------------------------------------------------------------------
def _value(hint, rng, depth):
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return None if rng.random() < 0.3 else _value(inner, rng, depth)
    if origin is tuple:
        count = rng.randrange(0, 4) if depth < 2 else 0
        element = typing.get_args(hint)[0]
        return tuple(_value(element, rng, depth + 1) for _ in range(count))
    if hint is bool:
        return rng.random() < 0.5
    if hint is int:
        return rng.choice([
            rng.randrange(-(10**9), 10**12), -(1 << 63), (1 << 63) - 1,
            block_pattern(rng.randrange(64), rng.randrange(1000)),
        ])
    if hint is float:
        return rng.choice([0.0, -0.0, math.inf, -1.5, rng.uniform(-1e6, 1e6)])
    if hint is str:
        return "".join(rng.choice("abc:#/0123 é☃") for _ in range(rng.randrange(12)))
    hints = typing.get_type_hints(hint)
    return hint(**{
        field.name: _value(hints[field.name], rng, depth + 1)
        for field in dataclasses.fields(hint)
    })


def corpus():
    """A fixed mix: eight messages of every registered type, then a
    hub_relay-shaped arrival (start, ack, 4-state batch, 4 blocks)."""
    rng = random.Random(20261017)
    messages = []
    for tag, cls in sorted(REGISTRY.items()):
        for _ in range(8):
            messages.append(Message(
                f"cub:{rng.randrange(16)}", "controller:0", _value(cls, rng, 0),
                rng.randrange(1, 1 << 20), rng.choice([KIND_CONTROL, KIND_DATA]),
                rng.randrange(1 << 56),
            ))
    states = tuple(
        ViewerState("client:3#3", 4, 3, 5, hop, hop % 16, 1.25 + hop, hop)
        for hop in range(4)
    )
    for payload in (
        ClientStart("client:3#3", 4, 5),
        StartAck(4, "controller"),
        ViewerStateBatch(states=states),
        *(BlockData("client:3#3", 4, 5, seqno, seqno, pattern=block_pattern(5, seqno))
          for seqno in range(4)),
    ):
        messages.append(Message("cub:0", "cub:1", payload, 64, KIND_CONTROL,
                                len(messages) + 1))
    return messages


#: sha256 over ``encode_message(m, "json") + encode_message(m, "binary")``
#: for every message of :func:`corpus`, taken with the recursive coder.
CORPUS_SHA256 = "787d2218872dd8b5b6408fb8dd5a67a1abd391319254937f5baee15e800d4b71"


def test_the_corpus_is_byte_identical_to_the_recursive_coder():
    digest = hashlib.sha256()
    for message in corpus():
        digest.update(encode_message(message, CODEC_JSON))
        digest.update(encode_message(message, CODEC_BINARY))
    assert digest.hexdigest() == CORPUS_SHA256


def test_the_corpus_decodes_as_the_oracle_does():
    messages = corpus()
    frames = [binary_message_frame(message) for message in messages]
    decoded = [value for _, value in FrameDecoder().feed_parsed(b"".join(frames))]
    assert [typed(message) for message in decoded] == [
        typed(reference_message(frame)) for frame in frames
    ]
    assert decoded == messages
