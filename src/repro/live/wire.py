"""Wire format for the live backend: framing and payload serialization.

The DES hands payload objects between components by reference; real
sockets need bytes.  This module defines:

* a **codec registry** mapping every protocol payload dataclass
  (:class:`~repro.core.viewerstate.ViewerState`, deschedule requests,
  heartbeats, reservations/start-stop traffic, block data, replica
  updates, ...) to a stable type tag *and* a stable numeric id, with
  generic encode/decode — registering a new payload type is one
  :func:`register_payload` call;
* **frame v1 (JSON)**: a 4-byte big-endian length prefix followed by a
  JSON body carrying the wire version, the
  :class:`~repro.net.message.Message` envelope (src, dst, kind,
  modelled size, message id) and the encoded payload;
* **frame v2 (binary)**: the same length prefix followed by a
  struct-packed body (magic ``0xB2``, version, frame type, fixed-width
  envelope, type-coded payload values), coded in one flat pass per
  frame — no Python call per value.  A binary body can never be
  mistaken for JSON — JSON bodies start with ``{`` (0x7B), binary
  bodies with ``0xB2`` — so one stream can carry both and a decoder
  never needs out-of-band codec state;
* **per-connection codec negotiation**: a node's ``hello`` control
  frame advertises the codecs it speaks (:data:`SUPPORTED_CODECS`),
  the hub answers with a ``codec_ack`` naming the connection's codec
  (:func:`choose_codec`), and each side switches its *encoder*; both
  decoders accept both codecs throughout, so v1 JSON peers that never
  advertise anything keep working unchanged;
* an incremental :class:`FrameDecoder` that accepts arbitrary chunk
  boundaries from a TCP stream, with optional :class:`WireStats`
  frame/byte accounting per codec — and the hub's
  :class:`EnvelopeDecoder`, which validates only a binary frame's
  envelope and yields the sender's bytes as a :class:`RawFrame` to
  forward untouched (whoever consumes a payload validates it, once).

Frames whose version, length, magic, or payload tag is wrong are
rejected with :class:`WireError` — a malformed peer cannot wedge the
decoder.  Control frames (``hello``, ``_start``, ``_metrics``,
``_bye``, ``_stop``, ``codec_ack``, ``_error``) always travel as v1
JSON: they are rare, driver-level, and must be readable before any
negotiation has happened.  The byte-level layout of both frame
versions is specified in ``docs/WIRE.md``.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from operator import attrgetter
from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple, Type,
)

from repro.core.protocol import (
    BlockData,
    CancelStart,
    ClientStart,
    ClientStop,
    DescheduleForward,
    Heartbeat,
    HelperCancel,
    HelperFetch,
    HelperFetchReply,
    HelperHit,
    HelperInvalidate,
    HelperMiss,
    HelperProbe,
    PlayEnded,
    ReplicaUpdate,
    RestripeAck,
    RestripeCommit,
    RestripeCopy,
    StartAck,
    StartCommitted,
    StartRequest,
    ViewerStateBatch,
)
from repro.core.viewerstate import (
    DescheduleRequest,
    MirrorViewerState,
    ViewerState,
)
from repro.net.message import KIND_CONTROL, KIND_DATA, Message

#: Frame format version of JSON frames.  A JSON frame carrying any
#: other version is rejected.
WIRE_VERSION = 1

#: Frame format version of binary frames (the ``version`` byte that
#: follows the magic byte in every v2 body).
WIRE_VERSION_BINARY = 2

#: First byte of every binary frame body.  JSON bodies start with
#: ``{`` (0x7B), so the two codecs are self-describing on one stream.
BINARY_MAGIC = 0xB2

#: Codec names used in negotiation and in ``live.wire_*`` labels.
CODEC_JSON = "json"
CODEC_BINARY = "binary"

#: Codecs this build speaks, in preference order (most preferred
#: first).  ``hello`` advertises exactly this tuple.
SUPPORTED_CODECS: Tuple[str, ...] = (CODEC_BINARY, CODEC_JSON)

#: Upper bound on one frame's body size.  Control records are a few
#: hundred bytes; even a maximal viewer-state batch is far below this.
#: Anything larger is a corrupt length prefix, not a real frame.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

#: JSON key carrying a payload object's type tag.
_TYPE_KEY = "_t"

# Binary frame types (the byte after the version byte).
_FT_MESSAGE = 0x01

# Binary value type codes (see docs/WIRE.md).
_B_NONE = 0x00
_B_TRUE = 0x01
_B_FALSE = 0x02
_B_INT = 0x03
_B_FLOAT = 0x04
_B_STR = 0x05
_B_SEQ = 0x06
_B_OBJ = 0x07
#: Unsigned 64-bit escape hatch: content fingerprints are full-width
#: u64 hashes that overflow the signed ``_B_INT`` range.
_B_U64 = 0x08

#: A v2 frame's fixed head: the length prefix, then magic, version,
#: frame type, msg_id, size_bytes, kind code and ``src``'s length.
_ENVELOPE = struct.Struct(">IBBBQIBI")
#: The same head field by field, for naming what a refused one got wrong.
_BIN_HEAD = struct.Struct(">BBB")     # magic, version, frame type
_BIN_MSG = struct.Struct(">QIB")      # msg_id, size_bytes, kind code
_U32 = struct.Struct(">I")
# A value's type code and its fixed-width part, coded as one.
_TAGGED_I64 = struct.Struct(">Bq")
_TAGGED_U64 = struct.Struct(">BQ")
_TAGGED_F64 = struct.Struct(">Bd")
_TAGGED_U32 = struct.Struct(">BI")    # str byte length / seq count
_TAGGED_ID = struct.Struct(">BB")     # obj registry id
#: Bytes of a tagged i64/u64/f64 value, and of a tagged str length or
#: seq count (the decoder steps by these in its per-value loop).
_TAGGED_WORD = _TAGGED_I64.size
_TAGGED_COUNT = _TAGGED_U32.size
#: The value of each one-byte code: none, true, false.
_CONSTANT_OF_CODE = (None, True, False)
_I64_MIN, _I64_MAX, _U64_MAX = -(1 << 63), (1 << 63) - 1, (1 << 64) - 1

_KIND_TO_CODE = {KIND_CONTROL: 0, KIND_DATA: 1}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}


class WireError(ValueError):
    """Raised for malformed, truncated, oversized, or unknown frames."""

    #: ``src`` / ``msg_id`` of the offending binary frame when its
    #: envelope parsed and its payload did not — who to blame when the
    #: frame was forwarded here unopened.
    src: Optional[str] = None
    msg_id: Optional[int] = None


# ----------------------------------------------------------------------
# Payload codec registry
# ----------------------------------------------------------------------
_TAG_TO_TYPE: Dict[str, Type[Any]] = {}
_TYPE_TO_TAG: Dict[Type[Any], str] = {}
#: Stable numeric ids for the binary codec, assigned in registration
#: order starting at 1 (0 is reserved/invalid).
_TAG_TO_ID: Dict[str, int] = {}
#: Field names per registered class, in declaration order — JSON names
#: every field; binary writes the values positionally, no names.
_TYPE_FIELDS: Dict[Type[Any], Tuple[str, ...]] = {}
#: The same names as a set, for the JSON decoder's unknown-field check.
_TYPE_FIELD_SET: Dict[Type[Any], FrozenSet[str]] = {}
#: The binary encoder's view of a registered class: its numeric id and
#: one call returning every field value, in declaration order.
_RECORD_OF_TYPE: Dict[Type[Any], Tuple[int, Callable[[Any], Tuple[Any, ...]]]] = {}
#: The binary decoder's: numeric id -> (class, field count).
_RECORD_OF_ID: Dict[int, Tuple[Type[Any], int]] = {}


def register_payload(tag: str, cls: Type[Any]) -> None:
    """Register a payload dataclass under a stable wire tag.

    The registration *order* is part of the wire contract: the binary
    codec identifies payload types by their 1-based registration index
    (see ``docs/WIRE.md``), so new types must be appended, never
    inserted.

    :param tag: Short, stable identifier written into v1 frames.
    :param cls: A dataclass whose fields are JSON primitives, tuples
        thereof, or other registered payload types.
    """
    if not dataclasses.is_dataclass(cls):
        raise WireError(f"payload type {cls!r} is not a dataclass")
    if tag in _TAG_TO_TYPE and _TAG_TO_TYPE[tag] is not cls:
        raise WireError(f"wire tag {tag!r} already registered")
    if tag in _TAG_TO_TYPE:
        return
    numeric_id = len(_TAG_TO_TYPE) + 1
    if numeric_id > 0xFF:
        raise WireError("payload registry full (255 types)")
    _TAG_TO_TYPE[tag] = cls
    _TYPE_TO_TAG[cls] = tag
    _TAG_TO_ID[tag] = numeric_id
    _TYPE_FIELDS[cls] = tuple(
        field.name for field in dataclasses.fields(cls)
    )
    _TYPE_FIELD_SET[cls] = frozenset(_TYPE_FIELDS[cls])
    _RECORD_OF_TYPE[cls] = (numeric_id, _field_getter(_TYPE_FIELDS[cls]))
    _RECORD_OF_ID[numeric_id] = (cls, len(_TYPE_FIELDS[cls]))


def _field_getter(names: Tuple[str, ...]) -> Callable[[Any], Tuple[Any, ...]]:
    """One call returning a record's ``names`` values as a tuple."""
    if len(names) > 1:
        return attrgetter(*names)
    # attrgetter of one name returns the bare value, not a 1-tuple.

    def fields(record: Any) -> Tuple[Any, ...]:
        return tuple(getattr(record, name) for name in names)

    return fields


def registered_payload_types() -> Dict[str, Type[Any]]:
    """A copy of the tag -> payload-type registry (tests, docs)."""
    return dict(_TAG_TO_TYPE)


def payload_registry() -> List[Tuple[int, str, Type[Any]]]:
    """The full registry as ``(numeric id, tag, class)`` rows, by id."""
    return sorted(
        (_TAG_TO_ID[tag], tag, cls) for tag, cls in _TAG_TO_TYPE.items()
    )


for _tag, _cls in (
    ("vstate", ViewerState),
    ("mirror_vstate", MirrorViewerState),
    ("deschedule_req", DescheduleRequest),
    ("vstate_batch", ViewerStateBatch),
    ("start_req", StartRequest),
    ("cancel_start", CancelStart),
    ("start_committed", StartCommitted),
    ("play_ended", PlayEnded),
    ("deschedule_fwd", DescheduleForward),
    ("heartbeat", Heartbeat),
    ("block_data", BlockData),
    ("client_start", ClientStart),
    ("client_stop", ClientStop),
    ("start_ack", StartAck),
    ("replica_update", ReplicaUpdate),
    # Helper/cache edge tier (appended — ids are positional).
    ("helper_probe", HelperProbe),
    ("helper_hit", HelperHit),
    ("helper_miss", HelperMiss),
    ("helper_fetch", HelperFetch),
    ("helper_fetch_reply", HelperFetchReply),
    ("helper_invalidate", HelperInvalidate),
    ("helper_cancel", HelperCancel),
    # Online restriping (appended — ids are positional).
    ("restripe_copy", RestripeCopy),
    ("restripe_ack", RestripeAck),
    ("restripe_commit", RestripeCommit),
):
    register_payload(_tag, _cls)


def encode_payload(obj: Any) -> Any:
    """Encode a payload object (or primitive) to a JSON-ready value."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        return [encode_payload(item) for item in obj]
    tag = _TYPE_TO_TAG.get(type(obj))
    if tag is None:
        raise WireError(
            f"payload type {type(obj).__name__} is not wire-registered"
        )
    encoded: Dict[str, Any] = {_TYPE_KEY: tag}
    for name in _TYPE_FIELDS[type(obj)]:
        encoded[name] = encode_payload(getattr(obj, name))
    return encoded


def decode_payload(value: Any) -> Any:
    """Inverse of :func:`encode_payload`.

    JSON arrays decode to tuples (the payload dataclasses are frozen
    and declare tuple fields).  Unknown tags raise :class:`WireError`.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return tuple(decode_payload(item) for item in value)
    if isinstance(value, dict):
        tag = value.get(_TYPE_KEY)
        cls = _TAG_TO_TYPE.get(tag)
        if cls is None:
            raise WireError(f"unknown payload tag {tag!r}")
        field_names = _TYPE_FIELD_SET[cls]
        kwargs = {}
        for key, item in value.items():
            if key == _TYPE_KEY:
                continue
            if key not in field_names:
                raise WireError(f"payload {tag!r} has no field {key!r}")
            kwargs[key] = decode_payload(item)
        try:
            return cls(**kwargs)
        except TypeError as error:
            raise WireError(f"bad {tag!r} payload: {error}") from error
    raise WireError(f"undecodable wire value of type {type(value).__name__}")


# ----------------------------------------------------------------------
# Codec negotiation
# ----------------------------------------------------------------------
def choose_codec(offered: Sequence[str], preferred: str) -> str:
    """Pick a connection's codec from what the peer offered.

    The hub calls this with the peer's ``hello`` advertisement and the
    scenario's requested codec.  The requested codec wins when the peer
    speaks it; otherwise the best mutually supported codec (in
    :data:`SUPPORTED_CODECS` preference order); otherwise JSON, which
    every build speaks — a v1 peer that advertised nothing at all
    simply stays on JSON.
    """
    usable = [codec for codec in offered if codec in SUPPORTED_CODECS]
    if preferred in usable:
        return preferred
    for codec in SUPPORTED_CODECS:
        if codec in usable:
            return codec
    return CODEC_JSON


# ----------------------------------------------------------------------
# Per-codec accounting
# ----------------------------------------------------------------------
class WireStats:
    """Frames/bytes per codec and direction, backed by obs counters.

    One instance per endpoint (a node process, or the driver's hub).
    ``direction`` is from the owning endpoint's point of view: ``tx``
    counts frames this endpoint put on a socket (encoded — or, at the
    hub, forwarded as received), ``rx`` counts frames its decoder
    parsed.  Frame length includes the 4-byte length prefix.
    """

    __slots__ = ("_tx", "_rx")

    def __init__(self, registry: Any, **labels: Any) -> None:
        def pair(codec: str, direction: str):
            frames = registry.counter(
                "live.wire_frames",
                help="Wire frames encoded (tx) / decoded (rx) per codec",
                unit="frames", codec=codec, direction=direction, **labels,
            )
            bytes_ = registry.counter(
                "live.wire_bytes",
                help="Wire bytes encoded (tx) / decoded (rx) per codec, "
                     "including the 4-byte length prefix",
                unit="bytes", codec=codec, direction=direction, **labels,
            )
            return frames, bytes_

        self._tx = {codec: pair(codec, "tx") for codec in SUPPORTED_CODECS}
        self._rx = {codec: pair(codec, "rx") for codec in SUPPORTED_CODECS}

    def on_encoded(self, codec: str, nbytes: int, count: int = 1) -> None:
        """``count`` frames of ``nbytes`` in all — the hub counts a
        forwarded run at once."""
        frames, bytes_ = self._tx[codec]
        frames.increment(count)
        bytes_.increment(nbytes)

    def on_decoded(self, codec: str, nbytes: int, count: int = 1) -> None:
        """``count`` frames of ``nbytes`` in all — a decoder counts each
        read's frames at once."""
        frames, bytes_ = self._rx[codec]
        frames.increment(count)
        bytes_.increment(nbytes)


# ----------------------------------------------------------------------
# Frames: v1 (JSON)
# ----------------------------------------------------------------------
def _encode_frame(body: Dict[str, Any]) -> bytes:
    data = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {len(data)} bytes exceeds maximum")
    return _LENGTH.pack(len(data)) + data


def message_frame(message: Message) -> bytes:
    """Serialize one :class:`~repro.net.message.Message` as a v1 frame."""
    return _encode_frame(
        {
            "v": WIRE_VERSION,
            "src": message.src,
            "dst": message.dst,
            "kind": message.kind,
            "size": message.size_bytes,
            "id": message.msg_id,
            "p": encode_payload(message.payload),
        }
    )


def control_frame(kind: str, **fields: Any) -> bytes:
    """Serialize a hub/node control record (hello, start, metrics...).

    Control frames share the stream with message frames but never reach
    protocol code; they drive join/handshake, codec negotiation, clock
    distribution, metrics streaming, error reporting, and shutdown.
    They are always v1 JSON regardless of the negotiated data codec.
    """
    body: Dict[str, Any] = {"v": WIRE_VERSION, "ctl": kind}
    body.update(fields)
    return _encode_frame(body)


def parse_frame(body: Dict[str, Any]) -> Tuple[str, Any]:
    """Classify one decoded JSON frame body.

    :returns: ``("ctl", body)`` for control frames, or
        ``("msg", Message)`` for protocol messages.
    :raises WireError: on version mismatch or missing envelope fields.
    """
    if not isinstance(body, dict):
        raise WireError("frame body is not an object")
    version = body.get("v")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} (speaking {WIRE_VERSION})"
        )
    if "ctl" in body:
        return ("ctl", body)
    try:
        message = Message(
            src=body["src"],
            dst=body["dst"],
            payload=decode_payload(body["p"]),
            size_bytes=body["size"],
            kind=body["kind"],
            msg_id=body["id"],
        )
    except KeyError as error:
        raise WireError(f"frame missing envelope field {error}") from error
    except ValueError as error:
        raise WireError(f"bad message envelope: {error}") from error
    return ("msg", message)


# ----------------------------------------------------------------------
# Frames: v2 (binary)
# ----------------------------------------------------------------------
def _plain_value(value: Any) -> Any:
    """The built-in value an instance of a subclass codes as — an
    ``IntEnum`` member as its int, a ``NamedTuple`` as a tuple.

    :raises WireError: for anything that is not a wire type at all.
    """
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (tuple, list)):
        return tuple(value)
    raise WireError(f"payload type {type(value).__name__} is not wire-registered")


def binary_message_frame(message: Message) -> bytes:
    """Serialize one message as a v2 (binary) frame.

    One pass: the fixed envelope is one pack, and the payload is coded
    by one loop over a stack of iterators — each scalar inline, checked
    by exact type, and each sequence or record pushed as its items or
    its fields — so no value costs a Python call.
    """
    kind_code = _KIND_TO_CODE.get(message.kind)
    if kind_code is None:
        raise WireError(f"unknown message kind {message.kind!r}")
    try:
        src = message.src.encode("utf-8")
        dst = message.dst.encode("utf-8")
        out = bytearray(_ENVELOPE.pack(
            0, BINARY_MAGIC, WIRE_VERSION_BINARY, _FT_MESSAGE,
            message.msg_id, message.size_bytes, kind_code, len(src),
        ))
        out += src
        out += _U32.pack(len(dst))
        out += dst
        stack: List[Iterator[Any]] = []
        values: Iterator[Any] = iter((message.payload,))
        while True:
            for value in values:
                cls = type(value)
                if cls is int:
                    if _I64_MIN <= value <= _I64_MAX:
                        out += _TAGGED_I64.pack(_B_INT, value)
                    elif 0 < value <= _U64_MAX:
                        # Full-width unsigned values (content fingerprints).
                        out += _TAGGED_U64.pack(_B_U64, value)
                    else:
                        raise WireError(f"int {value} out of binary range")
                elif cls is str:
                    data = value.encode("utf-8")
                    if len(data) > 0xFFFFFFFF:
                        raise WireError("string too long for binary frame")
                    out += _TAGGED_U32.pack(_B_STR, len(data))
                    out += data
                elif value is None:
                    out.append(_B_NONE)
                elif cls is float:
                    out += _TAGGED_F64.pack(_B_FLOAT, value)
                elif cls is bool:
                    out.append(_B_TRUE if value else _B_FALSE)
                elif cls is tuple or cls is list:
                    out += _TAGGED_U32.pack(_B_SEQ, len(value))
                    stack.append(values)
                    values = iter(value)
                    break
                else:
                    record = _RECORD_OF_TYPE.get(cls)
                    stack.append(values)
                    if record is None:
                        values = iter((_plain_value(value),))
                    else:
                        numeric_id, fields = record
                        out += _TAGGED_ID.pack(_B_OBJ, numeric_id)
                        values = iter(fields(value))
                    break
            else:  # ``values`` is exhausted: resume the one it was nested in
                if not stack:
                    break
                values = stack.pop()
    except UnicodeEncodeError as error:
        raise WireError(f"string not encodable in binary frame: {error}") from error
    except struct.error as error:
        raise WireError(f"envelope field out of binary range: {error}") from error
    length = len(out) - _LENGTH.size
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {length} bytes exceeds maximum")
    _LENGTH.pack_into(out, 0, length)
    return bytes(out)


def _read_binary_envelope(frame: bytes) -> Tuple[str, str, int, int, str, int]:
    """Validate a v2 frame's envelope, leaving its payload unread.

    :param frame: The whole frame, length prefix included.
    :returns: ``(src, dst, msg_id, size_bytes, kind, payload offset)``.
    :raises WireError: for everything an envelope can get wrong,
        including a payload of zero bytes.
    """
    try:
        (_, magic, version, frame_type, msg_id, size_bytes, kind_code,
         src_length) = _ENVELOPE.unpack_from(frame)
        src_end = _ENVELOPE.size + src_length
        (dst_length,) = _U32.unpack_from(frame, src_end)
        payload_at = src_end + _U32.size + dst_length
        kind = _CODE_TO_KIND.get(kind_code)
        if (
            magic == BINARY_MAGIC and version == WIRE_VERSION_BINARY
            and frame_type == _FT_MESSAGE and kind is not None
            and size_bytes and payload_at < len(frame)
        ):
            return (
                frame[_ENVELOPE.size:src_end].decode("utf-8"),
                frame[src_end + _U32.size:payload_at].decode("utf-8"),
                msg_id, size_bytes, kind, payload_at,
            )
    except (struct.error, UnicodeDecodeError):
        pass
    raise _envelope_error(frame)


def _envelope_error(frame: bytes) -> WireError:
    """What is wrong with an envelope :func:`_read_binary_envelope`
    refused: its fields checked one at a time, in wire order."""
    offset = _LENGTH.size
    try:
        magic, version, frame_type = _BIN_HEAD.unpack_from(frame, offset)
    except struct.error as error:
        return WireError(f"binary frame too short: {error}")
    if magic != BINARY_MAGIC:
        return WireError(f"bad binary magic {magic:#04x}")
    if version != WIRE_VERSION_BINARY:
        return WireError(
            f"unsupported wire version {version!r} "
            f"(speaking {WIRE_VERSION_BINARY})"
        )
    if frame_type != _FT_MESSAGE:
        return WireError(f"unknown binary frame type {frame_type:#04x}")
    offset += _BIN_HEAD.size
    try:
        _, size_bytes, kind_code = _BIN_MSG.unpack_from(frame, offset)
    except struct.error as error:
        return WireError(f"truncated binary envelope: {error}")
    offset += _BIN_MSG.size
    if kind_code not in _CODE_TO_KIND:
        return WireError(f"unknown message kind code {kind_code}")
    if size_bytes <= 0:
        # Message.__post_init__'s check, made where no Message is built.
        return WireError("bad message envelope: messages must have positive size")
    for _ in ("src", "dst"):
        try:
            (length,) = _U32.unpack_from(frame, offset)
        except struct.error as error:
            return WireError(f"truncated binary string: {error}")
        offset += _U32.size
        end = offset + length
        if end > len(frame):
            return WireError("truncated binary string body")
        try:
            frame[offset:end].decode("utf-8")
        except UnicodeDecodeError as error:
            return WireError(f"bad utf-8 in binary frame: {error}")
        offset = end
    return WireError("truncated binary value")


def _binary_message(
    frame: bytes, src: str, dst: str, msg_id: int, size_bytes: int,
    kind: str, offset: int,
) -> Message:
    """Decode the payload at ``offset`` of a frame whose envelope
    :func:`_read_binary_envelope` already validated.

    One loop reads every value: scalars inline, while a sequence or a
    record opens a container on an explicit stack, built into a tuple
    or the record once its count of values is in.  A value cut short
    surfaces as ``IndexError`` or ``struct.error``, and becomes one
    :class:`WireError` for the whole frame.
    """
    end = len(frame)
    stack: List[Tuple[List[Any], int, Optional[Type[Any]]]] = []
    # The open container: values so far, values still to read, and the
    # record class to build (None: a sequence, or the payload itself).
    values: List[Any] = []
    remaining = 1
    record: Optional[Type[Any]] = None
    try:
        try:
            while True:
                while remaining:
                    remaining -= 1
                    code = frame[offset]
                    if code == _B_INT:
                        values.append(_TAGGED_I64.unpack_from(frame, offset)[1])
                        offset += _TAGGED_WORD
                    elif code == _B_STR:
                        _, length = _TAGGED_U32.unpack_from(frame, offset)
                        start = offset + _TAGGED_COUNT
                        offset = start + length
                        if offset > end:
                            raise WireError("truncated binary string body")
                        values.append(frame[start:offset].decode("utf-8"))
                    elif code == _B_OBJ:
                        numeric_id = frame[offset + 1]
                        offset += 2
                        shape = _RECORD_OF_ID.get(numeric_id)
                        if shape is None:
                            raise WireError(
                                f"unknown binary payload id {numeric_id}"
                            )
                        stack.append((values, remaining, record))
                        values = []
                        record, remaining = shape
                    elif code < _B_INT:  # none, true, false
                        values.append(_CONSTANT_OF_CODE[code])
                        offset += 1
                    elif code == _B_FLOAT:
                        values.append(_TAGGED_F64.unpack_from(frame, offset)[1])
                        offset += _TAGGED_WORD
                    elif code == _B_U64:
                        values.append(_TAGGED_U64.unpack_from(frame, offset)[1])
                        offset += _TAGGED_WORD
                    elif code == _B_SEQ:
                        _, count = _TAGGED_U32.unpack_from(frame, offset)
                        offset += _TAGGED_COUNT
                        if count > end:  # cheap sanity bound: >= 1 byte/item
                            raise WireError(
                                f"binary sequence count {count} too large"
                            )
                        stack.append((values, remaining, record))
                        values, remaining, record = [], count, None
                    else:
                        raise WireError(
                            f"unknown binary value type code {code:#04x}"
                        )
                if not stack:
                    break
                if record is None:
                    value = tuple(values)
                else:
                    try:
                        value = record(*values)
                    except (TypeError, ValueError) as error:
                        raise WireError(
                            f"bad {record.__name__} payload: {error}"
                        ) from error
                values, remaining, record = stack.pop()
                values.append(value)
        except IndexError as error:
            raise WireError("truncated binary value") from error
        except struct.error as error:
            raise WireError(f"truncated binary value: {error}") from error
        except UnicodeDecodeError as error:
            raise WireError(f"bad utf-8 in binary frame: {error}") from error
        if offset != end:
            raise WireError(
                f"{end - offset} trailing byte(s) after binary payload"
            )
    except WireError as error:
        error.src, error.msg_id = src, msg_id
        raise
    return Message(src, dst, values[0], size_bytes, kind, msg_id)


class RawFrame(NamedTuple):
    """A v2 message frame with a validated envelope and an unread payload.

    What :class:`EnvelopeDecoder` yields (frame kind ``"raw"``): ``dst``
    to route on, ``frame`` — the sender's bytes, length prefix included
    — to forward untouched, and the rest of the envelope so that
    :meth:`message` can decode the payload from those same bytes.
    """

    src: str
    dst: str
    msg_id: int
    size_bytes: int
    kind: str
    payload_at: int
    frame: bytes

    def message(self) -> Message:
        """Decode the payload — the one validation it ever gets.

        :raises WireError: on a corrupt payload.
        """
        return _binary_message(self.frame, *self[:6])


def encode_message(
    message: Message, codec: str = CODEC_JSON,
    stats: Optional[WireStats] = None,
) -> bytes:
    """Serialize a message with the given codec, counting into stats."""
    if codec == CODEC_BINARY:
        frame = binary_message_frame(message)
    elif codec == CODEC_JSON:
        frame = message_frame(message)
    else:
        raise WireError(f"unknown codec {codec!r}")
    if stats is not None:
        stats.on_encoded(codec, len(frame))
    return frame


def _parse_json_body(frame: bytes) -> Tuple[str, Any]:
    try:
        body = json.loads(frame[_LENGTH.size:])
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable frame body: {error}") from error
    return parse_frame(body)


class FrameDecoder:
    """Incremental frame reader tolerating arbitrary chunk boundaries.

    Feed raw TCP bytes in; complete frames come out of
    :meth:`feed_parsed` as ``("ctl", body)`` / ``("msg", Message)``
    tuples, JSON *and* binary.  The decoder validates the length prefix
    before buffering a body, so a corrupt or hostile peer cannot make
    it allocate unboundedly.
    """

    def __init__(self, stats: Optional[WireStats] = None) -> None:
        self._buffer = bytearray()
        self._stats = stats

    def _parse_binary(self, frame: bytes) -> Tuple[str, Any]:
        """Parse one complete v2 frame (length prefix included)."""
        return ("msg", _binary_message(frame, *_read_binary_envelope(frame)))

    def feed_parsed(self, data: bytes) -> List[Tuple[str, Any]]:
        """Add bytes; return every parsed frame completed by them.

        Handles both codecs per frame (the first body byte
        discriminates).  Once a frame is complete, the buffer is copied
        out once for the whole read, and each frame is a ``bytes`` slice
        of that copy — what a binary frame is decoded from and, at the
        hub, forwarded as.  Frames and bytes parsed are counted into the
        stats once per call and codec.

        :raises WireError: on any malformed frame; frames parsed
            before the error are lost to the caller, which treats a
            wire error as fatal for the connection anyway.
        """
        buffer = self._buffer
        buffer.extend(data)
        frames: List[Tuple[str, Any]] = []
        total = len(buffer)
        consumed = 0
        received = b""
        binary_frames = binary_bytes = 0
        try:
            while total - consumed >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer, consumed)
                if length > MAX_FRAME_BYTES:
                    raise WireError(
                        f"frame length {length} exceeds maximum "
                        f"{MAX_FRAME_BYTES} (corrupt stream?)"
                    )
                end = consumed + _LENGTH.size + length
                if total < end:
                    break
                if not received:
                    received = bytes(buffer)
                frame = received[consumed:end]
                if length and frame[_LENGTH.size] == BINARY_MAGIC:
                    frames.append(self._parse_binary(frame))
                    binary_frames += 1
                    binary_bytes += end - consumed
                else:
                    frames.append(_parse_json_body(frame))
                consumed = end
        finally:
            if consumed:
                del buffer[:consumed]
            stats = self._stats
            if stats is not None:
                if binary_frames:
                    stats.on_decoded(CODEC_BINARY, binary_bytes, binary_frames)
                if len(frames) > binary_frames:
                    stats.on_decoded(
                        CODEC_JSON, consumed - binary_bytes,
                        len(frames) - binary_frames,
                    )
        return frames

    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buffer)

    def assert_drained(self) -> None:
        """Raise if the stream ended mid-frame (truncation check)."""
        if self._buffer:
            raise WireError(
                f"stream truncated with {len(self._buffer)} byte(s) of "
                "partial frame"
            )


class EnvelopeDecoder(FrameDecoder):
    """The hub's reader: the same framing, binary payloads left unread.

    A binary message frame comes out as ``("raw", RawFrame)``, every
    envelope check made and the payload not looked at: whoever consumes
    the payload (the destination node, or the hub itself through
    :meth:`RawFrame.message`) validates it.  Control frames and JSON
    message frames parse in full.
    """

    def _parse_binary(self, frame: bytes) -> Tuple[str, Any]:
        return ("raw", RawFrame(*_read_binary_envelope(frame), frame))


def decode_frames(data: bytes) -> Iterator[Tuple[str, Any]]:
    """Decode a complete byte string into parsed frames (tests, tools).

    Accepts both codecs, interleaved.

    :raises WireError: if the data ends mid-frame or any frame is bad.
    """
    decoder = FrameDecoder()
    frames = decoder.feed_parsed(data)
    decoder.assert_drained()
    yield from frames
