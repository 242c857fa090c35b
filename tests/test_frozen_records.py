"""The frozen-record contract (DESIGN.md §5.1).

``ViewerState``, ``MirrorViewerState``, ``DescheduleRequest`` and
``BlockData`` are built several times per block, so each writes its own
``__init__`` through its slot descriptors instead of taking the
dataclass-generated one.  These tests hold each record to a reference
built the ordinary way from the same fields: construction, freezing,
equality, hashing, ``repr``, ``fields``, ``replace`` and ``pickle`` —
and hold the wire frames of every registered payload to the bytes they
had before.
"""

import copy
import dataclasses
import hashlib
import pickle
import typing

import pytest

from repro.core.protocol import BlockData, block_pattern
from repro.core.viewerstate import (
    DescheduleRequest,
    MirrorViewerState,
    SEQNO_BITS,
    ViewerState,
    key_instance,
)
from repro.live.wire import (
    binary_message_frame,
    decode_frames,
    message_frame,
    payload_registry,
)
from repro.net.message import KIND_CONTROL, KIND_DATA, Message

RECORDS = (ViewerState, MirrorViewerState, DescheduleRequest, BlockData)


def _reference_class(cls):
    """The same fields, defaults and name, with the generated __init__."""
    spec = []
    for field in dataclasses.fields(cls):
        if field.default is dataclasses.MISSING:
            spec.append((field.name, field.type))
        else:
            spec.append(
                (field.name, field.type, dataclasses.field(default=field.default))
            )
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=True, slots=True
    )


_REFERENCES = {cls: _reference_class(cls) for cls in RECORDS}


def _value(hint, n):
    """A deterministic value of type ``hint``, varied by ``n``."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]
        (inner,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return None if n % 3 == 0 else _value(inner, n)
    if origin is tuple:
        return tuple(
            _value(typing.get_args(hint)[0], n + k) for k in range(n % 3)
        )
    if hint is bool:
        return n % 2 == 1
    if hint is int:
        # A full-width fingerprint every fifth value (the u64 wire code).
        return block_pattern(n, n) if n % 5 == 4 else n * 7919 - 3
    if hint is float:
        return n / 3.0 - 1.25  # no short repr, both signs
    if hint is str:
        return f"client:{n % 4}#{n * 3}"
    if dataclasses.is_dataclass(hint):
        return _record(hint, n)
    raise AssertionError(f"no value for type hint {hint!r}")


def _kwargs(cls, n):
    hints = typing.get_type_hints(cls)
    return {
        field.name: _value(hints[field.name], n + index)
        for index, field in enumerate(dataclasses.fields(cls))
    }


def _record(cls, n):
    return cls(**_kwargs(cls, n))


def _field_values(record):
    return tuple(
        getattr(record, field.name) for field in dataclasses.fields(record)
    )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keyword_and_positional_construction_set_every_field(cls):
    for n in range(6):
        kwargs = _kwargs(cls, n)
        by_keyword = cls(**kwargs)
        by_position = cls(*kwargs.values())
        reference = _REFERENCES[cls](**kwargs)
        assert _field_values(by_keyword) == tuple(kwargs.values())
        assert _field_values(by_position) == tuple(kwargs.values())
        assert _field_values(reference) == tuple(kwargs.values())
        assert by_keyword == by_position


def test_block_data_defaults_match_the_declared_ones():
    built = BlockData("client:0#1", 1, 2, 3, 4)
    reference = _REFERENCES[BlockData]("client:0#1", 1, 2, 3, 4)
    assert _field_values(built) == _field_values(reference)
    assert (built.piece, built.total_pieces, built.final, built.pattern) == (
        None, 1, False, 0,
    )
    assert BlockData("v", 1, 2, 3, 4, final=True).final is True


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_refuses_what_the_generated_init_refuses(cls):
    kwargs = _kwargs(cls, 1)
    for bad in (
        lambda: cls(**kwargs, unknown=1),
        lambda: cls(*kwargs.values(), 99, 99, 99, 99, 99),
        lambda: cls(**dict(list(kwargs.items())[1:])),
    ):
        with pytest.raises(TypeError):
            bad()


# ----------------------------------------------------------------------
# Frozen, and everything dataclasses promise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_field_refuses_assignment_and_deletion(cls):
    record = _record(cls, 2)
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field.name)
    assert _field_values(record) == tuple(_kwargs(cls, 2).values())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_eq_hash_repr_and_fields_match_the_generated_ones(cls):
    reference_cls = _REFERENCES[cls]
    assert [
        (field.name, field.type, field.default)
        for field in dataclasses.fields(cls)
    ] == [
        (field.name, field.type, field.default)
        for field in dataclasses.fields(reference_cls)
    ]
    assert cls.__slots__ == reference_cls.__slots__
    assert cls.__match_args__ == reference_cls.__match_args__
    for n in range(6):
        kwargs = _kwargs(cls, n)
        record, reference = cls(**kwargs), reference_cls(**kwargs)
        assert repr(record) == repr(reference)
        assert hash(record) == hash(reference)
        assert record == cls(**kwargs)
        assert not record != cls(**kwargs)
        assert record != reference  # another class, as for any dataclass
        assert dataclasses.astuple(record) == dataclasses.astuple(reference)
        assert dataclasses.asdict(record) == dataclasses.asdict(reference)
        other = cls(**_kwargs(cls, n + 1))
        assert record != other
        assert (record == other) == (reference == reference_cls(**_kwargs(cls, n + 1)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_pickle_and_copy_round_trip(cls):
    reference_cls = _REFERENCES[cls]
    record = _record(cls, 3)
    reference = reference_cls(**_kwargs(cls, 3))
    for field in dataclasses.fields(cls):
        changed = getattr(_record(cls, 4), field.name)
        replaced = dataclasses.replace(record, **{field.name: changed})
        assert type(replaced) is cls
        assert _field_values(replaced) == _field_values(
            dataclasses.replace(reference, **{field.name: changed})
        )
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is cls and restored == record
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(restored, dataclasses.fields(cls)[0].name, None)
    assert copy.copy(record) == record == copy.deepcopy(record)


def test_a_record_method_builds_the_same_record():
    state = ViewerState("client:1#4", 4, 9, 2, 10, 5, 12.5, 3)
    assert state.advanced(2, 8, 1.0) == ViewerState(
        "client:1#4", 4, 9, 2, 12, 7, 14.5, 5
    )
    assert state.key() == 4 << SEQNO_BITS | 3
    assert key_instance(state.key()) == 4


# ----------------------------------------------------------------------
# The wire frames of every registered payload, to the byte
# ----------------------------------------------------------------------
def _frame_mix():
    """Three messages per registered payload type, in registry order."""
    messages = []
    for numeric_id, _tag, cls in payload_registry():
        for copy_index in range(3):
            n = numeric_id * 3 + copy_index
            messages.append(
                Message(
                    f"cub:{n % 7}",
                    "controller" if n % 2 else f"client:{n % 5}",
                    _record(cls, n),
                    1 + n * 997,
                    kind=KIND_DATA if n % 4 == 0 else KIND_CONTROL,
                    msg_id=(n << 40) + n,
                )
            )
    return messages


#: SHA-256 of the JSON frames then the binary frames of
#: :func:`_frame_mix`, as records built by the dataclass-generated
#: ``__init__`` encode: the codec must not tell the two apart.
FRAME_MIX_SHA256 = (
    "3c5f551a17f7a138c91e63e8b76893299356ef7bd476a057d80c4636bcd11f8e"
)


def test_every_registered_payload_frames_to_the_same_bytes():
    messages = _frame_mix()
    assert {type(message.payload) for message in messages} == {
        cls for _id, _tag, cls in payload_registry()
    }
    json_frames = [message_frame(message) for message in messages]
    binary_frames = [binary_message_frame(message) for message in messages]
    digest = hashlib.sha256(b"".join(json_frames + binary_frames)).hexdigest()
    assert digest == FRAME_MIX_SHA256
    # And both decoders build the records back, equal to the originals.
    for frames in (json_frames, binary_frames):
        decoded = [message for _kind, message in decode_frames(b"".join(frames))]
        assert [message.payload for message in decoded] == [
            message.payload for message in messages
        ]
