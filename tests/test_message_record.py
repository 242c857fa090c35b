"""The one-call ``Message`` (DESIGN.md §5.1).

Every hop of every block builds a :class:`~repro.net.message.Message`,
so it writes its own ``__init__``: the fields, the default id drawn
inline from the process-wide allocator, and both validations, in one
call instead of the generated ``__init__``, the id factory and
``__post_init__``.  These tests hold it to a reference built the
ordinary way from the same fields: construction, validation, id
allocation, equality, ``repr``, ``fields``, ``replace``, ``pickle`` and
``copy`` — and hold a corpus of wire frames with default ids to the
bytes it had before.
"""

import copy
import dataclasses
import hashlib
import pickle

import pytest

from repro.live.wire import binary_message_frame, message_frame, payload_registry
from repro.net import message as message_module
from repro.net.message import (
    KIND_CONTROL,
    KIND_DATA,
    MESSAGE_ID_SEQUENCE_BITS,
    Message,
    reset_message_ids,
)
from tests.test_frozen_records import _record


def _check(self):
    if not self.size_bytes > 0:
        raise ValueError("messages must have positive size")
    if self.kind not in (KIND_CONTROL, KIND_DATA):
        raise ValueError(f"unknown message kind {self.kind!r}")


#: The same fields and defaults (the same id factory), with the
#: generated ``__init__`` and the validation as a ``__post_init__``;
#: named for this module, so that pickle can find it.
Reference = dataclasses.make_dataclass(
    "Reference",
    [
        ("src", "str"),
        ("dst", "str"),
        ("payload", "Any"),
        ("size_bytes", "int"),
        ("kind", "str", dataclasses.field(default=KIND_CONTROL)),
        (
            "msg_id",
            "int",
            dataclasses.field(
                default_factory=message_module._allocator.allocate
            ),
        ),
    ],
    slots=True,
    namespace={"__post_init__": _check, "__repr__": Message.__repr__},
)
Reference.__module__ = __name__


@pytest.fixture(autouse=True)
def _rewound_ids():
    """Each test starts the id sequence at 0 and leaves it there."""
    reset_message_ids()
    yield
    reset_message_ids()


def _kwargs(n):
    return {
        "src": f"cub:{n % 7}",
        "dst": "controller" if n % 2 else f"client:{n % 5}",
        "payload": ("state", n) if n % 3 else None,
        "size_bytes": 1 + n * 997,
        "kind": KIND_DATA if n % 4 == 0 else KIND_CONTROL,
        "msg_id": (n << 40) + n,
    }


def _field_values(record):
    return tuple(
        getattr(record, field.name) for field in dataclasses.fields(record)
    )


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------
def test_keyword_and_positional_construction_set_every_field():
    for n in range(6):
        kwargs = _kwargs(n)
        by_keyword = Message(**kwargs)
        by_position = Message(*kwargs.values())
        assert _field_values(by_keyword) == tuple(kwargs.values())
        assert _field_values(by_position) == tuple(kwargs.values())
        assert _field_values(Reference(**kwargs)) == tuple(kwargs.values())
    built = Message("a", "b", None, 10)
    assert (built.kind, built.msg_id) == (KIND_CONTROL, 0)


@pytest.mark.parametrize(
    "bad", [0, -1, -0.5, float("nan")], ids=["zero", "negative", "fraction", "nan"]
)
def test_a_size_that_is_not_positive_is_refused(bad):
    for cls in (Message, Reference):
        with pytest.raises(ValueError, match="positive size"):
            cls("a", "b", None, bad)


def test_an_unknown_kind_is_refused():
    for cls in (Message, Reference):
        with pytest.raises(ValueError, match="unknown message kind 'weird'"):
            cls("a", "b", None, 10, kind="weird")


def test_construction_refuses_what_the_generated_init_refuses():
    for cls in (Message, Reference):
        for bad in (
            lambda: cls("a", "b", None, 10, unknown=1),
            lambda: cls("a", "b", None, 10, KIND_CONTROL, 1, 2),
            lambda: cls("a", "b", None),
        ):
            with pytest.raises(TypeError):
                bad()


# ----------------------------------------------------------------------
# Ids
# ----------------------------------------------------------------------
def test_default_ids_follow_one_sequence_with_the_generated_init():
    """Both draw from the one allocator, in order — a refused message
    included: the generated ``__init__`` drew its id before it
    validated, and so does the written one."""
    ids = []
    for n in range(8):
        cls = Message if n % 2 else Reference
        ids.append(cls("a", "b", None, 10).msg_id)
        with pytest.raises(ValueError):
            cls("a", "b", None, 0)
    assert ids == list(range(0, 16, 2))
    assert Message("a", "b", None, 10).msg_id == 16


def test_an_explicit_id_is_kept_and_draws_nothing():
    assert Message("a", "b", None, 10, msg_id=0).msg_id == 0
    assert Message("a", "b", None, 10, msg_id=12345).msg_id == 12345
    assert Message("a", "b", None, 10).msg_id == 0


def test_a_namespace_packs_into_the_high_bits():
    reset_message_ids(3)
    base = 3 << MESSAGE_ID_SEQUENCE_BITS
    assert [Message("a", "b", None, 10).msg_id for _ in range(3)] == [
        base, base + 1, base + 2,
    ]
    assert Reference("a", "b", None, 10).msg_id == base + 3


# ----------------------------------------------------------------------
# Everything dataclasses promise
# ----------------------------------------------------------------------
def test_eq_repr_and_fields_match_the_generated_ones():
    assert [
        (field.name, field.type, field.default, field.default_factory)
        for field in dataclasses.fields(Message)
    ] == [
        (field.name, field.type, field.default, field.default_factory)
        for field in dataclasses.fields(Reference)
    ]
    assert Message.__slots__ == Reference.__slots__
    assert Message.__match_args__ == Reference.__match_args__
    for n in range(6):
        kwargs = _kwargs(n)
        record, reference = Message(**kwargs), Reference(**kwargs)
        assert repr(record) == repr(reference)
        assert record == Message(**kwargs)
        assert not record != Message(**kwargs)
        assert record != reference  # another class, as for any dataclass
        assert dataclasses.astuple(record) == dataclasses.astuple(reference)
        assert dataclasses.asdict(record) == dataclasses.asdict(reference)
        assert record != Message(**_kwargs(n + 1))
    for cls in (Message, Reference):  # mutable with eq: unhashable
        with pytest.raises(TypeError):
            hash(cls(**_kwargs(1)))


def test_fields_stay_assignable():
    record = Message(**_kwargs(2))
    record.dst = "cub:3"
    assert record.dst == "cub:3"
    with pytest.raises(AttributeError):
        record.extra = 1  # slotted


def test_replace_pickle_and_copy_round_trip():
    record, reference = Message(**_kwargs(3)), Reference(**_kwargs(3))
    for field in dataclasses.fields(Message):
        changed = _kwargs(4)[field.name]
        replaced = dataclasses.replace(record, **{field.name: changed})
        assert type(replaced) is Message
        assert _field_values(replaced) == _field_values(
            dataclasses.replace(reference, **{field.name: changed})
        )
    before = Message("a", "b", None, 10).msg_id
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        try:
            pickle.dumps(reference, protocol)
        except TypeError:
            # A slotted, unfrozen dataclass may get no __getstate__, and
            # the protocols before 2 refuse it: the reference as much.
            assert protocol < 2
            with pytest.raises(TypeError):
                pickle.dumps(record, protocol)
            continue
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is Message and restored == record
    assert copy.copy(record) == record == copy.deepcopy(record)
    # None of those drew an id.
    assert Message("a", "b", None, 10).msg_id == before + 1


# ----------------------------------------------------------------------
# Wire frames of messages with default ids, to the byte
# ----------------------------------------------------------------------
def _default_id_corpus():
    """Two messages per registered payload type, ids and (mostly) kind
    left to their defaults."""
    messages = []
    for numeric_id, _tag, cls in payload_registry():
        for copy_index in range(2):
            n = numeric_id * 2 + copy_index
            args = (f"cub:{n % 7}", "controller", _record(cls, n), 64 + n)
            messages.append(
                Message(*args) if n % 3 else Message(*args, KIND_DATA)
            )
    return messages


#: SHA-256 of the JSON then the binary frames of the corpus, ids
#: allocated from namespace 0 and from namespace 5, as messages built
#: by the dataclass-generated ``__init__`` encode.
DEFAULT_ID_FRAMES_SHA256 = {
    0: "4fa0b6ccf8d2bee355ed7b66855fb1439b3a0c533e413774d0a36af9f2fae35c",
    5: "5fb60edd649a27d647ababa7062939366e2588e41b825a2495d89b266b38dae6",
}


@pytest.mark.parametrize("namespace", sorted(DEFAULT_ID_FRAMES_SHA256))
def test_messages_with_default_ids_frame_to_the_same_bytes(namespace):
    reset_message_ids(namespace)
    messages = _default_id_corpus()
    frames = [message_frame(message) for message in messages] + [
        binary_message_frame(message) for message in messages
    ]
    digest = hashlib.sha256(b"".join(frames)).hexdigest()
    assert digest == DEFAULT_ID_FRAMES_SHA256[namespace]
