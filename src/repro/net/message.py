"""Message types carried by the simulated switched network.

Tiger's wire traffic falls into two classes with very different sizes:

* **control** — viewer states, deschedules, start/stop requests,
  deadman heartbeats, schedule reservations.  The paper sizes the
  cub-to-cub viewer state message at roughly 100 bytes.
* **data** — file blocks sent from cubs to viewers (0.25 MB for the
  paper's single-bitrate configuration).

Both ride the same switched fabric; the distinction matters for the
control-traffic measurements in Figures 8/9 and the scalability
analysis of section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

#: Approximate size of one viewer-state record on the wire (paper §3.3).
VIEWER_STATE_BYTES = 100
#: Size of a deschedule request message.
DESCHEDULE_BYTES = 64
#: Size of a start-play / stop-play request from a client.
REQUEST_BYTES = 128
#: Size of a deadman heartbeat.
HEARTBEAT_BYTES = 32
#: Size of a network-schedule reservation query/confirmation (§4.2).
RESERVATION_BYTES = 80
#: Fixed framing overhead added to batched control messages.
BATCH_HEADER_BYTES = 40

KIND_CONTROL = "control"
KIND_DATA = "data"

#: Bits reserved for the per-runtime sequence counter; the namespace
#: occupies the bits above, so ids from different live nodes can never
#: collide (node 0 keeps plain small integers for readable reprs).
MESSAGE_ID_SEQUENCE_BITS = 48


class MessageIdAllocator:
    """Allocates message ids, namespaced and resettable per runtime.

    The DES historically drew ids from one process-global
    ``itertools.count``, which made ids non-deterministic across
    back-to-back in-process runs (each run started wherever the last one
    left off) and would collide between live nodes, each of which is its
    own process with its own counter.  The allocator fixes both:
    :func:`reset_message_ids` rewinds the sequence at the start of a
    runtime, and a nonzero ``namespace`` (one per live node) is packed
    into the high bits so every id is globally unique across a cluster.
    """

    __slots__ = ("_namespace_base", "_next")

    def __init__(self, namespace: int = 0) -> None:
        self.reset(namespace)

    def reset(self, namespace: int = 0) -> None:
        """Rewind the sequence and (re)bind the namespace."""
        if namespace < 0:
            raise ValueError("message id namespace must be non-negative")
        self._namespace_base = namespace << MESSAGE_ID_SEQUENCE_BITS
        self._next = 0

    def allocate(self) -> int:
        """The next id: ``namespace << 48 | sequence``."""
        value = self._namespace_base + self._next
        self._next += 1
        return value


_allocator = MessageIdAllocator()


def next_message_id() -> int:
    """Allocate a message id from the process-wide allocator."""
    return _allocator.allocate()


def reset_message_ids(namespace: int = 0) -> None:
    """Rewind the process-wide id sequence, optionally namespacing it.

    Runtimes call this at construction: :class:`~repro.core.tiger.
    TigerSystem` resets to namespace 0 so two identical in-process runs
    produce identical ids, and each live node resets to its own nonzero
    namespace so ids never collide across the cluster.
    """
    _allocator.reset(namespace)


@dataclass(slots=True, init=False)
class Message:
    """A unit of traffic between two network addresses.

    ``payload`` is an arbitrary protocol object (e.g. a list of
    :class:`~repro.core.viewerstate.ViewerState`); the network treats it
    opaquely and only uses ``size_bytes`` for timing.

    Every hop of every block builds one, so the ``__init__`` is written
    out: one call sets the fields, draws the default id from the
    process-wide allocator inline and validates, where the generated
    one took three (itself, the id factory and ``__post_init__``).
    """

    src: str
    dst: str
    payload: Any
    size_bytes: int
    kind: str = KIND_CONTROL
    msg_id: int = field(default_factory=_allocator.allocate)

    def __init__(
        self,
        src: str,
        dst: str,
        payload: Any,
        size_bytes: int,
        kind: str = KIND_CONTROL,
        msg_id: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.kind = kind
        if msg_id is None:
            # MessageIdAllocator.allocate, inline.
            msg_id = _allocator._namespace_base + _allocator._next
            _allocator._next += 1
        self.msg_id = msg_id
        if not size_bytes > 0:  # also rejects NaN
            raise ValueError("messages must have positive size")
        if kind not in (KIND_CONTROL, KIND_DATA):
            raise ValueError(f"unknown message kind {kind!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Message #{self.msg_id} {self.src}->{self.dst} "
            f"{self.kind} {self.size_bytes}B>"
        )
