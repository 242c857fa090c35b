"""Socket transports for the live backend.

Both classes satisfy :class:`repro.runtime.Transport`, so protocol
components accept them anywhere they accept the simulated
:class:`~repro.net.switch.SwitchedNetwork`:

* :class:`NodeTransport` — used *inside a node subprocess*: every
  outgoing message is framed and written to the node's single TCP
  connection to the cluster hub, which routes it onward (the hub plays
  the paper's ATM switch: a star where endpoints never talk directly).
* :class:`HubTransport` — used *inside the driver process* by locally
  hosted components (the viewer clients): messages go straight into
  the hub's routing table with no serialization when the destination
  is local, and are framed onto the destination's socket otherwise.

Pacing: the DES models a block transmitted at the stream bitrate by
delivering its last byte one pacing duration after the send starts.
Live, ``send_paced`` delays the frame write by the pacing duration —
same arrival semantics, one timer, no byte-level shaping (the payloads
carry content fingerprints, not megabytes).
"""

from __future__ import annotations

import asyncio
from typing import Any

from typing import Optional

from repro.live.runtime import LiveRuntime
from repro.live.wire import CODEC_JSON, WireStats, encode_message
from repro.net.message import Message


class NodeTransport:
    """A node's message surface: one framed TCP stream to the hub.

    ``codec`` is the *encoding* codec for outgoing message frames; it
    starts as JSON and is switched by the node when the hub's
    ``codec_ack`` lands (see :func:`repro.live.wire.choose_codec`).
    The receive side is codec-agnostic throughout.
    """

    def __init__(
        self,
        runtime: LiveRuntime,
        writer: asyncio.StreamWriter,
        codec: str = CODEC_JSON,
        stats: Optional[WireStats] = None,
    ) -> None:
        self.runtime = runtime
        self._writer = writer
        self.codec = codec
        self.stats = stats
        self.messages_sent = 0
        self.bytes_sent = 0
        self.send_failures = 0

    def set_codec(self, codec: str) -> None:
        """Switch the outgoing message codec (negotiation result)."""
        self.codec = codec

    def _write(self, message: Message) -> bool:
        if self._writer.is_closing():
            self.send_failures += 1
            return False
        frame = encode_message(message, self.codec, self.stats)
        self._writer.write(frame)
        self.messages_sent += 1
        self.bytes_sent += len(frame)
        return True

    def send(self, message: Message) -> bool:
        """Frame and ship a message to the hub for routing."""
        return self._write(message)

    def send_paced(self, message: Message, pacing_duration: float) -> bool:
        """Ship a stream-paced message ``pacing_duration`` late."""
        if not pacing_duration >= 0:  # also rejects NaN
            raise ValueError("negative pacing duration")
        if pacing_duration == 0.0:
            return self._write(message)
        self.runtime.call_after(pacing_duration, self._write, message)
        return True

    def close(self) -> None:
        """Close the underlying stream (node shutdown)."""
        if not self._writer.is_closing():
            self._writer.close()


class HubTransport:
    """Transport for components hosted in the driver process itself.

    ``hub`` is duck-typed: anything with ``route(message) -> bool``
    (see :class:`repro.live.cluster.ClusterHub`).
    """

    def __init__(self, hub: Any, runtime: LiveRuntime) -> None:
        self.hub = hub
        self.runtime = runtime

    def send(self, message: Message) -> bool:
        """Hand the message to the hub's routing table."""
        return self.hub.route(message)

    def send_paced(self, message: Message, pacing_duration: float) -> bool:
        """Route a stream-paced message ``pacing_duration`` late."""
        if not pacing_duration >= 0:  # also rejects NaN
            raise ValueError("negative pacing duration")
        if pacing_duration == 0.0:
            return self.hub.route(message)
        self.runtime.call_after(pacing_duration, self.hub.route, message)
        return True


class NullTransport:
    """A transport that drops everything (tests and dry runs)."""

    def __init__(self) -> None:
        self.dropped = 0

    def send(self, message: Message) -> bool:  # noqa: D102 - protocol impl
        self.dropped += 1
        return False

    def send_paced(self, message: Message, pacing_duration: float) -> bool:  # noqa: D102
        self.dropped += 1
        return False
