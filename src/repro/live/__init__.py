"""The live execution backend: Tiger over real sockets and real clocks.

This package runs the *unmodified* protocol classes — cubs, the
controller, the backup controller, viewer clients — as real OS
processes on localhost (or, in principle, separate machines),
exchanging length-prefixed JSON frames over TCP, with timers on an
asyncio event loop and the wall clock as schedule time.  It is the
second implementation of the backend contract in
:mod:`repro.runtime`; the first is the discrete-event simulator.

Modules
-------
``repro.live.runtime``
    :class:`LiveRuntime` — wall clock + asyncio timers.
``repro.live.wire``
    Versioned frame format and the per-payload-type codec registry.
``repro.live.transport``
    Socket transports satisfying :class:`repro.runtime.Transport`.
``repro.live.node``
    One protocol component as a subprocess (``python -S -m
    repro.live.node --spec FILE``: no site-packages, only the standard
    library and ``repro``).
``repro.live.cluster``
    The cluster driver: spawns nodes, routes frames hub-and-spoke,
    hosts viewer clients, streams metrics, kills cubs on schedule, and
    can replay the identical scenario in the DES (``--compare-sim``).
"""

from repro.live.runtime import LiveRuntime, LiveTimer
from repro.live.wire import (
    WIRE_VERSION,
    WireError,
    decode_payload,
    encode_payload,
    message_frame,
    registered_payload_types,
)

__all__ = [
    "LiveRuntime",
    "LiveTimer",
    "WIRE_VERSION",
    "WireError",
    "decode_payload",
    "encode_payload",
    "message_frame",
    "registered_payload_types",
]
