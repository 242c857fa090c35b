"""The execution-backend contract: what protocol code may assume.

The Tiger protocol classes (:class:`~repro.core.cub.Cub`,
:class:`~repro.core.controller.Controller`,
:class:`~repro.core.failover.BackupController`,
:class:`~repro.core.client.ViewerClient`) are written against exactly
two capabilities:

* a **runtime** — a clock (``now``) plus cancellable timer scheduling
  (``call_at`` / ``call_after`` returning handles with ``cancel()`` and
  ``active``);
* a **transport** — ``send(message)`` and ``send_paced(message,
  pacing_duration)`` over :class:`~repro.net.message.Message` objects.

This module names that contract as two runtime-checkable protocols.
Two backends satisfy it:

* the discrete-event backend —
  :class:`~repro.sim.core.Simulator` (runtime) plus
  :class:`~repro.net.switch.SwitchedNetwork` (transport), where time is
  simulated and a run is a deterministic function of its seed;
* the live backend — :class:`~repro.live.runtime.LiveRuntime`
  (asyncio event loop over the wall clock) plus the socket transports
  in :mod:`repro.live.transport`, where each component is a real OS
  process and messages are length-prefixed frames over TCP.

Because the protocol classes take the runtime and transport as plain
constructor arguments, they run **unmodified** on either backend; no
protocol file imports asyncio, sockets, or the simulator kernel beyond
these two surfaces.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class TimerHandle(Protocol):
    """A scheduled callback that can be cancelled before it fires."""

    #: Absolute runtime time at which the callback is due.
    time: float

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        ...

    @property
    def active(self) -> bool:
        """True while the callback has not been cancelled."""
        ...


@runtime_checkable
class Runtime(Protocol):
    """Clock plus timer scheduling — the execution half of a backend.

    Satisfied structurally by :class:`~repro.sim.core.Simulator`
    (simulated clock) and :class:`~repro.live.runtime.LiveRuntime`
    (wall clock on asyncio).
    """

    @property
    def now(self) -> float:
        """Current runtime time in seconds.

        The contract promises only that it can be read: ``Simulator``
        keeps it as a plain attribute that its dispatch loop writes,
        ``LiveRuntime`` as a property over the wall clock.  Protocol
        code never writes it.
        """
        ...

    def call_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule ``fn(*args)`` at absolute runtime ``time``."""
        ...

    def call_after(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        ...


@runtime_checkable
class Transport(Protocol):
    """Message send surface — the communication half of a backend.

    Satisfied structurally by :class:`~repro.net.switch.SwitchedNetwork`
    (in-process fabric model) and the live socket transports
    (:class:`~repro.live.transport.NodeTransport`,
    :class:`~repro.live.transport.HubTransport`).
    """

    def send(self, message: Any) -> bool:
        """Inject a control/data message; False if dropped at source."""
        ...

    def send_paced(self, message: Any, pacing_duration: float) -> bool:
        """Inject a stream-paced data message whose last byte arrives
        about ``pacing_duration`` seconds after the send starts."""
        ...
