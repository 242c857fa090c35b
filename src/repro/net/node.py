"""Base class for entities attached to the switched network."""

from __future__ import annotations

from typing import Optional

from repro.net.message import Message
from repro.sim.core import Simulator
from repro.sim.process import Process
from repro.sim.trace import Tracer


class NetworkNode(Process):
    """A process with a network address and a message dispatch entry point.

    Subclasses (cubs, the controller, viewers) implement
    :meth:`handle_message`.  A live node delivers every message through
    :meth:`deliver`, which drops traffic addressed to a failed node —
    modelling a powered-off machine; the simulated fabric makes the same
    check inline in ``SwitchedNetwork._deliver``.
    """

    def __init__(self, sim: Simulator, address: str, tracer: Optional[Tracer] = None) -> None:
        super().__init__(sim, address, tracer)
        self.address = address
        self.failed = False

    def deliver(self, message: Message) -> None:
        """Network-facing entry point; drops messages if failed."""
        if self.failed:
            return
        self.handle_message(message)

    def handle_message(self, message: Message) -> None:
        """Protocol dispatch; subclasses must override."""
        raise NotImplementedError

    def fail(self) -> None:
        """Power the node off: stop timers, drop all future messages."""
        self.failed = True
        self.cancel_timers()

    def recover(self) -> None:
        """Bring the node back (used by repair experiments)."""
        self.failed = False
