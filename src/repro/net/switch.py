"""The switched network fabric.

Models the paper's assumption (§2.1): a single switch "of sufficient
bandwidth to carry all necessary traffic", so contention happens only
at the endpoints' NICs.  Each registered node gets a NIC; sending a
message serializes it on the sender's NIC, adds propagation latency
(base + jitter), and delivers in order per (src, dst) pair — the FIFO
guarantee Tiger gets from running TCP between cubs (§4.1.3 relies on
it for deschedule-before-insert ordering).

Failure semantics: messages from a failed node are dropped at the
source; messages to a failed node are counted delivered and dropped at
the destination (see :meth:`SwitchedNetwork._deliver`).  Partition sets
allow link-level drops for fault-injection tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.message import KIND_CONTROL, KIND_DATA, Message
from repro.net.nic import Nic
from repro.net.node import NetworkNode
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.stats import RateMeter
from repro.sim.trace import NULL_TRACER, Tracer

#: Minimum spacing enforced between ordered deliveries on one flow.
_FIFO_EPSILON = 1e-9

#: A send or delivery observer: ``hook(message, now)``.
Hook = Callable[[Message, float], None]


class SwitchedNetwork:
    """A star topology: every node's NIC feeds an uncontended switch.

    The ``send`` / ``send_paced`` surface is the
    :class:`repro.runtime.Transport` backend contract; the live
    backend's socket transports (:mod:`repro.live.transport`) implement
    the same contract, so protocol components run on either.
    """

    def __init__(
        self,
        sim: Simulator,
        rngs: RngRegistry,
        base_latency: float = 0.0005,
        latency_jitter: float = 0.0002,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.base_latency = base_latency
        self.latency_jitter = latency_jitter
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rng = rngs.stream("network.latency")
        self._nodes: Dict[str, NetworkNode] = {}
        self._nics: Dict[str, Nic] = {}
        self._last_arrival: Dict[Tuple[str, str], float] = {}
        self._partitioned: Set[Tuple[str, str]] = set()
        self._isolated: Set[str] = set()
        #: Payload type -> observers of its sends and of its deliveries;
        #: a message costs one dict lookup whatever is hooked.
        self._send_hooks: Dict[type, List[Hook]] = {}
        self._delivery_hooks: Dict[type, List[Hook]] = {}
        #: Optional in-fabric fault stage (see repro.faults.injectors):
        #: an object with ``perturb(message, now, arrival) -> [times]``.
        #: Returning no times drops the message; several duplicate it;
        #: shifted times model delay and reordering.
        self.fault_injector = None
        # Traffic accounting, per node and kind — feeds the Fig 8/9
        # "control traffic" series and the §3.3 scalability table.
        self.control_bytes_from: Dict[str, RateMeter] = {}
        self.data_bytes_from: Dict[str, RateMeter] = {}
        #: Send attempts (every ``send``/``send_paced`` call).
        self.messages_sent = 0
        #: Deliveries posted to the simulator.
        self.messages_scheduled = 0
        #: Extra copies enqueued beyond the original (fault injection).
        self.messages_duplicated = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        # Hot-path cache: (node, nic, control meter, data meter) per
        # address, so a send does one dict lookup instead of four.
        self._endpoint: Dict[str, Tuple[NetworkNode, Nic, RateMeter, RateMeter]] = {}
        #: The delivery callback, bound once: every delivery posts this
        #: one object instead of binding a fresh method per message.
        self._deliver = self._deliver

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def register(self, node: NetworkNode, nic_bandwidth_bps: float) -> None:
        """Attach ``node`` with a NIC of the given line rate."""
        if node.address in self._nodes:
            raise ValueError(f"duplicate network address {node.address!r}")
        self._nodes[node.address] = node
        self._nics[node.address] = Nic(nic_bandwidth_bps, self.sim.now)
        self.control_bytes_from[node.address] = RateMeter(self.sim.now)
        self.data_bytes_from[node.address] = RateMeter(self.sim.now)
        self._endpoint[node.address] = (
            node,
            self._nics[node.address],
            self.control_bytes_from[node.address],
            self.data_bytes_from[node.address],
        )

    def node(self, address: str) -> NetworkNode:
        return self._nodes[address]

    def nic(self, address: str) -> Nic:
        return self._nics[address]

    def partition(self, src: str, dst: str) -> None:
        """Drop all future traffic on the directed link ``src -> dst``."""
        self._partitioned.add((src, dst))

    def heal(self, src: str, dst: str) -> None:
        self._partitioned.discard((src, dst))

    def isolate(self, address: str) -> None:
        """Port partition: drop all traffic to *and* from ``address``."""
        self._isolated.add(address)

    def rejoin(self, address: str) -> None:
        self._isolated.discard(address)

    def _link_blocked(self, src: str, dst: str) -> bool:
        return (
            (src, dst) in self._partitioned
            or src in self._isolated
            or dst in self._isolated
        )

    def _schedule_delivery(
        self, message: Message, arrival: float, flow: Optional[Tuple[str, str]]
    ) -> bool:
        """The fault stage: perturb one delivery, then post it.

        Only runs while a ``fault_injector`` is installed; without one,
        ``send`` / ``send_paced`` post the delivery themselves.
        ``arrival`` is already clamped to the flow's FIFO floor.

        The per-flow FIFO floor is maintained here — from the arrival
        times *actually scheduled* — not from the nominal pre-fault
        arrival: an injector-delayed message must still not be overtaken
        by a later send on the same flow (§4.1.3's deschedule-before-
        insert ordering rides on that guarantee).  The one sanctioned
        exception is a deliberate reorder fault, which leaves the floor
        untouched (so later sends *can* overtake it) and is traced
        distinctly as ``net.reorder``.

        ``flow=None`` is the paced-data path: paced streams are
        cell-interleaved on the ATM fabric, so a small transfer (a
        mirror piece) is NOT serialized behind a large in-flight block
        to the same client and no floor applies.
        """
        now = self.sim.now
        arrivals = self.fault_injector.perturb(message, now, arrival)
        if not arrivals:
            self.messages_dropped += 1
            return False
        reordered = getattr(
            self.fault_injector, "last_deliberate_reorder", False
        )
        if len(arrivals) > 1:
            self.messages_duplicated += len(arrivals) - 1
        latest = now
        for when in arrivals:
            if when < now:
                when = now
            self.messages_scheduled += 1
            self.sim.post(when, self._deliver, message)
            if when > latest:
                latest = when
        if flow is not None and not reordered:
            # Floor from the actual (post-perturbation) arrivals, so a
            # delayed or duplicated message keeps its flow in order.
            if latest > self._last_arrival.get(flow, -1.0):
                self._last_arrival[flow] = latest
        elif reordered and self.tracer.enabled:
            self.tracer.emit(
                now,
                "net.reorder",
                f"{message.src}->{message.dst} deliberately reordered",
                kind=message.kind,
                node=message.src,
            )
        return True

    def add_send_hook(self, payload_type: type, hook: Hook) -> None:
        """Observe each :meth:`send` of a ``payload_type`` payload
        (message, send time), before any drop: what a node said, lost or
        not.  Paced data (:meth:`send_paced`) is not observed."""
        self._send_hooks.setdefault(payload_type, []).append(hook)

    def add_delivery_hook(self, payload_type: type, hook: Hook) -> None:
        """Observe each delivery of a ``payload_type`` payload (message,
        arrival time), also to a failed node."""
        self._delivery_hooks.setdefault(payload_type, []).append(hook)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message) -> bool:
        """Inject ``message``; returns False if dropped at the source.

        Delivery time = NIC departure (FIFO serialization at the sender)
        + switch propagation latency + jitter, clamped to preserve
        per-flow FIFO order.

        This is every heartbeat's path (eight per cub-second), so it
        reads each message field once, looks at the partition sets only
        while one is non-empty, and posts the delivery itself unless
        a fault stage is installed.
        """
        src = message.src
        dst = message.dst
        endpoint = self._endpoint.get(src)
        if endpoint is None:
            raise KeyError(f"unknown source address {src!r}")
        if dst not in self._nodes:
            raise KeyError(f"unknown destination address {dst!r}")
        src_node, nic, control_meter, data_meter = endpoint
        self.messages_sent += 1
        for hook in self._send_hooks.get(type(message.payload), ()):
            hook(message, self.sim.now)
        if src_node.failed or (
            (self._partitioned or self._isolated)
            and self._link_blocked(src, dst)
        ):
            self.messages_dropped += 1
            return False

        size = message.size_bytes
        departure = nic.enqueue(self.sim.now, size)
        jitter = self._rng.random() * self.latency_jitter
        arrival = departure + self.base_latency + jitter

        kind = message.kind
        if kind == KIND_CONTROL:
            control_meter.add(size)
        elif kind == KIND_DATA:
            data_meter.add(size)

        flow = (src, dst)
        floor = self._last_arrival.get(flow, -1.0) + _FIFO_EPSILON
        if arrival < floor:
            arrival = floor
        if self.fault_injector is not None:
            return self._schedule_delivery(message, arrival, flow)
        self._last_arrival[flow] = arrival
        self.messages_scheduled += 1
        self.sim.post(arrival, self._deliver, message)
        return True

    def send_paced(self, message: Message, pacing_duration: float) -> bool:
        """Inject a stream-paced data message.

        Tiger transmits a block at the stream's bitrate, so the last
        byte leaves one pacing duration (one block play time for a full
        block) after the send starts; the paper's clients time arrival
        of the last byte.  The sender's NIC is charged its serialization
        share (``size/bandwidth``) for utilization accounting, since
        paced streams interleave on the wire.

        Every block takes this path, so like :meth:`send` it reads each
        message field once and does the NIC accounting in one call.
        """
        if not pacing_duration >= 0:  # also rejects NaN
            raise ValueError("negative pacing duration")
        src = message.src
        dst = message.dst
        endpoint = self._endpoint.get(src)
        if endpoint is None:
            raise KeyError(f"unknown source address {src!r}")
        if dst not in self._nodes:
            raise KeyError(f"unknown destination address {dst!r}")
        src_node, nic, control_meter, data_meter = endpoint
        self.messages_sent += 1
        if src_node.failed or (
            (self._partitioned or self._isolated)
            and self._link_blocked(src, dst)
        ):
            self.messages_dropped += 1
            return False

        now = self.sim.now
        size = message.size_bytes
        nic.pace(now, size)

        jitter = self._rng.random() * self.latency_jitter
        arrival = now + pacing_duration + self.base_latency + jitter

        kind = message.kind
        if kind == KIND_CONTROL:
            control_meter.add(size)
        elif kind == KIND_DATA:
            data_meter.add(size)

        # No flow: paced streams are cell-interleaved on the ATM fabric,
        # so no per-flow FIFO floor applies (see _schedule_delivery).
        if self.fault_injector is not None:
            return self._schedule_delivery(message, arrival, None)
        self.messages_scheduled += 1
        self.sim.post(arrival, self._deliver, message)
        return True

    def _deliver(self, message: Message) -> None:
        """One posted delivery: count it, show it to the tracer and the
        hooks, and hand it to the destination unless that is failed (a
        powered-off machine drops what reaches it; see
        :meth:`NetworkNode.deliver`, the entry the live backend uses)."""
        node = self._nodes[message.dst]
        self.messages_delivered += 1
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now,
                "net.deliver",
                f"{message.src}->{message.dst}",
                kind=message.kind,
                size=message.size_bytes,
                node=message.dst,
            )
        if type(message.payload) in self._delivery_hooks:
            for hook in self._delivery_hooks[type(message.payload)]:
                hook(message, self.sim.now)
        if not node.failed:
            # Looked up per delivery, never bound ahead: a wrapper put on
            # the node's class (a span recorder's) sees every message.
            node.handle_message(message)

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    @property
    def messages_in_flight(self) -> int:
        """Deliveries posted but not yet dispatched.

        The fabric counters reconcile exactly at all times::

            messages_scheduled ==
                messages_sent - messages_dropped + messages_duplicated

        and ``in_flight == scheduled - delivered`` drains to zero once
        the simulator runs past the last arrival.
        """
        return self.messages_scheduled - self.messages_delivered

    def control_rate_from(self, address: str, now: Optional[float] = None) -> float:
        """Control bytes/sec from ``address`` since the last snapshot."""
        return self.control_bytes_from[address].snapshot(
            self.sim.now if now is None else now
        )

    def addresses(self) -> Tuple[str, ...]:
        return tuple(self._nodes)
