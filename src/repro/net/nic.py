"""Network interface card model.

Each node owns one NIC.  The NIC serializes outgoing messages at its
line rate: a message occupies the link for ``size / bandwidth`` seconds
and sends queue behind one another (FIFO).  This is what bounds a cub's
streaming capacity when the disks are not the bottleneck, and it is the
resource whose utilization the network schedule (§3.2) manages.
"""

from __future__ import annotations

from repro.sim.stats import BusyMeter


class Nic(BusyMeter):
    """An egress-serialized network interface: a serial resource whose
    busy time is the serialization of what it sends.

    Parameters
    ----------
    bandwidth_bps:
        Line rate in bits per second (the paper's FORE OC-3 adapters
        are ~155 Mbit/s; we default lower-order components elsewhere).
    """

    __slots__ = ("bandwidth_bps", "bytes_sent", "messages_sent")

    def __init__(self, bandwidth_bps: float, start_time: float = 0.0) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        super().__init__(start_time)
        self.bandwidth_bps = float(bandwidth_bps)
        self.bytes_sent = 0
        self.messages_sent = 0

    def enqueue(self, now: float, size_bytes: int) -> float:
        """Account for sending ``size_bytes`` at ``now``.

        Returns the time at which the last byte leaves the NIC (i.e.
        when the message has fully departed).  Messages queue FIFO
        behind any in-flight transmission.

        Every unpaced message (every heartbeat) passes here, so the
        serialization delay, the busy horizon and the byte count are
        worked out inline rather than through method calls.
        """
        delay = size_bytes * 8.0 / self.bandwidth_bps
        start = self._busy_until
        if now > start:
            start = now
        self._busy_until = start + delay
        self._busy_accum += delay
        self.bytes_sent += size_bytes
        self.messages_sent += 1
        return self._busy_until

    def pace(self, now: float, size_bytes: int) -> None:
        """Account for a paced send of ``size_bytes`` at ``now``.

        The NIC is charged the message's serialization share of busy
        time, exactly as :meth:`~repro.sim.stats.BusyMeter.add_busy`
        would, and counts its bytes; the delivery time does not depend
        on it (a paced stream interleaves on the wire).  Every block
        passes here, so that is done inline.
        """
        delay = size_bytes * 8.0 / self.bandwidth_bps
        if not delay >= 0:  # also rejects NaN
            raise ValueError("negative busy duration")
        start = self._busy_until
        if now > start:
            start = now
        self._busy_until = start + delay
        self._busy_accum += delay
        self.bytes_sent += size_bytes
        self.messages_sent += 1

    def queue_delay(self, now: float) -> float:
        """How long a message enqueued now would wait before transmitting."""
        return max(0.0, self._busy_until - now)
