"""A simulated disk drive with a FIFO request queue and failure injection."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.disk.model import DiskParameters
from repro.sim.core import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.stats import BusyMeter, Counter
from repro.sim.trace import Tracer

#: Signature of a read-completion callback: receives the completion time.
CompletionCallback = Callable[[float], None]
#: Signature of a read-error callback (disk failed before completion).
ErrorCallback = Callable[[], None]


class SimDisk(Process):
    """One drive: serial arm, FIFO queue, zoned service times, failures.

    The single-bitrate Tiger issues reads in schedule order and the
    schedule already spaces them one block service time apart, so FIFO
    service is faithful to the system being modelled (§3.1).  Reads on
    a failed drive invoke their error callback instead of completing.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: DiskParameters,
        rngs: RngRegistry,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(sim, name, tracer)
        self.params = params
        self._rng = rngs.stream(f"disk.{name}")
        self._free_at = sim.now
        self.busy = BusyMeter(sim.now)
        self.failed = False
        #: Service-time multiplier (fault injection: transient slow
        #: zones, thermal recalibration, vibration).  1.0 = healthy.
        self.slow_factor = 1.0
        #: While stuck, new reads queue without being serviced; they are
        #: issued when the drive unsticks (or errored if it dies first).
        self.stuck = False
        self._stalled: List[tuple] = []
        self.reads_completed = Counter()
        self.bytes_read = Counter()
        self.reads_errored = Counter()

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(
        self,
        size_bytes: int,
        zone: str,
        on_complete: CompletionCallback,
        on_error: Optional[ErrorCallback] = None,
    ) -> None:
        """Queue a contiguous read of ``size_bytes`` from ``zone``.

        ``on_complete(completion_time)`` fires when the data is in the
        buffer; ``on_error()`` fires (at the request time or at failure
        time) if the drive fails first.
        """
        if size_bytes <= 0:
            raise ValueError("read size must be positive")
        if self.failed:
            self.reads_errored.increment()
            if on_error is not None:
                self.sim.call_after(0.0, on_error)
            return
        if self.stuck:
            self._stalled.append((size_bytes, zone, on_complete, on_error))
            return

        service = (
            self.params.sample_read_time(self._rng, zone, size_bytes)
            * self.slow_factor
        )
        start = max(self.sim.now, self._free_at)
        completion = start + service
        self._free_at = completion
        self.busy.add_busy(self.sim.now, service)

        self.sim.call_at(
            completion, self._finish, size_bytes, on_complete, on_error
        )

    def _finish(
        self,
        size_bytes: int,
        on_complete: CompletionCallback,
        on_error: Optional[ErrorCallback],
    ) -> None:
        """A read's service time elapsed; a drive that died meanwhile
        turns the completion into an error."""
        if self.failed:
            self.reads_errored.increment()
            if on_error is not None:
                on_error()
            return
        self.reads_completed.increment()
        self.bytes_read.increment(size_bytes)
        on_complete(self.sim.now)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Fail the drive: in-flight reads error, future reads error."""
        if self.failed:
            return
        self.failed = True
        self.trace("disk.fail", "drive failed")
        # In-flight completions still fire but route to the error path
        # via `_finish` checking `self.failed`.
        stalled, self._stalled = self._stalled, []
        for _size, _zone, _on_complete, on_error in stalled:
            self.reads_errored.increment()
            if on_error is not None:
                self.sim.call_after(0.0, on_error)

    def recover(self) -> None:
        self.failed = False
        self._free_at = self.sim.now
        self.trace("disk.recover", "drive recovered")

    # ------------------------------------------------------------------
    # Degraded-mode injection (chaos harness)
    # ------------------------------------------------------------------
    def set_slow(self, factor: float) -> None:
        """Multiply future read service times (transient slow zone)."""
        if factor <= 0:
            raise ValueError("slow factor must be positive")
        self.slow_factor = float(factor)
        self.trace("disk.slow", f"service multiplier now {factor:g}")

    def set_stuck(self, stuck: bool) -> None:
        """Freeze (or thaw) the request queue: a hung, not dead, drive.

        New reads issued while stuck neither complete nor error; on
        unstick they are issued in arrival order from the current time,
        so their deadlines have typically long passed — exactly the
        late-read pathology the schedule must absorb.
        """
        if stuck == self.stuck:
            return
        self.stuck = stuck
        self.trace("disk.stuck" if stuck else "disk.unstuck",
                   "I/O frozen" if stuck else "I/O resumed")
        if not stuck:
            stalled, self._stalled = self._stalled, []
            for size_bytes, zone, on_complete, on_error in stalled:
                self.read(size_bytes, zone, on_complete, on_error)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def utilization(self, now: Optional[float] = None) -> float:
        """Duty cycle over the current measurement window."""
        return self.busy.utilization(self.sim.now if now is None else now)

    def reset_measurement(self) -> None:
        self.busy.reset(self.sim.now)

    @property
    def queue_backlog(self) -> float:
        """Seconds of queued work ahead of a request issued now."""
        return max(0.0, self._free_at - self.sim.now)
