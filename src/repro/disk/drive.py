"""A simulated disk drive with a FIFO request queue and failure injection."""

from __future__ import annotations

from collections import deque
from math import inf
from operator import attrgetter
from typing import Callable, Deque, List, Optional, Tuple

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


class Read:
    """One read handed to a :class:`SimDisk`: a completion *time*.

    ``done_at`` is when the read's service time ends — known the moment
    the drive starts it, ``inf`` while it waits on a stuck drive.
    ``errored`` is set when the drive settles the read (see
    :meth:`SimDisk.finished`); ask the drive, not the record, whether
    the data is there.
    """

    __slots__ = ("size_bytes", "done_at", "errored")

    def __init__(self, size_bytes: int) -> None:
        self.size_bytes = size_bytes
        self.done_at = inf
        self.errored = False


class SimDisk(Process):
    """One drive: serial arm, FIFO queue, zoned service times, failures.

    The single-bitrate Tiger issues reads in schedule order and the
    schedule already spaces them one block service time apart, so FIFO
    service is faithful to the system being modelled (§3.1).

    A read costs no kernel event.  Its completion time is fixed when
    the drive starts it, and the drive keeps the reads in flight in
    completion order and *settles* them lazily:

    * **Settle rule.**  Every read whose ``done_at`` is at or before now
      is counted — ``reads_completed`` / ``bytes_read``, or
      ``reads_errored`` if the drive is dead at ``done_at``.  The drive
      settles before :meth:`fail` and :meth:`recover` flip the flag, on
      every :meth:`read`, on :meth:`finished` and on any read of the
      three counters, so between two flips the flag now is the flag at
      every unsettled ``done_at``: a read errors exactly when its
      service time ends while the drive is dead, one that sees the
      drive die *and* recover inside its flight completes, and the
      counters are exact whenever they are looked at.
    * **Tie rule.**  :meth:`finished` is strict: a read with ``done_at
      == now`` is not ready.  Whoever asks at a read's exact completion
      time was scheduled before the read was issued (the cub's send is
      queued when the state is accepted, the read ``disk_read_lead``
      later) and so runs first within that instant.

    Only a caller that passes a callback gets a kernel event, scheduled
    at ``done_at`` on top of the same settlement.
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
        #: started when the drive unsticks (or errored if it dies first).
        self.stuck = False
        self._stalled: List[
            Tuple[Read, str, Optional[CompletionCallback], Optional[ErrorCallback]]
        ] = []
        #: Started reads not yet settled, by ``done_at``.
        self._in_flight: Deque[Read] = deque()
        self._reads_completed = Counter()
        self._bytes_read = Counter()
        self._reads_errored = Counter()

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(
        self,
        size_bytes: int,
        zone: str,
        on_complete: Optional[CompletionCallback] = None,
        on_error: Optional[ErrorCallback] = None,
    ) -> Read:
        """Queue a contiguous read of ``size_bytes`` from ``zone``.

        Returns the :class:`Read`; :meth:`finished` says whether its
        data is in the buffer.  With callbacks, ``on_complete(
        completion_time)`` also fires when it is, or ``on_error()`` (at
        the request time or at ``done_at``) if the drive is dead then.
        """
        if not size_bytes > 0:  # also rejects NaN
            raise ValueError("read size must be positive")
        self._settle()
        read = Read(size_bytes)
        if self.failed:
            self._error_now(read, on_error)
        elif self.stuck:
            self._stalled.append((read, zone, on_complete, on_error))
        else:
            self._start(read, zone, on_complete, on_error)
        return read

    def _start(
        self,
        read: Read,
        zone: str,
        on_complete: Optional[CompletionCallback],
        on_error: Optional[ErrorCallback],
    ) -> None:
        """The arm takes the read: from here its completion time is known."""
        now = self.sim.now
        service = (
            self.params.sample_read_time(self._rng, zone, read.size_bytes)
            * self.slow_factor
        )
        done_at = max(now, self._free_at) + service
        self._free_at = done_at
        self.busy.add_busy(now, service)
        read.done_at = done_at
        in_flight = self._in_flight
        if in_flight and in_flight[-1].done_at > done_at:
            # recover() restarted the arm under reads still in flight:
            # keep completion order, which is what settling pops by.
            ordered = sorted([*in_flight, read], key=attrgetter("done_at"))
            in_flight.clear()
            in_flight.extend(ordered)
        else:
            in_flight.append(read)
        if on_complete is not None or on_error is not None:
            self.sim.call_at(done_at, self._notify, read, on_complete, on_error)

    def _settle(self) -> None:
        """Count every read whose service time has ended (settle rule)."""
        in_flight = self._in_flight
        now = self.sim.now
        while in_flight and in_flight[0].done_at <= now:
            read = in_flight.popleft()
            if self.failed:
                read.errored = True
                self._reads_errored.increment()
            else:
                self._reads_completed.increment()
                self._bytes_read.increment(read.size_bytes)

    def finished(self, read: Read) -> bool:
        """Is ``read``'s data in the buffer?  Strictly after ``done_at``
        (tie rule), and only if the drive was alive then."""
        self._settle()
        return read.done_at < self.sim.now and not read.errored

    def _notify(
        self,
        read: Read,
        on_complete: Optional[CompletionCallback],
        on_error: Optional[ErrorCallback],
    ) -> None:
        """A callback caller's read reached ``done_at``."""
        self._settle()
        if read.errored:
            if on_error is not None:
                on_error()
        elif on_complete is not None:
            on_complete(self.sim.now)

    def _error_now(self, read: Read, on_error: Optional[ErrorCallback]) -> None:
        """A read that never starts: the drive is (or just went) dead."""
        read.done_at = self.sim.now
        read.errored = True
        self._reads_errored.increment()
        if on_error is not None:
            self.sim.call_after(0.0, on_error)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Fail the drive: in-flight reads error, future reads error."""
        if self.failed:
            return
        self._settle()
        self.failed = True
        self.trace("disk.fail", "drive failed")
        # Reads in flight stay in flight; they error when settled if
        # the drive is still dead at their completion time.
        stalled, self._stalled = self._stalled, []
        for read, _zone, _on_complete, on_error in stalled:
            self._error_now(read, on_error)

    def recover(self) -> None:
        self._settle()
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
        unstick they are started in arrival order from the current time,
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
            for read, zone, on_complete, on_error in stalled:
                self._start(read, zone, on_complete, on_error)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    @property
    def reads_completed(self) -> Counter:
        self._settle()
        return self._reads_completed

    @property
    def bytes_read(self) -> Counter:
        self._settle()
        return self._bytes_read

    @property
    def reads_errored(self) -> Counter:
        self._settle()
        return self._reads_errored

    def utilization(self, now: Optional[float] = None) -> float:
        """Duty cycle over the current measurement window."""
        return self.busy.utilization(self.sim.now if now is None else now)

    def reset_measurement(self) -> None:
        self.busy.reset(self.sim.now)

    @property
    def queue_backlog(self) -> float:
        """Seconds of queued work ahead of a request issued now."""
        return max(0.0, self._free_at - self.sim.now)
