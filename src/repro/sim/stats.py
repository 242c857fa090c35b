"""The two time meters the paper's §5 measurement windows read.

:class:`BusyMeter` gives a serial resource's duty cycle (cub CPU, disk,
NIC) and :class:`RateMeter` an amount per second (control bytes).
Counts and distributions live in :mod:`repro.obs.registry`.
"""

from __future__ import annotations


class BusyMeter:
    """Accumulates busy time for a resource (disk, NIC, CPU proxy).

    Busy intervals may be reported as explicit durations; the meter
    answers "what fraction of the window was this resource busy".
    Overlapping busy intervals saturate at 100% via interval merging of
    a single outstanding busy-until horizon, which matches how a serial
    resource (one disk arm, one NIC) actually behaves.
    """

    __slots__ = ("_busy_until", "_busy_accum", "_window_start")

    def __init__(self, start_time: float = 0.0) -> None:
        self._busy_until = start_time
        self._busy_accum = 0.0
        self._window_start = start_time

    def add_busy(self, now: float, duration: float) -> None:
        """Mark the resource busy for ``duration`` starting at ``now``.

        If the resource is already busy past ``now``, the new work is
        appended after the current horizon (serial resource semantics).
        """
        if not duration >= 0:  # also rejects NaN
            raise ValueError("negative busy duration")
        start = max(now, self._busy_until)
        self._busy_until = start + duration
        self._busy_accum += duration

    @property
    def busy_until(self) -> float:
        return self._busy_until

    def utilization(self, now: float) -> float:
        """Fraction of ``[window_start, now]`` spent busy (may be capped at 1)."""
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        # Work scheduled beyond `now` has not happened yet.
        busy = self._busy_accum - max(0.0, self._busy_until - now)
        return min(1.0, max(0.0, busy / elapsed))

    def reset(self, now: float) -> None:
        self._window_start = now
        self._busy_accum = max(0.0, self._busy_until - now)


class RateMeter:
    """Counts events/bytes in a sliding measurement window.

    ``snapshot(now)`` returns the rate since the previous snapshot and
    restarts the window — matching the paper's per-ramp-step sampling.
    """

    __slots__ = ("_total", "_window_start", "_window_total")

    def __init__(self, start_time: float = 0.0) -> None:
        self._total = 0.0
        self._window_start = start_time
        self._window_total = 0.0

    def add(self, amount: float = 1.0) -> None:
        self._total += amount
        self._window_total += amount

    @property
    def total(self) -> float:
        return self._total

    def snapshot(self, now: float) -> float:
        """Rate (amount/second) since the last snapshot; resets the window."""
        elapsed = now - self._window_start
        rate = self._window_total / elapsed if elapsed > 0 else 0.0
        self._window_start = now
        self._window_total = 0.0
        return rate

