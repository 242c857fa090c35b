"""Measurement primitives used by the metrics layer and benchmarks.

All accumulators are plain Python so they work inside the simulator's
hot path without pulling numpy into the core library.  The benchmark
harness converts to numpy arrays only at reporting time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def increment(self, by: int = 1) -> None:
        if by < 0:
            raise ValueError("Counter only counts up")
        self.count += by

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.count}>"


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


class Histogram:
    """An exact histogram with quantile queries.

    Stores every sample: O(1) ``add``, sorted on the first read after
    a write — fine for millions of samples read at report time (one
    sort, cheap on the already-sorted prefix, instead of one sorted
    insert per sample).
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        #: Samples were appended since the last sort.
        self._unsorted = False

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._unsorted = True

    def extend(self, values: Sequence[float]) -> None:
        self._samples.extend(values)
        self._unsorted = True

    def _sorted(self) -> List[float]:
        """The samples in ascending order, equal ones in arrival order
        (the sort is stable, and cheap on an already-sorted prefix)."""
        if self._unsorted:
            self._samples.sort()
            self._unsorted = False
        return self._samples

    @property
    def n(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Tuple[float, ...]:
        return tuple(self._sorted())

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, q in [0, 1]."""
        if not self._samples:
            raise ValueError("empty histogram")
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        ordered = self._sorted()
        if len(ordered) == 1:
            return ordered[0]
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        lower = ordered[lo]
        upper = ordered[hi]
        # lower + delta*frac (not lower*(1-frac) + upper*frac): the
        # two-product form can round below ``lower`` for subnormal
        # samples, breaking min <= quantile <= max.
        return lower + (upper - lower) * frac

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("empty histogram")
        # Summed in ascending order: float addition is order-sensitive,
        # and this is the order the reported means have always used.
        return sum(self._sorted()) / len(self._samples)

    def count_above(self, threshold: float) -> int:
        ordered = self._sorted()
        return len(ordered) - bisect_right(ordered, threshold)


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


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Convenience one-shot quantile; returns None for empty input."""
    if not values:
        return None
    hist = Histogram()
    hist.extend(values)
    return hist.quantile(q)
