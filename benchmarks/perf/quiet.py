"""Steady timings on a box whose speed changes like the weather.

Measured on the reference sandbox (2 vCPUs under KVM): identical work
takes 1x to 1.6x as long from one moment to the next, for reasons
outside this VM — work with a heap larger than the per-core cache slows
with whatever the neighbours do to the shared cache and memory — with no
steal time to show for it.  Bursts last seconds; whole phases last
minutes.  Totals of one deterministic 1.3 s window, same seed, ranged
over 50 % in ten minutes, and two sets of runs of one commit, taken
minutes apart, differed by 28 % in their medians.  Three devices bring
that down to a few per cent:

* **identical repeats** — the window is run several times from the very
  same state: after set-up the process forks, and each child advances
  its copy of the system through the window and reports its timings;
* **per-segment minima** — the window is timed in equal sim-time
  segments; segment ``i`` is the same work in every repeat and a burst
  only ever adds time, so its least-disturbed observation is its minimum
  over the repeats, and the window's cost is the sum of those minima
  (:func:`quiet_sum`).  That removes bursts, not phases;
* **a weather probe** — while something is timed, a fixed 5 ms walk over
  16 MB is timed too, every 0.1 s; a repeat's times count scaled by
  :data:`PROBE_REFERENCE_S` over the median of its own probe readings
  (:class:`ProbeLog`), never by more than 1.  In quiet weather the
  numbers are plain wall time; in a slow phase they are what the same
  work would have taken in quiet weather, to within a few per cent: the
  probe's slowdown tracks the full-load simulation's almost one to one
  (correlation 0.85 against one-sim-second segments; a cache-resident
  loop: 0.35).  Over 45 runs of one seed, unscaled minima spread 6.7 %
  between the quartiles and 30 % in all, scaled ones 3.5 % and 14 %.

The raw per-repeat totals and the scale factors are always printed
beside the estimate, and timings of single layers (``*.self_s``) are
never scaled.
"""

from __future__ import annotations

import os
import pickle
import random
import statistics
import sys
import traceback
from time import perf_counter, thread_time
from typing import Any, Callable, List

#: The probe's working set.  It must overflow the per-core cache (4 MB
#: here): what slows this box is contention in the shared cache and
#: memory, which a loop that fits in its own cache never notices.
PROBE_BYTES = 16 * 1024 * 1024
#: The probe's reading at the slow end of quiet weather on the reference
#: box; times taken under slower readings are scaled down to it, times
#: taken under faster ones are left alone.
PROBE_REFERENCE_S = 0.0055
_probe_state: List[Any] = []


def quiet_sum(per_repeat: List[List[float]], scales: List[float]) -> float:
    """Sum over segments of the least-disturbed observation: the minimum
    raw time across repeats, scaled by the weather factor of the repeat
    it came from.  (Taking the minimum of the *scaled* times instead
    would pick out, segment by segment, whichever repeat's factor erred
    low, and did: -20 % on some runs.)"""
    total = 0.0
    for column in zip(*per_repeat):
        best = min(range(len(column)), key=column.__getitem__)
        total += column[best] * scales[best]
    return total


def probe() -> float:
    """CPU seconds of a fixed walk over :data:`PROBE_BYTES` at 40 000
    scattered offsets (~5 ms).  CPU time of this thread, not wall time:
    a stall on memory is CPU time, being descheduled on a busy box (the
    live workload runs six processes on two cores) is not weather."""
    if not _probe_state:
        rng = random.Random(0)
        _probe_state.append(bytearray(PROBE_BYTES))
        _probe_state.append([rng.randrange(PROBE_BYTES) for _ in range(40_000)])
        probe()  # the first walk pays for the page faults
    buffer, offsets = _probe_state
    total = 0
    started = thread_time()
    for offset in offsets:
        total += buffer[offset]
    return thread_time() - started


def own_rss_mb(ru_maxrss_kb: float) -> float:
    """A process's peak resident set less the probe's buffer, which is
    the benchmark's, not the program's (every page of it is resident
    from the first walk on, in this process and in its forked children)."""
    return (ru_maxrss_kb * 1024 - (PROBE_BYTES if _probe_state else 0)) / 2**20


def weather_scale(readings: List[float]) -> float:
    """Quiet-weather factor for times taken under ``readings``: their
    median against :data:`PROBE_REFERENCE_S`, and never above 1 — the
    probe reads 5.0 to 5.5 ms in weather the workloads cannot tell
    apart, so below the reference there is nothing to correct."""
    return min(1.0, PROBE_REFERENCE_S / statistics.median(readings))


class ProbeLog:
    """Probe readings taken alongside something that is being timed."""

    #: Least seconds between two readings.
    SPACING = 0.1

    def __init__(self) -> None:
        self.readings: List[float] = [probe()]
        self._last = perf_counter()

    def tick(self) -> None:
        """Call between timed segments (never inside one)."""
        if perf_counter() - self._last >= self.SPACING:
            self.readings.append(probe())
            self._last = perf_counter()

    def scale(self) -> float:
        """Factor that turns times taken under these readings into
        quiet-weather times."""
        self.readings.append(probe())
        return weather_scale(self.readings)


def in_child(work: Callable[[], Any]) -> Any:
    """Run ``work()`` in a forked copy of this process; return its result.

    The child starts from the parent's exact state (copy on write), so
    calling this repeatedly repeats the identical computation.  The
    parent blocks until the child has exited.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            payload = pickle.dumps(work())
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:  # the child must never return into the caller
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"measurement child exited with status {status}")
    return pickle.loads(payload)
