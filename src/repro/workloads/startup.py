"""Startup-latency probing — the workload behind Figure 10.

The figure plots every stream start's delay against the schedule load
at the time of the start: a ~1.8 s floor at low load (one block play
time of transmission + network latency + scheduling lead), a mean
below 5 s at 95% load, and outliers beyond 20 s as insertion waits for
a free slot to come around under the right disk — in the worst case a
full schedule revolution (56 s in the paper's system).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.tiger import TigerSystem
from repro.workloads.generator import ContinuousWorkload


@dataclass
class StartSample:
    """One dot on Figure 10.

    ``censored`` marks a start still waiting for its first block when
    the probe closed: its latency is a *lower bound* (elapsed wait so
    far).  Dropping these — the old behaviour — silently excluded
    exactly the starts queued behind a full schedule, biasing the
    high-load tail of the figure downward.
    """

    schedule_load: float
    latency: float
    censored: bool = False


@dataclass
class StartupResult:
    samples: List[StartSample] = field(default_factory=list)

    def loads(self) -> List[float]:
        return [sample.schedule_load for sample in self.samples]

    def latencies(self) -> List[float]:
        return [sample.latency for sample in self.samples]

    def mean_latency_in_band(self, low: float, high: float) -> Optional[float]:
        """Mean latency of starts whose load fell in [low, high)."""
        band = [
            sample.latency
            for sample in self.samples
            if low <= sample.schedule_load < high
        ]
        return sum(band) / len(band) if band else None


class StartupLatencyProbe:
    """Collects (load, latency) points while a ramp fills the system.

    All starts are instrumented — background ramp streams and explicit
    probes alike, matching the paper's 4050-start scatter built from
    both experiments' ramps.
    """

    def __init__(
        self,
        system: TigerSystem,
        workload: ContinuousWorkload,
        probe_timeout: float = 120.0,
    ) -> None:
        self.system = system
        self.workload = workload
        self.probe_timeout = probe_timeout
        self._recorded = set()

    def collect(
        self, result: StartupResult, include_pending: bool = False
    ) -> int:
        """Sweep all monitors, adding newly completed starts.

        With ``include_pending`` (the closing sweep), starts still
        waiting for their first block are recorded as *censored*
        samples whose latency is the wait so far — the figure must show
        that a request queued behind a full schedule waited at least
        that long, not pretend it never happened.
        """
        added = 0
        now = self.system.sim.now
        for monitor in self.workload.all_monitors():
            if monitor.instance in self._recorded:
                continue
            latency = monitor.startup_latency
            censored = False
            if latency is None:
                if not include_pending or monitor.stopped:
                    continue
                latency = max(0.0, now - monitor.request_time)
                censored = True
            load_at_start = self._load_near(monitor.request_time)
            result.samples.append(
                StartSample(load_at_start, latency, censored)
            )
            self._recorded.add(monitor.instance)
            added += 1
        return added

    def _load_near(self, _time: float) -> float:
        # The oracle reflects the *current* load; during a slow ramp it
        # is an adequate stand-in for the load at request time.  The
        # ramp driver records the precise pairing by collecting after
        # every step.
        return self.system.oracle.load

    def run_ramp(
        self,
        step: int = 30,
        target: Optional[int] = None,
        settle: float = 8.0,
    ) -> StartupResult:
        """Fill the system stepwise, pairing each step's starts with the
        load they encountered."""
        result = StartupResult()
        self.system.start()
        goal = target if target is not None else self.system.config.num_slots
        while self.workload.target < goal:
            batch = min(step, goal - self.workload.target)
            self.workload.add_streams(batch)
            self.system.run_for(settle)
            self.collect(result)
        # Give stragglers (high-load starts) time to complete; whatever
        # is *still* pending enters the figure as a censored wait.
        self.system.run_for(self.probe_timeout)
        self.collect(result, include_pending=True)
        return result
