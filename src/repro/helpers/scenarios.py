"""Edge-tier workload scenarios: hot premieres and flash crowds.

The helper tier earns its keep exactly when demand is *concentrated*:
many viewers converging on few titles, the workload shape Tiger's
striping deliberately flattens across disks but which still charges the
cub schedule one slot per viewer.  A helper that caches the hot file
serves every viewer after the first from its own memory, so the cub
tier's block services scale with the number of *distinct* titles
instead of the number of viewers.

Two canned scenarios drive that claim, both built from the open-loop
arrival generators in :mod:`repro.workloads.arrivals` so the offered
load is identical with and without helpers:

* **hot premiere** — Poisson arrivals over a Zipf catalog with a steep
  exponent: one newly released title dominates, the tail still gets
  trickle traffic.
* **flash crowd** — the ``flash`` arrival mode: bursts of near-
  simultaneous arrivals all targeting the same title.

:func:`run_edge_scenario` replays one arrival trace against a
:class:`~repro.core.tiger.TigerSystem`; :func:`run_offload_experiment`
runs the with/without pair and reports the cub-block reduction;
:func:`capacity_sweep` maps offload against helper cache size, whose
concave, saturating shape is the discrete analogue of the interval-
caching bound (offload cannot exceed the fraction of demand that is a
re-read of a block some earlier viewer already pulled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.config import TigerConfig, small_config
from repro.core.tiger import TigerSystem
from repro.helpers.node import origin_offload_ratio
from repro.obs.registry import snapshot_total
from repro.workloads.arrivals import open_loop_trace

#: Scenario names understood by :func:`run_offload_experiment`.
EDGE_SCENARIOS = ("hot_premiere", "flash_crowd")

#: Arrival mode and catalog skew behind each scenario.  The flash
#: crowd concentrates 85% of arrivals into same-title spikes — the
#: defining feature of the event — leaving a 15% uniform background.
_SCENARIO_SHAPE = {
    "hot_premiere": {"mode": "zipf", "zipf_exponent": 1.4},
    "flash_crowd": {
        "mode": "flash",
        "zipf_exponent": 1.0,
        "spike_fraction": 0.85,
    },
}


@dataclass
class EdgeScenarioResult:
    """Outcome of one trace replay (one side of an A/B pair)."""

    name: str
    seed: int
    #: The config the replay ran, helper tier included.
    config: TigerConfig
    streams: int
    #: Whole blocks served by the cub schedule (the offload target).
    cub_blocks: int
    #: Whole blocks served out of helper caches.
    helper_blocks: int
    #: Off-schedule cache-fill blocks cubs sent to helpers.
    helper_fetches: int
    offload_ratio: float
    client_received: int
    client_missed: int
    client_late: int
    client_corrupt: int

    @property
    def lossless(self) -> bool:
        return self.client_missed == 0 and self.client_corrupt == 0


def run_edge_scenario(
    name: str,
    seed: int = 0,
    viewers: int = 24,
    num_files: int = 6,
    file_seconds: float = 60.0,
    duration: float = 110.0,
    arrival_window: float = 30.0,
    config: Optional[TigerConfig] = None,
) -> EdgeScenarioResult:
    """Replay one scenario's arrival trace; returns the outcome.

    The helper tier is the one ``config`` describes (none by default).
    The trace is a pure function of ``(name, seed, viewers, num_files,
    arrival_window)`` — the with-helpers and no-helpers runs of an A/B
    pair therefore see byte-identical offered load.
    """
    if name not in EDGE_SCENARIOS:
        raise ValueError(
            f"unknown edge scenario {name!r}; pick one of {EDGE_SCENARIOS}"
        )
    shape = _SCENARIO_SHAPE[name]
    config = config if config is not None else small_config()
    system = TigerSystem(config, seed=seed)
    files = system.add_standard_content(
        num_files=num_files, duration_s=file_seconds
    )
    clients = [system.add_client() for _ in range(viewers)]
    trace = open_loop_trace(
        viewers=viewers,
        num_files=num_files,
        start=1.0,
        end=1.0 + arrival_window,
        seed=seed,
        mode=shape["mode"],
        zipf_exponent=shape["zipf_exponent"],
        spike_fraction=shape.get("spike_fraction", 0.5),
    )
    for arrival in trace:
        system.sim.call_at(
            arrival.time,
            clients[arrival.client_index].start_stream,
            files[arrival.file_index].file_id,
        )
    system.run_until(duration)
    system.finalize_clients()
    system.assert_invariants()
    snapshot = system.export_metrics().snapshot()
    return EdgeScenarioResult(
        name=name,
        seed=seed,
        config=config,
        streams=len(trace),
        cub_blocks=system.total_blocks_sent(),
        helper_blocks=int(snapshot_total(snapshot, "helper.blocks_served")),
        helper_fetches=int(
            snapshot_total(snapshot, "cub.helper_fetches_served")
        ),
        offload_ratio=origin_offload_ratio(snapshot),
        client_received=system.total_client_received(),
        client_missed=system.total_client_missed(),
        client_late=system.total_client_late(),
        client_corrupt=system.total_client_corrupt(),
    )


@dataclass
class OffloadExperiment:
    """A matched with/without-helpers pair on one arrival trace."""

    name: str
    baseline: EdgeScenarioResult
    helped: EdgeScenarioResult

    @property
    def cub_block_reduction(self) -> float:
        """How many times fewer blocks the cub schedule served with the
        helper tier in place (>= 2.0 is the acceptance bar for the
        flash crowd)."""
        if self.helped.cub_blocks == 0:
            return float(self.baseline.cub_blocks or 1)
        return self.baseline.cub_blocks / self.helped.cub_blocks

    def lines(self) -> List[str]:
        """Benchmark-result rendering (see ``benchmarks/conftest.py``)."""
        helped, base = self.helped, self.baseline
        return [
            f"scenario={self.name} seed={helped.seed} "
            f"streams={helped.streams} helpers={helped.config.helpers} "
            f"capacity={helped.config.helper_capacity}",
            f"no-helper baseline: cub_blocks={base.cub_blocks} "
            f"received={base.client_received} missed={base.client_missed} "
            f"late={base.client_late} corrupt={base.client_corrupt}",
            f"with helpers:       cub_blocks={helped.cub_blocks} "
            f"helper_blocks={helped.helper_blocks} "
            f"fetches={helped.helper_fetches} "
            f"received={helped.client_received} "
            f"missed={helped.client_missed} late={helped.client_late} "
            f"corrupt={helped.client_corrupt}",
            f"origin offload ratio: {helped.offload_ratio:.3f}",
            f"cub block reduction: {self.cub_block_reduction:.2f}x "
            f"(lossless={helped.lossless and base.lossless})",
        ]


def _scale(quick: bool) -> Dict[str, Any]:
    """Viewers, run length and arrival window of one replay."""
    if quick:
        return dict(viewers=12, duration=80.0, arrival_window=20.0)
    return dict(viewers=24, duration=110.0, arrival_window=30.0)


def run_offload_experiment(
    name: str,
    seed: int = 0,
    config: Optional[TigerConfig] = None,
    quick: bool = False,
) -> OffloadExperiment:
    """Run one scenario twice — without, and with the helper tier
    ``config`` describes (two 128-block LRU helpers by default)."""
    helped = (
        config if config is not None
        else small_config(helpers=2, helper_capacity=128)
    )
    scale = _scale(quick)
    return OffloadExperiment(
        name=name,
        baseline=run_edge_scenario(
            name, seed, config=helped.with_overrides(helpers=0), **scale
        ),
        helped=run_edge_scenario(name, seed, config=helped, **scale),
    )


def capacity_sweep(
    name: str = "flash_crowd",
    capacities: Tuple[int, ...] = (0, 8, 16, 32, 64, 128),
    seed: int = 0,
    config: Optional[TigerConfig] = None,
    quick: bool = False,
) -> List[Tuple[int, EdgeScenarioResult]]:
    """Offload as a function of per-helper cache size, on the helper
    tier ``config`` describes (two LRU helpers by default).

    The curve is concave and saturates once the cache holds the hot
    set — the discrete analogue of the interval-caching (Viennot stack
    distance) bound: no cache size can offload more than the demand
    that re-reads blocks an earlier viewer already streamed.
    """
    base = config if config is not None else small_config(helpers=2)
    return [
        (
            capacity,
            run_edge_scenario(
                name, seed,
                config=base.with_overrides(helper_capacity=capacity),
                **_scale(quick),
            ),
        )
        for capacity in capacities
    ]


def sweep_lines(
    rows: List[Tuple[int, EdgeScenarioResult]],
) -> List[str]:
    """Render a capacity sweep for a benchmark result file."""
    out = []
    if rows:
        first = rows[0][1]
        out.append(
            f"scenario={first.name} seed={first.seed} "
            f"streams={first.streams} helpers={first.config.helpers}"
        )
    for capacity, result in rows:
        out.append(
            f"capacity={capacity:>4d} blocks: "
            f"offload={result.offload_ratio:.3f} "
            f"cub_blocks={result.cub_blocks} "
            f"helper_blocks={result.helper_blocks} "
            f"missed={result.client_missed} "
            f"late={result.client_late}"
        )
    if rows:
        best = max(result.offload_ratio for _, result in rows)
        out.append(
            f"shape: concave, saturating at offload~{best:.3f} "
            f"(interval-caching bound: re-read fraction of the trace)"
        )
    return out
