"""Reproduction of "Distributed Schedule Management in the Tiger Video
Fileserver" (Bolosky, Fitzgerald, Douceur — SOSP 1997).

Public API
----------
Most users need only:

>>> from repro import TigerSystem, paper_config, small_config
>>> system = TigerSystem(small_config())
>>> system.add_standard_content(num_files=4, duration_s=60)  # doctest: +ELLIPSIS
[...]
>>> client = system.add_client()
>>> instance = client.start_stream(file_id=0)
>>> system.run_for(10.0)
>>> client.streams[instance].blocks_received > 0
True

Subpackages
-----------
``repro.sim``
    Discrete-event simulation kernel (events, RNG streams, stats).
``repro.net``
    Switched network: NICs, fabric, ordered per-flow delivery.
``repro.disk``
    Zoned disk model with failure injection.
``repro.obs``
    Dimensional metrics registry, snapshot merging, trace exporters.
``repro.storage``
    Striped layout, catalog, block index, declustered mirroring,
    restripe planning and the online restriper.
``repro.core``
    The schedule itself: slot arithmetic, viewer states, cubs,
    controller, clients, deadman, the §5 measurement collector, and
    ``TigerSystem``, the simulated deployment.
``repro.helpers``
    The optional edge-cache tier, plugged into cubs and clients.
``repro.mbr``
    Multiple-bitrate Tiger (§3.2, §4.2): EDF disks, joint admission.
``repro.faults``
    Fault plans, the chaos harness, the invariant monitor.
``repro.live``
    The socket backend: node processes and the cluster driver.
``repro.workloads``
    Ramp / startup-latency / failure drivers used by the benchmarks.
``repro.analysis``
    ASCII renderers and the EXPERIMENTS.md report.
"""

from typing import Any

from repro.config import TigerConfig, paper_config, small_config

__version__ = "1.0.0"

__all__ = [
    "TigerSystem",
    "TigerConfig",
    "paper_config",
    "small_config",
    "__version__",
]


def __getattr__(name: str) -> Any:
    # TigerSystem pulls in the whole simulated deployment; a live node
    # process, which imports this package too, never needs it.
    if name == "TigerSystem":
        from repro.core.tiger import TigerSystem

        return TigerSystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
