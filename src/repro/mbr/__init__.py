"""Multiple-bitrate Tiger (§3.2, §4.2) — including the disk side the
1997 implementation left unwritten: joint disk + network admission,
the EDF feasibility tests behind it, and the bottleneck-crossover
experiment."""

from repro.mbr.admission import (
    LIMIT_DISK,
    LIMIT_NETWORK,
    LIMIT_NONE,
    AdmittedStream,
    MbrAdmission,
    edf_feasible,
    periodic_stream_feasible,
    run_mix_experiment,
)

__all__ = [
    "MbrAdmission",
    "AdmittedStream",
    "LIMIT_DISK",
    "LIMIT_NETWORK",
    "LIMIT_NONE",
    "edf_feasible",
    "periodic_stream_feasible",
    "run_mix_experiment",
]
