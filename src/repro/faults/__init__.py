"""Chaos engineering for the Tiger reproduction.

Declarative fault schedules (:mod:`repro.faults.plan`), the one
installer that arms them on a simulated system or a live socket
cluster (:mod:`repro.faults.injectors`), runtime invariant monitoring
of a simulated system or of each live cub (:mod:`repro.faults.monitor`),
and the end-to-end harness with deterministic replay fingerprints
(:mod:`repro.faults.harness`).
"""

from repro.faults.harness import ChaosHarness, ChaosReport, standard_chaos_plan
from repro.faults.injectors import (
    MessageFaultInjector,
    UnsupportedFaultError,
    install_plan,
)
from repro.faults.monitor import InvariantMonitor, InvariantViolation
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "ChaosHarness",
    "ChaosReport",
    "FaultPlan",
    "FaultSpec",
    "InvariantMonitor",
    "InvariantViolation",
    "MessageFaultInjector",
    "UnsupportedFaultError",
    "install_plan",
    "standard_chaos_plan",
]
