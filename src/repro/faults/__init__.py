"""Chaos engineering for the Tiger reproduction.

Declarative fault schedules (:mod:`repro.faults.plan`), the machinery
that executes them against a simulated system
(:mod:`repro.faults.injectors`) or a live socket cluster
(:mod:`repro.faults.live`), runtime invariant monitoring
(:mod:`repro.faults.monitor`), and the end-to-end harness with
deterministic replay fingerprints (:mod:`repro.faults.harness`).
"""

from repro.faults.harness import ChaosHarness, ChaosReport, standard_chaos_plan
from repro.faults.injectors import (
    DiskFaultInjector,
    InstalledFaults,
    MessageFaultInjector,
    ProcessFaultInjector,
    install_plan,
)
from repro.faults.live import (
    CubInvariantProbe,
    LiveFaultError,
    LiveFaultInjector,
)
from repro.faults.monitor import InvariantMonitor, InvariantViolation
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "ChaosHarness",
    "ChaosReport",
    "CubInvariantProbe",
    "DiskFaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InstalledFaults",
    "InvariantMonitor",
    "InvariantViolation",
    "LiveFaultError",
    "LiveFaultInjector",
    "MessageFaultInjector",
    "ProcessFaultInjector",
    "install_plan",
    "standard_chaos_plan",
]
