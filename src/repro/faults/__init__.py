"""Chaos engineering for the Tiger reproduction.

Declarative fault schedules (:mod:`repro.faults.plan`), the one
installer that arms them on a simulated system or a live socket
cluster (:mod:`repro.faults.injectors`), runtime invariant monitoring
of a simulated system or of each live cub (:mod:`repro.faults.monitor`),
and the end-to-end harness with deterministic replay fingerprints
(:mod:`repro.faults.harness`).  Import from the submodules: a live cub
loads the monitor without the harness and the simulator behind it.
"""
