"""System-wide measurement, matching the paper's §5 methodology.

The paper samples "various system load factors" over 50-second windows
at each ramp step: mean cub CPU, controller CPU, disk duty cycle (for
the failed test, the disks of a cub mirroring for the failed cub), and
control traffic from one particular cub to all others.  The
:class:`MetricsCollector` reproduces exactly those series.

Each closed window is also published into the system's
:class:`~repro.obs.registry.MetricsRegistry` as ``sample.*`` gauges
(latest-window semantics), so CLI exports and the chaos harness see
the paper's measurements alongside the protocol counters.  The full
name inventory lives in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.obs.registry import MetricsRegistry, snapshot_total

#: The seven protocol counter families the acceptance criteria require
#: to stay bit-identical across optimization work (same config + seed).
PROTOCOL_COUNTERS = (
    "cub.viewer_states_forwarded",
    "cub.deschedules_forwarded",
    "cub.inserts_performed",
    "cub.admission_rejects",
    "cub.mirror_covers",
    "cub.blocks_sent",
    "cub.deadman_resurrections",
)


def protocol_counters(registry: MetricsRegistry) -> Dict[str, int]:
    """Read the seven acceptance counters from a metrics registry."""
    snap = registry.snapshot()
    return {
        name: int(snapshot_total(snap, name)) for name in PROTOCOL_COUNTERS
    }


@dataclass
class SystemSample:
    """One measurement window, one row of Figure 8/9's data."""

    #: Simulated time the window closed, in seconds.
    time: float
    #: Free-form tag for the ramp step (e.g. ``"load=0.5"``).
    label: str
    #: Streams occupying schedule slots when the window closed.
    active_streams: int
    #: Fraction of schedule slots occupied.
    schedule_load: float
    #: Mean modelled CPU utilization across living cubs.
    cub_cpu_mean: float
    #: Maximum modelled CPU utilization across living cubs.
    cub_cpu_max: float
    #: Controller CPU utilization over the window.
    controller_cpu: float
    #: Mean disk utilization across all living cubs' disks.
    disk_util_mean: float
    #: Mean disk utilization restricted to specific cubs (the paper's
    #: failed-mode measurement uses a mirroring cub's disks).
    disk_util_probe: float
    #: Control bytes/second from the probe cub to all other nodes.
    control_traffic_bps: float
    #: Blocks the server failed to place on the network, cumulative.
    server_missed_blocks: int
    #: Blocks placed on the network, cumulative.
    blocks_sent: int


class MetricsCollector:
    """Windowed sampling over a :class:`~repro.core.tiger.TigerSystem`.

    :param system: The system under measurement.
    :param probe_cub: Cub whose outbound control traffic is the paper's
        "one particular cub" series.
    :param probe_disk_cubs: Cubs whose disks form the probe
        disk-utilization series (defaults to all cubs; the Fig 9 bench
        sets the mirroring cubs).
    :param registry: Metrics registry the ``sample.*`` gauges publish
        into; defaults to the system's registry.
    """

    def __init__(
        self,
        system: "object",
        probe_cub: int = 0,
        probe_disk_cubs: Optional[Sequence[int]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.system = system
        self.probe_cub = probe_cub
        self.probe_disk_cubs = (
            list(probe_disk_cubs) if probe_disk_cubs is not None else None
        )
        if registry is None:
            registry = getattr(system, "registry", None)
        self.registry = registry if registry is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    def begin_window(self) -> None:
        """Reset every meter so the next sample covers a fresh window."""
        system = self.system
        for cub in system.living_cubs():
            cub.reset_measurement()
        system.controller.reset_measurement()
        # Discard accumulated control-byte windows.
        for cub in system.living_cubs():
            system.network.control_bytes_from[cub.address].snapshot(system.sim.now)

    def sample(self, label: str = "") -> SystemSample:
        """Close the current window and publish one sample.

        :param label: Tag stored on the sample (ramp-step name).
        :returns: The window's :class:`SystemSample`.
        """
        system = self.system
        now = system.sim.now
        living = system.living_cubs()
        cpu_values = [cub.cpu_utilization(now) for cub in living]
        disk_values = [cub.mean_disk_utilization(now) for cub in living]
        if self.probe_disk_cubs is not None:
            probe_cubs = [
                cub for cub in living if cub.cub_id in self.probe_disk_cubs
            ]
        else:
            probe_cubs = living
        probe_disk = (
            sum(cub.mean_disk_utilization(now) for cub in probe_cubs)
            / len(probe_cubs)
            if probe_cubs
            else 0.0
        )
        probe = system.cubs[self.probe_cub]
        control_bps = (
            system.network.control_bytes_from[probe.address].snapshot(now)
            if not probe.failed
            else 0.0
        )
        entry = SystemSample(
            time=now,
            label=label,
            active_streams=system.oracle.num_occupied,
            schedule_load=system.oracle.load,
            cub_cpu_mean=sum(cpu_values) / len(cpu_values) if cpu_values else 0.0,
            cub_cpu_max=max(cpu_values) if cpu_values else 0.0,
            controller_cpu=system.controller.cpu_utilization(now),
            disk_util_mean=sum(disk_values) / len(disk_values)
            if disk_values
            else 0.0,
            disk_util_probe=probe_disk,
            control_traffic_bps=control_bps,
            server_missed_blocks=system.total_server_missed(),
            blocks_sent=system.total_blocks_sent(),
        )
        self._publish(entry)
        return entry

    def _publish(self, entry: SystemSample) -> None:
        """Push one sample into the registry as latest-window gauges."""
        gauge = self.registry.gauge
        gauge("sample.active_streams",
              help="Streams occupying slots at the last sample",
              unit="streams").set(entry.active_streams)
        gauge("sample.schedule_load",
              help="Fraction of schedule slots occupied at the last sample",
              unit="ratio").set(entry.schedule_load)
        gauge("sample.cub_cpu_mean",
              help="Mean cub CPU utilization over the last window",
              unit="ratio").set(entry.cub_cpu_mean)
        gauge("sample.cub_cpu_max",
              help="Max cub CPU utilization over the last window",
              unit="ratio").set(entry.cub_cpu_max)
        gauge("sample.controller_cpu",
              help="Controller CPU utilization over the last window",
              unit="ratio").set(entry.controller_cpu)
        gauge("sample.disk_util_mean",
              help="Mean disk utilization over the last window",
              unit="ratio").set(entry.disk_util_mean)
        gauge("sample.disk_util_probe",
              help="Probe-cub disk utilization over the last window",
              unit="ratio").set(entry.disk_util_probe)
        gauge("sample.control_traffic_bps",
              help="Probe-cub control traffic over the last window",
              unit="bytes/s").set(entry.control_traffic_bps)
        gauge("sample.server_missed_blocks",
              help="Cumulative server-missed blocks at the last sample",
              unit="blocks").set(entry.server_missed_blocks)
        gauge("sample.blocks_sent",
              help="Cumulative blocks sent at the last sample",
              unit="blocks").set(entry.blocks_sent)
