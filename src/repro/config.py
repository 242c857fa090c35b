"""System-wide configuration for a Tiger deployment.

One :class:`TigerConfig` fixes everything the paper's §5 testbed fixed:
hardware shape (cubs, disks, NICs), content parameters (block play
time, maximum bitrate), fault-tolerance parameters (decluster factor,
deadman timing), and the schedule-protocol leads (minVStateLead /
maxVStateLead, scheduling lead).

Two presets are provided:

* :func:`paper_config` — the paper's 14-cub, 56-disk, 2 Mbit/s system
  (602 streams of capacity, 1 s block play time, decluster 4).
* :func:`small_config` — a 4-cub system for fast tests and examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from repro.disk.model import DiskParameters, worst_case_streams_per_disk


@dataclass(frozen=True)
class TigerConfig:
    """Complete description of one Tiger system."""

    # ------------------------------------------------------------------
    # Hardware shape (§2.1)
    # ------------------------------------------------------------------
    num_cubs: int = 14
    disks_per_cub: int = 4
    #: Cub NIC line rate (FORE OC-3 ~ 155 Mbit/s).
    cub_nic_bps: float = 155e6
    #: Controller NIC line rate.
    controller_nic_bps: float = 155e6
    #: Client NIC line rate (clients received 15-25 x 2 Mbit/s streams).
    client_nic_bps: float = 100e6
    #: Switch propagation latency and jitter.
    net_base_latency: float = 0.0005
    net_latency_jitter: float = 0.0002

    # ------------------------------------------------------------------
    # Content parameters (§2.2)
    # ------------------------------------------------------------------
    #: Duration of one block; identical for every file in the system.
    block_play_time: float = 1.0
    #: Configured maximum stream rate (single-bitrate block sizing).
    max_bitrate_bps: float = 2e6
    #: Disk timing model.
    disk: DiskParameters = field(default_factory=DiskParameters)
    #: Override the per-disk stream capacity; None derives it from the
    #: disk model.  The paper preset pins 10.75 (its measured value).
    streams_per_disk_override: Optional[float] = None

    # ------------------------------------------------------------------
    # Fault tolerance (§2.3)
    # ------------------------------------------------------------------
    decluster: int = 4
    #: Heartbeat period of the deadman protocol.
    heartbeat_interval: float = 0.5
    #: Silence threshold after which a cub is declared dead.
    deadman_timeout: float = 6.0

    # ------------------------------------------------------------------
    # Schedule protocol (§4.1)
    # ------------------------------------------------------------------
    #: Cubs keep the schedule updated at least this far ahead (seconds).
    min_vstate_lead: float = 4.0
    #: ... and never forward viewer states further ahead than this.
    max_vstate_lead: float = 9.0
    #: How long before a slot's visit its owner may insert (includes
    #: time for the first block's disk read; always > block service time).
    scheduling_lead: float = 0.6
    #: How early a cub issues the disk read before a block is due.
    disk_read_lead: float = 1.0
    #: Period of the viewer-state forwarding pump (batching interval).
    forward_pump_interval: float = 0.5
    #: How long deschedule tombstones are held past their slot (§4.1.2).
    deschedule_hold: float = 3.0
    #: Schedule-load ceiling above which cubs stop admitting new viewers
    #: ("Tiger contains code to prevent schedule insertions beyond a
    #: certain level, which we disabled for this test", §5).  None
    #: disables the guard, as the paper's experiments did.  Cubs enforce
    #: it from a purely local load estimate — no global state.
    admission_load_limit: Optional[float] = None

    # ------------------------------------------------------------------
    # Optional edge-cache tier (see repro.helpers)
    # ------------------------------------------------------------------
    #: Helper cache nodes; 0 leaves the tier out entirely.
    helpers: int = 0
    #: Per-helper cache capacity in blocks; 0 keeps booted helpers inert
    #: (no probe, no fetch), for A/B runs on a fixed topology.
    helper_capacity: int = 0

    # ------------------------------------------------------------------
    # CPU cost model (calibrated against §5; see DESIGN.md)
    # ------------------------------------------------------------------
    #: Seconds of cub CPU per data byte packetized (dominant cost).
    cpu_per_data_byte: float = 6.3e-8
    #: Seconds of cub CPU per control message sent or received.
    cpu_per_control_msg: float = 20e-6
    #: Seconds of controller CPU per client request handled.
    cpu_per_request: float = 150e-6

    def __post_init__(self) -> None:
        if self.num_cubs < 3:
            raise ValueError(
                "Tiger needs at least 3 cubs (successor and second "
                "successor must be distinct from the sender)"
            )
        if self.disks_per_cub < 1:
            raise ValueError("need at least one disk per cub")
        if self.block_play_time <= 0:
            raise ValueError("block play time must be positive")
        if not 1 <= self.decluster < self.num_cubs:
            raise ValueError("need 1 <= decluster < num_cubs")
        if self.min_vstate_lead >= self.max_vstate_lead:
            raise ValueError("minVStateLead must be below maxVStateLead")
        if self.scheduling_lead >= self.min_vstate_lead:
            raise ValueError(
                "scheduling lead must be much smaller than minVStateLead "
                "(§4.1.3); got scheduling_lead >= min_vstate_lead"
            )
        if self.forward_pump_interval > (self.max_vstate_lead - self.min_vstate_lead):
            raise ValueError(
                "forwarding pump period must fit inside the "
                "[minVStateLead, maxVStateLead] window"
            )
        if self.helpers < 0:
            raise ValueError(f"helpers must be >= 0, got {self.helpers}")
        if self.helper_capacity < 0:
            raise ValueError(
                f"helper_capacity must be >= 0, got {self.helper_capacity}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    #
    # Each is computed once per instance: the fields are frozen, and the
    # block path reads these per accepted state.  ``replace`` builds a
    # new instance, so a copy with other fields derives its own.
    # ------------------------------------------------------------------
    @cached_property
    def num_disks(self) -> int:
        return self.num_cubs * self.disks_per_cub

    @cached_property
    def block_bytes(self) -> int:
        """Stored block size in the single-bitrate system."""
        return int(round(self.max_bitrate_bps * self.block_play_time / 8.0))

    @cached_property
    def streams_per_disk(self) -> float:
        """Streams one disk sustains, including failed-mode reserve."""
        if self.streams_per_disk_override is not None:
            return self.streams_per_disk_override
        return worst_case_streams_per_disk(
            self.disk, self.block_bytes, self.decluster
        )

    @cached_property
    def schedule_duration(self) -> float:
        """Length of the schedule ring: block play time x disks (§3.1)."""
        return self.block_play_time * self.num_disks

    @cached_property
    def num_slots(self) -> int:
        """System stream capacity, rounded down to an integer (§3.1)."""
        return int(math.floor(self.num_disks * self.streams_per_disk + 1e-9))

    @cached_property
    def block_service_time(self) -> float:
        """Slot width, lengthened so the schedule holds a whole number
        of slots: schedule_duration / num_slots (§3.1)."""
        return self.schedule_duration / self.num_slots

    def mirror_piece_bytes(self) -> int:
        return -(-self.block_bytes // self.decluster)

    def with_overrides(self, **changes) -> "TigerConfig":
        """A copy of this config with fields replaced."""
        return replace(self, **changes)


def paper_config(**overrides) -> TigerConfig:
    """The §5 testbed: 14 cubs x 4 disks, 2 Mbit/s, 602-stream capacity."""
    base = TigerConfig(
        num_cubs=14,
        disks_per_cub=4,
        block_play_time=1.0,
        max_bitrate_bps=2e6,
        decluster=4,
        streams_per_disk_override=10.75,
    )
    return base.with_overrides(**overrides) if overrides else base


def small_config(**overrides) -> TigerConfig:
    """A 4-cub, 8-disk system sized for fast unit/integration tests."""
    base = TigerConfig(
        num_cubs=4,
        disks_per_cub=2,
        block_play_time=1.0,
        max_bitrate_bps=2e6,
        decluster=2,
        streams_per_disk_override=4.0,
    )
    return base.with_overrides(**overrides) if overrides else base
