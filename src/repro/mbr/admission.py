"""Joint disk + network admission for multiple-bitrate streams (§3.2).

The single-bitrate system folds everything into one schedule because
"the ratio of disk usage to network usage is constant for all blocks".
With variable block sizes that breaks: "The time to read a block from
a disk includes a constant seek overhead, while the time to send one
to the network does not, so small blocks use proportionally more disk
than network.  Consequently ... whether the network or disk limits
performance may depend on the current set of playing files."

:class:`MbrAdmission` makes that sentence executable: it admits a
stream only if both the 2-D network schedule (NIC bandwidth) and the
per-disk service budget (seek-dominated for small blocks) still fit,
and reports which resource is binding.

The network schedule carries the timing, so "the specific time ordering
information in the disk schedule is not necessary ... entries in the
disk schedule are free to move around, as long as they're completed
before they're due at the network."  :func:`edf_feasible` is the test
that freedom needs: a read set is schedulable earliest-deadline-first
iff, for every deadline d, the service demand due by d fits in the time
until d.  :func:`periodic_stream_feasible` is its steady state, one
block per stream per period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.netschedule import NetworkSchedule
from repro.core.placement import (
    PlacementPolicy,
    SlotCandidate,
    make_placement_policy,
)
from repro.disk.model import DiskParameters
from repro.disk.zones import ZONE_OUTER

#: Which resource refused (or nearly refused) an admission.
LIMIT_NONE = "none"
LIMIT_DISK = "disk"
LIMIT_NETWORK = "network"


@dataclass
class AdmittedStream:
    """One admitted multiple-bitrate viewer."""

    viewer_id: str
    bitrate_bps: float
    block_bytes: int
    offset: float
    entry_id: int


class MbrAdmission:
    """Admission control for one cub's resources in a multi-bitrate Tiger.

    The model collapses the cub's ``num_disks`` drives into a pooled
    disk-time budget per block play time (valid because striping
    rotates every stream over every drive, so long-run per-drive load
    is the pooled mean — the same argument §3 makes for the
    single-bitrate system).
    """

    def __init__(
        self,
        disk_params: DiskParameters,
        num_disks: int,
        nic_bps: float,
        block_play_time: float,
        schedule_length: float,
        start_quantum: Optional[float] = None,
        disk_headroom: float = 1.0,
        placement: Optional[PlacementPolicy] = None,
    ) -> None:
        if num_disks < 1:
            raise ValueError("need at least one disk")
        if not 0 < disk_headroom <= 1.0:
            raise ValueError("disk headroom must be in (0, 1]")
        self.disk_params = disk_params
        self.num_disks = num_disks
        self.block_play_time = block_play_time
        self.start_quantum = start_quantum
        #: Fraction of disk time the admission may commit (the rest is
        #: the failed-mode reserve, exactly as in §2.3).
        self.disk_headroom = disk_headroom
        self.network = NetworkSchedule(
            schedule_length, nic_bps, block_play_time
        )
        #: Offset-placement policy; first-fit keeps find_offset's legacy
        #: soonest-after-preferred scan exactly.
        self.placement = (
            placement if placement is not None
            else make_placement_policy("first-fit")
        )
        self.streams: Dict[str, AdmittedStream] = {}
        self.rejections: Dict[str, int] = {LIMIT_DISK: 0, LIMIT_NETWORK: 0}

    # ------------------------------------------------------------------
    # Budgets
    # ------------------------------------------------------------------
    def disk_time_committed(self) -> float:
        """Expected disk seconds needed per block play time."""
        return sum(
            self.disk_params.expected_read_time(ZONE_OUTER, stream.block_bytes)
            for stream in self.streams.values()
        )

    def disk_budget(self) -> float:
        """Disk seconds available per block play time, pooled."""
        return self.num_disks * self.block_play_time * self.disk_headroom

    def disk_utilization(self) -> float:
        return self.disk_time_committed() / self.disk_budget()

    def limiting_resource(self) -> str:
        """Which resource is closer to exhaustion right now (§3.2)."""
        disk = self.disk_utilization()
        net = self.network.utilization()
        if disk < 0.01 and net < 0.01:
            return LIMIT_NONE
        return LIMIT_DISK if disk >= net else LIMIT_NETWORK

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def try_admit(
        self, viewer_id: str, bitrate_bps: float, preferred_offset: float = 0.0
    ) -> Optional[AdmittedStream]:
        """Admit a stream if both resources fit; None (and a rejection
        tally) otherwise."""
        if viewer_id in self.streams:
            raise ValueError(f"viewer {viewer_id!r} already admitted")
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        block_bytes = int(round(bitrate_bps * self.block_play_time / 8.0))

        read_time = self.disk_params.expected_read_time(ZONE_OUTER, block_bytes)
        if self.disk_time_committed() + read_time > self.disk_budget() + 1e-9:
            self.rejections[LIMIT_DISK] += 1
            return None

        offset = self._place_offset(bitrate_bps, preferred_offset)
        if offset is None:
            self.rejections[LIMIT_NETWORK] += 1
            return None

        entry = self.network.insert(viewer_id, offset, bitrate_bps)
        stream = AdmittedStream(
            viewer_id=viewer_id,
            bitrate_bps=bitrate_bps,
            block_bytes=block_bytes,
            offset=offset,
            entry_id=entry.entry_id,
        )
        self.streams[viewer_id] = stream
        return stream

    def _place_offset(
        self, bitrate_bps: float, preferred_offset: float
    ) -> Optional[float]:
        """Pick the start offset through the placement policy.

        Single-candidate policies take :meth:`NetworkSchedule.find_offset`'s
        legacy scan result untouched; look-ahead policies rank the first
        few feasible offsets, using the window's committed NIC load as
        the crowding signal.
        """
        policy = self.placement
        if policy.lookahead <= 1 and not policy.needs_crowding:
            return self.network.find_offset(
                bitrate_bps, after=preferred_offset, quantum=self.start_quantum
            )
        feasible = self.network.find_offsets(
            bitrate_bps,
            after=preferred_offset,
            quantum=self.start_quantum,
            limit=max(2, policy.lookahead * 4),
        )
        if not feasible:
            return None
        candidates = [
            SlotCandidate(
                rank,
                (offset - preferred_offset) % self.network.length,
                rank,
                self.network.peak_load_in(offset, self.network.width)
                / self.network.capacity_bps,
            )
            for rank, offset in enumerate(feasible)
        ]
        chosen = self.placement.choose(candidates)
        return feasible[chosen.rank]

    def release(self, viewer_id: str) -> bool:
        stream = self.streams.pop(viewer_id, None)
        if stream is None:
            return False
        self.network.remove(stream.entry_id)
        return True

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        return {
            "streams": float(len(self.streams)),
            "disk_utilization": self.disk_utilization(),
            "network_utilization": self.network.utilization(),
            "rejected_disk": float(self.rejections[LIMIT_DISK]),
            "rejected_network": float(self.rejections[LIMIT_NETWORK]),
        }


def run_mix_experiment(
    bitrates_bps: List[float],
    num_disks: int = 4,
    nic_bps: float = 155e6,
    block_play_time: float = 1.0,
    disk_headroom: float = 0.95,
) -> Dict[str, Union[float, str]]:
    """Admit-to-saturation for one bitrate mix on one cub.

    Streams of the given rates are offered round-robin until the first
    rejection, so the admitted set is the first ``streams`` offers.
    Returns the admission's :meth:`~MbrAdmission.summary` plus the
    ``limiting`` resource — the row of the bottleneck-crossover
    benchmark.
    """
    # Ring length = one block play time: this is the per-cub *slice* of
    # the system network schedule — every admitted stream's entry
    # overlaps every other at this cub's position, so the height check
    # is exactly "sum of bitrates <= NIC rate".
    admission = MbrAdmission(
        disk_params=DiskParameters(),
        num_disks=num_disks,
        nic_bps=nic_bps,
        block_play_time=block_play_time,
        schedule_length=block_play_time,
        start_quantum=block_play_time / 4,
        disk_headroom=disk_headroom,
    )
    offered = 0
    while True:
        rate = bitrates_bps[offered % len(bitrates_bps)]
        admitted = admission.try_admit(
            f"viewer-{offered}",
            rate,
            preferred_offset=(offered * 0.37) % admission.network.length,
        )
        offered += 1
        if admitted is None:
            break
        if offered > 100_000:  # safety valve
            break
    return {**admission.summary(), "limiting": admission.limiting_resource()}


def edf_feasible(
    jobs: Sequence[Tuple[float, float]], start_time: float = 0.0
) -> bool:
    """EDF demand test: ``jobs`` is (service_time, deadline) pairs.

    Feasible iff for every deadline d (in sorted order), the sum of
    service times of jobs with deadline <= d fits in ``d - start``.
    """
    demand = 0.0
    for service, deadline in sorted(jobs, key=lambda job: job[1]):
        if service < 0:
            raise ValueError("negative service time")
        demand += service
        if demand > (deadline - start_time) + 1e-9:
            return False
    return True


def periodic_stream_feasible(
    params: DiskParameters,
    block_sizes: Sequence[int],
    zone: str,
    period: float,
) -> bool:
    """Long-run feasibility of one disk serving one block per stream
    per ``period`` (the multiple-bitrate steady state): total expected
    service per period must fit in the period."""
    total = sum(
        params.expected_read_time(zone, size) for size in block_sizes
    )
    return total <= period + 1e-9
