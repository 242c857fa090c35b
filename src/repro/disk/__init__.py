"""Zoned disk model: geometry, service times, simulated drives, failures."""

from repro.disk.drive import SimDisk
from repro.disk.model import (
    DiskParameters,
    unfailed_utilization_at_capacity,
    worst_case_streams_per_disk,
)
from repro.disk.zones import ULTRASTAR_LIKE, ZONE_INNER, ZONE_OUTER, ZoneGeometry

__all__ = [
    "SimDisk",
    "DiskParameters",
    "ZoneGeometry",
    "ULTRASTAR_LIKE",
    "ZONE_INNER",
    "ZONE_OUTER",
    "worst_case_streams_per_disk",
    "unfailed_utilization_at_capacity",
]
