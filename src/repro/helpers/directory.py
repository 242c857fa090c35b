"""The deterministic file -> helper map clients consult.

Tiger has no lookup service to ask "who caches this file?", and adding
one would put a round trip ahead of every start request.  Instead the
directory is a pure function of the deployment shape — the config's
helper count and capacity, and the catalog size — via the
contiguous-group formula :func:`group_pin`, so every
client and every helper agree on the mapping without exchanging a
single message.

Eligibility is strict: a directory with no helpers *or* zero cache
capacity answers ``None`` for every file, and the client then follows
the classic start path untouched.  That makes the capacity-0 helper
tier provably inert — no probe, no fetch, no extra message — which is
what keeps chaos fingerprints bit-identical to the no-helper baseline.
"""

from __future__ import annotations

from typing import Optional

from repro.config import TigerConfig


def group_pin(item: int, groups: int, total: int) -> int:
    """Map ``item`` of ``total`` onto one of ``groups`` contiguous groups.

    Items ``[0, total)`` are split into ``groups`` contiguous runs whose
    sizes differ by at most one; returns the zero-based group of
    ``item``.  With ``groups >= total`` this degenerates to the
    identity, and out-of-range items are clamped rather than rejected
    (a file catalog can grow past the size the directory was sized
    for — the clamp keeps the mapping total).
    """
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    item = min(max(item, 0), total - 1)
    return item * groups // total


def helper_address(helper_id: int) -> str:
    """Network address of one helper (mirrors ``cub_address``)."""
    return f"helper:{helper_id}"


class HelperDirectory:
    """Pure-function routing of files onto helper caches."""

    def __init__(self, config: TigerConfig) -> None:
        self.num_helpers = config.helpers
        self.capacity = config.helper_capacity

    @property
    def active(self) -> bool:
        """Whether the tier can serve anything at all."""
        return self.num_helpers > 0 and self.capacity > 0

    def helper_for(self, file_id: int, num_files: int) -> Optional[str]:
        """Address of the helper responsible for ``file_id``.

        Returns None when the tier is inert (no helpers, or capacity
        0) — callers then take the origin path with no extra traffic.
        """
        if not self.active or num_files < 1:
            return None
        return helper_address(
            group_pin(file_id, min(self.num_helpers, num_files), num_files)
        )

    def helper_id_for(self, file_id: int, num_files: int) -> Optional[int]:
        """The responsible helper's id (placement tests, scenarios)."""
        address = self.helper_for(file_id, num_files)
        if address is None:
            return None
        return int(address.split(":", 1)[1])
