"""The deterministic file -> helper map clients consult.

Tiger has no lookup service to ask "who caches this file?", and adding
one would put a round trip ahead of every start request.  Instead the
directory is a pure function of the deployment shape — the config's
helper count and capacity, and the catalog size — via the
contiguous-group formula :func:`repro.placement.group_pin`, so every
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
from repro.placement import group_pin


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
