"""File catalog: the content stored on a Tiger system.

Files are striped in blocks of equal *duration* (the block play time,
identical for every file in a system, §2.2).  In a **single-bitrate**
server every block is the size of a maximum-rate block; slower files
suffer internal fragmentation.  In a **multiple-bitrate** server block
size is proportional to the file's bitrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional

#: Server block-sizing policies.
MODE_SINGLE_BITRATE = "single"
MODE_MULTIPLE_BITRATE = "multiple"


@dataclass(frozen=True)
class TigerFile:
    """One piece of content.

    Attributes
    ----------
    file_id:
        Dense integer id assigned by the catalog.
    name:
        Human-readable name.
    bitrate_bps:
        Playback rate in bits per second.
    duration_s:
        Total play time in seconds.
    block_play_time:
        The system-wide block duration this file was laid out with.
    start_disk:
        Disk holding block 0.
    """

    file_id: int
    name: str
    bitrate_bps: float
    duration_s: float
    block_play_time: float
    start_disk: int

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.block_play_time <= 0:
            raise ValueError("block play time must be positive")

    # The two derived sizes are computed once per (frozen) file: the
    # block path reads them for every block sent.
    @cached_property
    def num_blocks(self) -> int:
        """Blocks needed to cover the duration (last may be partial)."""
        return max(1, math.ceil(self.duration_s / self.block_play_time - 1e-9))

    @cached_property
    def content_bytes_per_block(self) -> int:
        """Actual content bytes in one full-duration block."""
        return int(round(self.bitrate_bps * self.block_play_time / 8.0))

    def stored_bytes_per_block(self, mode: str, max_bitrate_bps: float) -> int:
        """On-disk block size under the server's sizing policy.

        Single-bitrate servers allocate every block at the configured
        maximum rate (internal fragmentation for slower files);
        multiple-bitrate servers store exactly the content bytes.
        """
        if mode == MODE_SINGLE_BITRATE:
            if self.bitrate_bps > max_bitrate_bps + 1e-9:
                raise ValueError(
                    f"file {self.name!r} bitrate {self.bitrate_bps} exceeds "
                    f"configured maximum {max_bitrate_bps}"
                )
            return int(round(max_bitrate_bps * self.block_play_time / 8.0))
        if mode == MODE_MULTIPLE_BITRATE:
            return self.content_bytes_per_block
        raise ValueError(f"unknown mode {mode!r}")

    def internal_fragmentation(self, mode: str, max_bitrate_bps: float) -> float:
        """Wasted fraction of each stored block (0 for multiple-bitrate)."""
        stored = self.stored_bytes_per_block(mode, max_bitrate_bps)
        return 1.0 - self.content_bytes_per_block / stored if stored else 0.0


class Catalog:
    """The set of files resident on a Tiger system."""

    def __init__(self, block_play_time: float, num_disks: int) -> None:
        if block_play_time <= 0:
            raise ValueError("block play time must be positive")
        if num_disks < 1:
            raise ValueError("need at least one disk")
        self.block_play_time = block_play_time
        self.num_disks = num_disks
        self._files: Dict[int, TigerFile] = {}
        self._by_name: Dict[str, int] = {}
        self._next_start_disk = 0

    def add_file(
        self,
        name: str,
        bitrate_bps: float,
        duration_s: float,
        start_disk: Optional[int] = None,
    ) -> TigerFile:
        """Register a file; start disks default to round-robin placement."""
        if name in self._by_name:
            raise ValueError(f"duplicate file name {name!r}")
        if start_disk is None:
            start_disk = self._next_start_disk
            self._next_start_disk = (self._next_start_disk + 1) % self.num_disks
        if not 0 <= start_disk < self.num_disks:
            raise ValueError(f"start disk {start_disk} out of range")
        file_id = len(self._files)
        entry = TigerFile(
            file_id=file_id,
            name=name,
            bitrate_bps=bitrate_bps,
            duration_s=duration_s,
            block_play_time=self.block_play_time,
            start_disk=start_disk,
        )
        self._files[file_id] = entry
        self._by_name[name] = file_id
        return entry

    def get(self, file_id: int) -> TigerFile:
        return self._files[file_id]

    def by_name(self, name: str) -> TigerFile:
        return self._files[self._by_name[name]]

    def files(self) -> List[TigerFile]:
        return list(self._files.values())

    def __len__(self) -> int:
        return len(self._files)

    def __iter__(self) -> Iterator[TigerFile]:
        return iter(self._files.values())

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
