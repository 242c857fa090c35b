"""The helper node's block cache: least recently used goes first.

A helper's cache holds block *identities* — ``(file_id, block_index)``
pairs — because content in this reproduction is a 64-bit fingerprint
recomputable from identity (see :func:`repro.core.protocol.block_pattern`);
capacity is therefore accounted in blocks, and the cache's only job is
deciding which identity to forget when it is full.

The dict holds its keys in access order, so the victim is its first
key.  Order is set by the operations alone, never the wall clock or an
RNG, so a DES run and a live run that perform the same operations in
the same order make identical eviction decisions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Identity of one cached block.
BlockKey = Tuple[int, int]


class LruCache:
    """A bounded set of block keys that evicts the least recently used."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        #: Cached keys, least recently used first.
        self._entries: Dict[BlockKey, None] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._entries

    def touch(self, key: BlockKey) -> bool:
        """Record an access; returns True when the block is cached."""
        if key not in self._entries:
            return False
        del self._entries[key]
        self._entries[key] = None
        return True

    def insert(self, key: BlockKey) -> List[BlockKey]:
        """Add a block, returning the keys evicted to make room.

        At capacity 0 the key itself is the eviction — the cache
        admits nothing, so an inert capacity-0 helper never holds
        state.
        """
        if self.capacity == 0:
            return [key]
        if self.touch(key):
            return []
        self._entries[key] = None
        if len(self._entries) <= self.capacity:
            return []
        victim = next(iter(self._entries))
        del self._entries[victim]
        return [victim]

    def invalidate_file(self, file_id: int) -> int:
        """Drop every cached block of one file; returns the count."""
        stale = [key for key in self._entries if key[0] == file_id]
        for key in stale:
            del self._entries[key]
        return len(stale)
