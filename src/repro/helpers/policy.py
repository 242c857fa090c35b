"""Cache replacement policies for helper nodes.

A helper's cache holds block *identities* — ``(file_id, block_index)``
pairs — because content in this reproduction is a 64-bit fingerprint
recomputable from identity (see :func:`repro.core.protocol.block_pattern`);
capacity is therefore accounted in blocks, and a policy's only job is
deciding which identity to forget when the cache is full.

Three policies from the VoD caching literature are provided:

* **LRU** — the plain recency baseline;
* **segment popularity** — blocks belong to fixed-size file segments;
  the victim comes from the segment with the fewest recorded accesses
  (ties broken by recency), which protects the hot head segments of
  popular files the way segment-based proxy caches do;
* **interval caching** — Dan & Sitaram's observation that the most
  valuable blocks are the ones a *following* stream is about to
  re-read: blocks inside the read-ahead window of any active play
  point are protected, everything else is evicted LRU-first.

All policies are deterministic: ordering state is a logical operation
counter, never the wall clock or an RNG, so a DES run and a live run
that perform the same operations in the same order make identical
eviction decisions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.config import CACHE_POLICIES

#: Identity of one cached block.
BlockKey = Tuple[int, int]


class CachePolicy:
    """Base class: a bounded set of block keys with eviction choice."""

    name = "base"

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        #: key -> logical last-access tick (insertion order preserved).
        self._entries: Dict[BlockKey, int] = {}
        self._tick = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._entries

    def keys(self) -> Iterable[BlockKey]:
        return self._entries.keys()

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    # ------------------------------------------------------------------
    def touch(self, key: BlockKey) -> bool:
        """Record an access; returns True when the block is cached."""
        if key not in self._entries:
            return False
        self._entries[key] = self._next_tick()
        self._on_access(key)
        return True

    def insert(self, key: BlockKey) -> List[BlockKey]:
        """Add a block, returning the keys evicted to make room.

        At capacity 0 the key itself is the eviction — the cache
        admits nothing, so an inert capacity-0 helper never holds
        state.
        """
        if self.capacity == 0:
            return [key]
        if key in self._entries:
            self.touch(key)
            return []
        self._entries[key] = self._next_tick()
        self._on_access(key)
        evicted: List[BlockKey] = []
        while len(self._entries) > self.capacity:
            victim = self._pick_victim()
            del self._entries[victim]
            self._on_evict(victim)
            evicted.append(victim)
        return evicted

    def invalidate_file(self, file_id: int) -> int:
        """Drop every cached block of one file; returns the count."""
        stale = [key for key in self._entries if key[0] == file_id]
        for key in stale:
            del self._entries[key]
            self._on_evict(key)
        return len(stale)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _pick_victim(self) -> BlockKey:
        raise NotImplementedError

    def _on_access(self, key: BlockKey) -> None:
        pass

    def _on_evict(self, key: BlockKey) -> None:
        pass


class LruPolicy(CachePolicy):
    """Evict the least recently accessed block."""

    name = "lru"

    def _pick_victim(self) -> BlockKey:
        return min(self._entries, key=self._entries.__getitem__)


class SegmentPopularityPolicy(CachePolicy):
    """Evict from the least popular ``segment_blocks``-sized segment."""

    name = "segment"

    def __init__(self, capacity: int, segment_blocks: int = 16) -> None:
        super().__init__(capacity)
        if segment_blocks < 1:
            raise ValueError("segment_blocks must be >= 1")
        self.segment_blocks = segment_blocks
        #: (file_id, segment) -> access count, never decremented: a
        #: segment's popularity is its demand history, not its
        #: residency.
        self._popularity: Dict[Tuple[int, int], int] = {}

    def _segment_of(self, key: BlockKey) -> Tuple[int, int]:
        return (key[0], key[1] // self.segment_blocks)

    def _on_access(self, key: BlockKey) -> None:
        segment = self._segment_of(key)
        self._popularity[segment] = self._popularity.get(segment, 0) + 1

    def _pick_victim(self) -> BlockKey:
        return min(
            self._entries,
            key=lambda key: (
                self._popularity.get(self._segment_of(key), 0),
                self._entries[key],
            ),
        )


class IntervalCachePolicy(CachePolicy):
    """Protect blocks a following stream is about to re-read.

    The helper publishes its active play points via
    :meth:`set_play_points`; any cached block within ``window`` blocks
    *ahead* of a play point on the same file is in some stream's
    read-ahead interval and is evicted only as a last resort.
    Everything else goes LRU-first.
    """

    name = "interval"

    def __init__(self, capacity: int, window: int = 32) -> None:
        super().__init__(capacity)
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._play_points: List[Tuple[int, int]] = []

    def set_play_points(self, points: List[Tuple[int, int]]) -> None:
        """Active ``(file_id, next_block)`` pairs, from the helper."""
        self._play_points = list(points)

    def _protected(self, key: BlockKey) -> bool:
        file_id, block = key
        for point_file, point_block in self._play_points:
            if point_file == file_id and 0 <= block - point_block < self.window:
                return True
        return False

    def _pick_victim(self) -> BlockKey:
        return min(
            self._entries,
            key=lambda key: (self._protected(key), self._entries[key]),
        )


_POLICY_CLASSES = {
    LruPolicy.name: LruPolicy,
    SegmentPopularityPolicy.name: SegmentPopularityPolicy,
    IntervalCachePolicy.name: IntervalCachePolicy,
}


def make_policy(name: str, capacity: int) -> CachePolicy:
    """Instantiate a policy by name; unknown names raise ValueError."""
    cls: Optional[type] = _POLICY_CLASSES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown cache policy {name!r} (one of {', '.join(CACHE_POLICIES)})"
        )
    return cls(capacity)
