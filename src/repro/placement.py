"""Contiguous-group placement arithmetic.

The helper tier maps files onto helper caches in contiguous groups.
Every client and helper works the mapping out for itself, without a
message, so the formula lives in one place instead of being repeated
(and drifting) at each call site.
"""

from __future__ import annotations


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
