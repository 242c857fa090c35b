"""Edge helper/cache tier that offloads the cub origin tier.

Tiger's cubs are the sole serving tier in the paper: every block of
every viewer rides the distributed schedule, even when thousands of
viewers replay the same hot movie.  This package adds the optional
helper tier the ROADMAP names — plug-in cache nodes in the style of
the P2P-VoD literature (adaptive plug-and-play helpers; the
Viennot et al. offload-vs-cache-size bounds) that serve
recently-streamed blocks ahead of the cubs:

* :mod:`repro.helpers.policy` — the LRU block cache, with capacity
  accounting;
* :mod:`repro.helpers.directory` — the deterministic file -> helper
  map clients consult before touching the schedule;
* :mod:`repro.helpers.node` — :class:`HelperNode`, written against the
  Runtime/Transport contracts so the identical code runs on the DES
  and the live asyncio backend, and the cub-side fill service;
* :mod:`repro.helpers.client` — the viewer-side probe and fallback;
* :mod:`repro.helpers.scenarios` — hot-movie-premiere and flash-crowd
  experiments measuring origin offload vs. the no-helper baseline.

A helper is strictly an accelerator: it owns no schedule state, so a
dead helper degrades to origin service (the client falls back to a
normal start request at its current position) with zero invariant
violations, and a helper tier at capacity 0 is completely inert —
chaos fingerprints with capacity-0 helpers are bit-identical to the
no-helper baseline.
"""

from typing import Any

from repro.helpers.client import HelperClient
from repro.helpers.directory import HelperDirectory, helper_address
from repro.helpers.node import HelperFetchService, HelperNode

__all__ = [
    "HelperDirectory",
    "HelperNode",
    "attach_helpers",
    "helper_address",
]


def attach_helpers(node: Any) -> None:
    """The helper tier's plug, for every cub and viewer client a host
    builds: a cub always answers fills (a live cub cannot know whether a
    helper will fetch); a client probes helpers if the tier can serve."""
    from repro.core.cub import Cub  # loaded wherever a cub is built

    if isinstance(node, Cub):
        HelperFetchService(node)
    elif HelperDirectory(node.config).active:
        HelperClient(node)
