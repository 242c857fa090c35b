"""The helper node: an edge cache that serves blocks ahead of the cubs.

A :class:`HelperNode` is written against the same Runtime/Transport
contracts as the cubs and the controller (``sim`` provides ``now`` and
timers, ``network`` provides ``send``/``send_paced``), so the identical
class runs on the DES and as one OS process per helper on the live
asyncio backend.

Protocol (all payloads in :mod:`repro.core.protocol`, wire-registered
in :mod:`repro.live.wire`):

* viewer -> helper :class:`~repro.core.protocol.HelperProbe` — answered
  with :class:`~repro.core.protocol.HelperHit` (the helper then streams
  :class:`~repro.core.protocol.BlockData` at the cubs' pacing and the
  schedule slot is never claimed) or
  :class:`~repro.core.protocol.HelperMiss` (the viewer starts normally
  and the helper begins a paced background **warm fill** of the file so
  later viewers hit);
* helper -> cub :class:`~repro.core.protocol.HelperFetch` — an
  off-schedule block read from the owning cub's spare bandwidth,
  answered by :class:`~repro.core.protocol.HelperFetchReply` (the
  cub-side half is :class:`HelperFetchService` below, attached to
  every cub by :func:`repro.helpers.attach_helpers`);
* anyone -> helper :class:`~repro.core.protocol.HelperInvalidate` —
  purge a file from the cache (content replaced/restriped).

The helper holds **no schedule state**: it never talks to the
controller, never claims a slot, and never touches the oracle.
Killing one mid-stream therefore cannot violate a schedule invariant;
the viewer's watchdog simply falls back to an origin start at its
current position (see :class:`repro.helpers.client.HelperClient`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.config import TigerConfig
from repro.core.protocol import (
    BlockData,
    HelperCancel,
    HelperFetch,
    HelperFetchReply,
    HelperHit,
    HelperInvalidate,
    HelperMiss,
    HelperProbe,
    block_pattern,
    cub_address,
)
from repro.helpers.directory import helper_address
from repro.helpers.policy import LruCache
from repro.net.message import KIND_DATA, REQUEST_BYTES, Message
from repro.net.node import NetworkNode
from repro.obs.registry import MetricsRegistry, snapshot_total
from repro.storage.catalog import Catalog
from repro.storage.layout import StripeLayout

if TYPE_CHECKING:
    from repro.core.cub import Cub

#: Blocks kept requested ahead of each active play point.
PREFETCH_LEAD = 4

#: Re-issue an unanswered fetch after this many block-play times.
FETCH_RETRY_BLOCKS = 2.0

#: Give up on serving one block after this many block-play times of
#: retrying (the client records the gap; the stream keeps going).
SERVE_GIVE_UP_BLOCKS = 2.0


@dataclass
class _HelperStream:
    """One cache-served play in progress."""

    viewer_id: str
    instance: int
    file_id: int
    first_block: int
    started_at: float
    seqno: int = 0
    retry_since: Optional[float] = None
    cancelled: bool = field(default=False)


def make_helper(world: Any, helper_id: int) -> "HelperNode":
    """Helper ``helper:<helper_id>`` on ``world``'s backend and content."""
    return HelperNode(
        world.runtime, helper_id, world.config, world.catalog, world.layout,
        world.network, world.tracer, world.registry,
    )


def origin_offload_ratio(snapshot: Dict[str, Any]) -> float:
    """Fraction of whole blocks the helper tier served instead of the
    cub schedule, from a registry snapshot (one process's, or the live
    cluster's merged node snapshots): ``helper.blocks_served`` over it
    plus ``cub.blocks_sent``."""
    cached = snapshot_total(snapshot, "helper.blocks_served")
    total = cached + snapshot_total(snapshot, "cub.blocks_sent")
    return cached / total if total else 0.0


class HelperNode(NetworkNode):
    """An edge cache node serving recently-streamed blocks, an LRU
    cache of ``config.helper_capacity`` blocks."""

    def __init__(
        self,
        sim,
        helper_id: int,
        config: TigerConfig,
        catalog: Catalog,
        layout: StripeLayout,
        network,
        tracer=None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(sim, helper_address(helper_id), tracer)
        self.helper_id = helper_id
        self.config = config
        self.catalog = catalog
        self.layout = layout
        self.network = network
        self.cache = LruCache(config.helper_capacity)

        #: Cache-served plays by instance id.
        self._streams: Dict[int, _HelperStream] = {}
        #: Outstanding fetches: (file_id, block) -> request time.
        self._pending_fills: Dict[tuple, float] = {}
        #: Background warm fills: file_id -> (next block, start block).
        self._warming: Dict[int, tuple] = {}

        self.registry = registry if registry is not None else MetricsRegistry()
        metric = self.registry.counter
        self.hits = metric(
            "helper.hits", help="Probes answered from cache",
            unit="probes", helper=helper_id)
        self.misses = metric(
            "helper.misses", help="Probes sent back to the origin tier",
            unit="probes", helper=helper_id)
        self.evictions = metric(
            "helper.evictions", help="Blocks evicted by the cache",
            unit="blocks", helper=helper_id)
        self.blocks_served = metric(
            "helper.blocks_served", help="Blocks served from cache",
            unit="blocks", helper=helper_id)
        self.bytes_served = metric(
            "helper.bytes_served", help="Content bytes served from cache",
            unit="bytes", helper=helper_id)
        self.fills = metric(
            "helper.fills", help="Fetch replies inserted into the cache",
            unit="blocks", helper=helper_id)
        self.serve_misses = metric(
            "helper.serve_misses",
            help="Blocks a cache-served stream had to skip",
            unit="blocks", helper=helper_id)
        self.invalidations = metric(
            "helper.invalidations", help="Blocks purged by invalidation",
            unit="blocks", helper=helper_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Helpers are purely reactive; nothing to arm."""

    def fail(self) -> None:
        """Power off: timers die, streams and cache state are lost."""
        super().fail()
        self._streams.clear()
        self._pending_fills.clear()
        self._warming.clear()

    def recover(self) -> None:
        """Reboot with a cold cache of the same capacity."""
        super().recover()
        self.cache = LruCache(self.config.helper_capacity)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, HelperProbe):
            self._on_probe(payload)
        elif isinstance(payload, HelperFetchReply):
            self._on_fetch_reply(payload)
        elif isinstance(payload, HelperInvalidate):
            self._on_invalidate(payload)
        elif isinstance(payload, HelperCancel):
            stream = self._streams.pop(payload.instance, None)
            if stream is not None:
                stream.cancelled = True
        else:
            raise TypeError(
                f"{self.name}: unexpected payload {type(payload).__name__}"
            )

    # ------------------------------------------------------------------
    # Probe path
    # ------------------------------------------------------------------
    def _on_probe(self, probe: HelperProbe) -> None:
        client = _client_address(probe.viewer_id)
        key = (probe.file_id, probe.first_block)
        cached = self.cache.capacity > 0 and self.cache.touch(key)
        # A flash crowd arrives faster than one cache fill completes:
        # everyone after the very first viewer would miss while the
        # warm fill is still in flight.  A probe at or past an active
        # warm's origin joins it instead — the serve loop waits out the
        # fill on its retry grid, so the herd is absorbed by a single
        # paced fill stream rather than stampeding the cub schedule.
        warm = self._warming.get(probe.file_id)
        joining = (
            not cached
            and warm is not None
            and probe.first_block >= warm[1]
        )
        if cached or joining:
            self.hits.increment()
            self.trace(
                "helper.hit",
                "joining in-flight warm fill" if joining
                else "serving from cache",
                viewer=probe.viewer_id, file=probe.file_id,
                block=probe.first_block,
            )
            self._send(client, HelperHit(probe.viewer_id, probe.instance,
                                         probe.file_id, probe.first_block))
            stream = _HelperStream(
                viewer_id=probe.viewer_id,
                instance=probe.instance,
                file_id=probe.file_id,
                first_block=probe.first_block,
                started_at=self.sim.now,
            )
            self._streams[probe.instance] = stream
            self._prefetch_ahead(stream)
            self.after(self.config.block_play_time, self._serve_step,
                       probe.instance)
        else:
            self.misses.increment()
            self.trace(
                "helper.miss", "redirecting to origin",
                viewer=probe.viewer_id, file=probe.file_id,
                block=probe.first_block,
            )
            self._send(client, HelperMiss(probe.viewer_id, probe.instance,
                                          probe.file_id, probe.first_block))
            if self.cache.capacity > 0:
                self._start_warm(probe.file_id, probe.first_block)

    def _send(self, destination: str, payload) -> None:
        self.network.send(
            Message(self.address, destination, payload, REQUEST_BYTES)
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _serve_step(self, instance: int) -> None:
        stream = self._streams.get(instance)
        if stream is None or stream.cancelled:
            return
        entry = self.catalog.get(stream.file_id)
        block = stream.first_block + stream.seqno
        if block >= entry.num_blocks:
            del self._streams[instance]
            return
        bpt = self.config.block_play_time
        key = (stream.file_id, block)
        if self.cache.touch(key):
            self._transmit(stream, entry, block)
            stream.retry_since = None
            self._prefetch_ahead(stream)
            if stream.first_block + stream.seqno < entry.num_blocks:
                self.after(bpt, self._serve_step, instance)
            else:
                del self._streams[instance]
            return
        # Not cached (fill lost or evicted under pressure): re-request
        # and retry on a fine grid, skipping the block if it never
        # arrives — the client records the gap, the stream carries on.
        now = self.sim.now
        if stream.retry_since is None:
            stream.retry_since = now
        self._request_fill(stream.file_id, block)
        if now - stream.retry_since > SERVE_GIVE_UP_BLOCKS * bpt:
            self.serve_misses.increment()
            stream.seqno += 1
            stream.retry_since = None
        self.after(bpt / 4.0, self._serve_step, instance)

    def _transmit(self, stream: _HelperStream, entry, block: int) -> None:
        final = block >= entry.num_blocks - 1
        payload = BlockData(
            viewer_id=stream.viewer_id,
            instance=stream.instance,
            file_id=stream.file_id,
            block_index=block,
            play_seqno=stream.seqno,
            final=final,
            pattern=block_pattern(stream.file_id, block),
        )
        size = entry.content_bytes_per_block
        self.network.send_paced(
            Message(
                self.address,
                _client_address(stream.viewer_id),
                payload,
                size,
                kind=KIND_DATA,
            ),
            pacing_duration=self.config.block_play_time,
        )
        self.blocks_served.increment()
        self.bytes_served.increment(size)
        stream.seqno += 1
        self.trace(
            "helper.serve", "served block from cache",
            viewer=stream.viewer_id, block=block, seqno=stream.seqno - 1,
        )

    def _prefetch_ahead(self, stream: _HelperStream) -> None:
        entry = self.catalog.get(stream.file_id)
        base = stream.first_block + stream.seqno
        for ahead in range(1, PREFETCH_LEAD + 1):
            block = base + ahead
            if block >= entry.num_blocks:
                break
            self._request_fill(stream.file_id, block)

    # ------------------------------------------------------------------
    # Cache fill
    # ------------------------------------------------------------------
    def _request_fill(self, file_id: int, block: int) -> None:
        key = (file_id, block)
        if key in self.cache:
            return
        now = self.sim.now
        requested = self._pending_fills.get(key)
        retry_after = FETCH_RETRY_BLOCKS * self.config.block_play_time
        if requested is not None and now - requested < retry_after:
            return
        self._pending_fills[key] = now
        entry = self.catalog.get(file_id)
        disk = self.layout.disk_of_block(entry.start_disk, block)
        owner = self.layout.cub_of_disk(disk)
        self._send(cub_address(owner), HelperFetch(file_id, block))

    def _on_fetch_reply(self, reply: HelperFetchReply) -> None:
        key = (reply.file_id, reply.block_index)
        self._pending_fills.pop(key, None)
        if self.cache.capacity == 0:
            return
        evicted = self.cache.insert(key)
        self.fills.increment()
        self.trace(
            "helper.fill", "cached block",
            file=reply.file_id, block=reply.block_index,
        )
        for victim in evicted:
            self.evictions.increment()
            self.trace(
                "helper.evict", "evicted block",
                file=victim[0], block=victim[1],
            )

    # ------------------------------------------------------------------
    # Warm fill
    # ------------------------------------------------------------------
    def _start_warm(self, file_id: int, first_block: int) -> None:
        """Shadow the origin stream: fetch one block per play time.

        Paced at the play rate, the fill point stays level with the
        origin-served viewer that missed — any viewer arriving later
        finds its start block already cached.
        """
        if file_id in self._warming:
            return
        self._warming[file_id] = (first_block, first_block)
        self._warm_step(file_id)

    def _warm_step(self, file_id: int) -> None:
        warm = self._warming.get(file_id)
        if warm is None:
            return
        next_block, start_block = warm
        entry = self.catalog.get(file_id)
        if next_block >= entry.num_blocks:
            del self._warming[file_id]
            return
        self._request_fill(file_id, next_block)
        self._warming[file_id] = (next_block + 1, start_block)
        self.after(self.config.block_play_time, self._warm_step, file_id)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _on_invalidate(self, payload: HelperInvalidate) -> None:
        purged = self.cache.invalidate_file(payload.file_id)
        self.invalidations.increment(purged)
        self._warming.pop(payload.file_id, None)
        for key in [k for k in self._pending_fills if k[0] == payload.file_id]:
            del self._pending_fills[key]
        self.trace(
            "helper.invalidate", "purged file from cache",
            file=payload.file_id, blocks=purged,
        )


class HelperFetchService:
    """The cub-side half of the fill protocol: serves ``HelperFetch``."""

    def __init__(self, cub: Cub) -> None:
        self.cub = cub
        self.served = cub.registry.counter(
            "cub.helper_fetches_served",
            help="Off-schedule cache-fill blocks sent to helper nodes",
            unit="blocks", cub=cub.cub_id)
        cub.handlers[HelperFetch] = self._on_fetch

    def _on_fetch(self, fetch: HelperFetch, requester: str) -> None:
        """Serve an off-schedule cache-fill read for a helper node.

        Fills ride the cub's spare disk/NIC bandwidth, outside the
        distributed schedule: the reply is paced like a normal block
        but never enters the slot machinery or the per-disk read
        queues, so a busy fill tier cannot cause a scheduled read to
        miss its deadline.  Counted as ``cub.helper_fetches_served``,
        deliberately *not* ``cub.blocks_sent``, so origin-offload
        measurements compare real schedule load.
        """
        cub = self.cub
        entry = cub.catalog.get(fetch.file_id)
        if not 0 <= fetch.block_index < entry.num_blocks:
            return
        disk_id = cub.layout.disk_of_block(entry.start_disk, fetch.block_index)
        if cub.layout.cub_of_disk(disk_id) != cub.cub_id:
            return  # the helper's layout view raced a restripe
        disk = cub.disks.get(disk_id)
        if disk is None or disk.failed:
            return  # dead drive: the helper retries and gives up
        size = entry.content_bytes_per_block
        cub.network.send_paced(
            Message(
                cub.address,
                requester,
                HelperFetchReply(
                    fetch.file_id, fetch.block_index,
                    block_pattern(fetch.file_id, fetch.block_index),
                ),
                size,
                kind=KIND_DATA,
            ),
            pacing_duration=cub.config.block_play_time,
        )
        cub.cpu.add_busy(cub.sim.now, size * cub.config.cpu_per_data_byte)
        self.served.increment()


def _client_address(viewer_id: str) -> str:
    """Viewers are named ``<client-address>#<stream>``."""
    return viewer_id.split("#", 1)[0]
