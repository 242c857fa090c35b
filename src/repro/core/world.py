"""The one assembly: deterministic substrate plus the backend it was handed.

A :class:`World` holds everything a Tiger node is built from.  The
**substrate** — stripe layout, mirror scheme, slot clock, catalog and
the placement table every cub's block index reads — is a pure function
of the config (the paper distributes file metadata out of band too,
§2.2), so every process that builds a world from the same config holds
byte-identical content state with no distribution protocol.  The
**backend** — runtime, transport, metrics registry, tracer, seeded RNG
registry — is whatever the caller passes in; the class has no notion of
which one it got.

It is also the only place the four protocol classes are constructed
(``make_cub`` … ``make_client``), so a node is wired identically
wherever it runs.  It imports no optional tier: each builds its own
nodes from a world and is attached to the nodes built here by the host
that built them (:func:`repro.helpers.attach_helpers`,
:func:`repro.storage.rebalance.attach_restripe`).  Three bindings exist:

* :class:`~repro.core.tiger.TigerSystem` — ``Simulator`` +
  ``SwitchedNetwork``, builds every node;
* a live node process (:mod:`repro.live.node`) — ``LiveRuntime`` +
  ``NodeTransport``, builds the one node its spec names;
* the live driver (:class:`~repro.live.cluster.LiveCluster`) —
  ``LiveRuntime`` + ``HubTransport``, builds the viewer clients.

The ``make_*`` methods only construct.  Attaching the node to a fabric
(``network.register``, ``hub.local``) and remembering it is the
caller's business, because that is where the bindings differ.  Each
imports its protocol class when first called, so a process imports
only the classes of the nodes it builds: a live controller never loads
the cub, and no live node loads the viewer client.

The substrate needs no backend, so a live node builds its world before
it joins, with no runtime or transport, and :meth:`World.bind` hands
them in once the cluster's epoch is fixed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.config import TigerConfig
from repro.core.slots import SlotClock
from repro.storage.blockindex import BlockIndex, PlacementTable
from repro.storage.catalog import MODE_SINGLE_BITRATE, Catalog, TigerFile
from repro.storage.layout import StripeLayout
from repro.storage.mirror import MirrorScheme

if TYPE_CHECKING:
    from repro.core.client import ViewerClient
    from repro.core.controller import Controller
    from repro.core.cub import Cub
    from repro.core.failover import BackupController


class World:
    """Substrate + backend + the four protocol-class constructors."""

    def __init__(
        self,
        config: TigerConfig,
        runtime: Any,
        network: Any,
        registry: Any,
        tracer: Any,
        rngs: Any,
    ) -> None:
        self.config = config
        #: The :class:`~repro.runtime.Runtime` every node built here
        #: runs on.
        self.runtime = runtime
        #: The :class:`~repro.runtime.Transport` they send through.
        self.network = network
        self.registry = registry
        self.tracer = tracer
        self.rngs = rngs

        self.layout = StripeLayout(config.num_cubs, config.disks_per_cub)
        self.mirror = MirrorScheme(self.layout, config.decluster)
        self.clock = SlotClock(
            num_disks=config.num_disks,
            num_slots=config.num_slots,
            block_play_time=config.block_play_time,
        )
        self.catalog = Catalog(config.block_play_time, config.num_disks)
        #: Every file's block and piece placement, kept once; each cub's
        #: index reads its own disks' share of it.
        self.placement = PlacementTable(self.mirror)
        self.indexes: List[BlockIndex] = [
            BlockIndex(self.placement, cub_id)
            for cub_id in range(config.num_cubs)
        ]

    def bind(self, runtime: Any, network: Any) -> None:
        """Hand in the runtime and transport of a world built without
        them; nodes made after this run on them."""
        self.runtime = runtime
        self.network = network

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------
    def add_file(
        self,
        name: str,
        duration_s: float,
        bitrate_bps: Optional[float] = None,
        start_disk: Optional[int] = None,
    ) -> TigerFile:
        """Stripe a file across every disk and index it on every cub.

        Places the primary location and the ``decluster`` secondary
        pieces of every block in the world's one placement table, which
        every cub's in-memory block index reads (§2.2, §2.3, §4.1.1).
        """
        config = self.config
        rate = bitrate_bps if bitrate_bps is not None else config.max_bitrate_bps
        entry = self.catalog.add_file(name, rate, duration_s, start_disk)
        stored = entry.stored_bytes_per_block(
            MODE_SINGLE_BITRATE, config.max_bitrate_bps
        )
        self.placement.add_file(
            entry.file_id,
            entry.start_disk,
            entry.num_blocks,
            stored,
            self.mirror.piece_size(stored),
        )
        return entry

    def add_standard_content(
        self, num_files: int = 16, duration_s: float = 600.0
    ) -> List[TigerFile]:
        """A library of equal-length maximum-rate files (the paper's
        64 one-hour test-pattern files, scaled for simulation).

        File ids, start disks and block placement are a pure function
        of ``(config, num_files, duration_s)``, which is what lets a
        DES run and every process of a live cluster see identical
        content."""
        return [
            self.add_file(f"content-{index:03d}", duration_s)
            for index in range(num_files)
        ]

    # ------------------------------------------------------------------
    # Protocol nodes
    # ------------------------------------------------------------------
    def make_cub(self, cub_id: int, forward_copies: int = 2) -> Cub:
        from repro.core.cub import Cub

        return Cub(
            sim=self.runtime,
            cub_id=cub_id,
            config=self.config,
            layout=self.layout,
            catalog=self.catalog,
            clock=self.clock,
            network=self.network,
            rngs=self.rngs,
            block_index=self.indexes[cub_id],
            tracer=self.tracer,
            forward_copies=forward_copies,
            registry=self.registry,
        )

    def make_controller(self) -> Controller:
        from repro.core.controller import Controller

        return Controller(
            sim=self.runtime,
            config=self.config,
            layout=self.layout,
            catalog=self.catalog,
            clock=self.clock,
            network=self.network,
            tracer=self.tracer,
            registry=self.registry,
        )

    def make_backup_controller(
        self, takeover_timeout: Optional[float] = None
    ) -> BackupController:
        from repro.core.failover import BackupController

        return BackupController(
            sim=self.runtime,
            config=self.config,
            layout=self.layout,
            catalog=self.catalog,
            clock=self.clock,
            network=self.network,
            tracer=self.tracer,
            takeover_timeout=takeover_timeout,
            registry=self.registry,
        )

    def make_client(
        self,
        index: int,
        backup: Optional[str] = None,
    ) -> ViewerClient:
        """Viewer machine ``client:<index>``; ``backup`` is the address
        unacknowledged starts are retried against, if any."""
        from repro.core.client import ViewerClient

        return ViewerClient(
            sim=self.runtime,
            address=f"client:{index}",
            config=self.config,
            catalog=self.catalog,
            network=self.network,
            tracer=self.tracer,
            backup_controller=backup,
            registry=self.registry,
        )
