"""The viewer half of the helper tier: probe first, fall back to the origin.

:class:`HelperClient` plugs into a :class:`~repro.core.client.ViewerClient`
through its hooks — the ``handlers`` table, the one start path
(``request_play``), the one stop path (``release_play``) and the
``source_tiers`` lateness labels — as :class:`~repro.helpers.node
.HelperFetchService` plugs into a cub.  A start probes the file's
helper: on a hit the helper serves the play and no slot is claimed; on
a miss, or an unanswered probe (a dead helper), the origin path runs.
A watchdog resumes a play at the origin, from its current position, if
its helper dies mid-stream (a new play instance, as a VCR resume is,
§4.1.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.protocol import HelperCancel, HelperHit, HelperMiss, HelperProbe
from repro.helpers.directory import HelperDirectory, helper_address

if TYPE_CHECKING:
    from repro.core.client import StreamMonitor, ViewerClient


class HelperClient:
    """Probe, hit/miss, probe timeout, watchdog, fallback and cancel."""

    #: An unanswered probe after this long means the helper is dead.
    PROBE_TIMEOUT = 1.5

    def __init__(self, client: ViewerClient) -> None:
        self.client = client
        self.directory = HelperDirectory(client.config)
        self.fallbacks = client.registry.counter(
            "client.helper_fallbacks",
            help="Helper-served streams rescued via the origin tier",
            unit="streams", client=client.address)
        #: Probes awaiting a helper's hit/miss answer.
        self._pending: set = set()
        #: Cache-served instances -> serving helper's address.
        self._served: Dict[int, str] = {}
        #: Instances already started against the origin tier (guards
        #: against a probe timeout racing a late HelperMiss).
        self._origin_started: set = set()
        client.handlers[HelperHit] = self._on_hit
        client.handlers[HelperMiss] = self._on_miss
        client.request_play = self._request
        client.release_play = self._release
        client.source_tiers.update(
            (helper_address(helper), "helper")
            for helper in range(self.directory.num_helpers)
        )

    def _request(self, monitor: StreamMonitor) -> None:
        helper = self.directory.helper_for(monitor.file_id, len(self.client.catalog))
        if helper is None:
            self._request_origin(monitor)
            return
        self._pending.add(monitor.instance)
        self.client.send_request(helper, HelperProbe(
            monitor.viewer_id, monitor.instance, monitor.file_id,
            monitor.first_block,
        ))
        self.client.after(self.PROBE_TIMEOUT, self._probe_timeout, monitor)

    def _request_origin(self, monitor: StreamMonitor) -> None:
        if monitor.instance not in self._origin_started:
            self._origin_started.add(monitor.instance)
            self.client.request_origin(monitor)

    def _release(self, monitor: StreamMonitor) -> None:
        helper = self._served.pop(monitor.instance, None)
        if helper is not None:
            # Cache-served play: nothing in the schedule to release.
            self.client.send_request(
                helper, HelperCancel(monitor.viewer_id, monitor.instance)
            )
        elif monitor.instance not in self._pending:
            # (A probe in flight is answered by a hit or a miss that
            # sees the stopped monitor and cancels, or never starts.)
            self.client.release_origin(monitor)

    def _on_hit(self, hit: HelperHit, helper: str) -> None:
        client = self.client
        self._pending.discard(hit.instance)
        monitor = client.streams.get(hit.instance)
        if monitor is None or monitor.stopped:
            # Stopped while the probe was in flight: tell the helper.
            client.send_request(helper, HelperCancel(hit.viewer_id, hit.instance))
            return
        self._served[hit.instance] = helper
        client.after(
            client.late_tolerance + 2 * client.config.block_play_time,
            self._watchdog, monitor,
        )

    def _on_miss(self, miss: HelperMiss, _helper: str) -> None:
        self._pending.discard(miss.instance)
        monitor = self.client.streams.get(miss.instance)
        if monitor is not None and not monitor.stopped:
            self._request_origin(monitor)

    def _probe_timeout(self, monitor: StreamMonitor) -> None:
        """No hit/miss answer: the helper is dead — use the origin."""
        if monitor.instance not in self._pending:
            return
        self._pending.discard(monitor.instance)
        if not monitor.stopped:
            self.client.trace(
                "helper.fallback", "probe unanswered, starting at origin",
                viewer=monitor.viewer_id, file=monitor.file_id,
            )
            self._request_origin(monitor)

    def _watchdog(self, monitor: StreamMonitor) -> None:
        """Detect a helper dying mid-stream; resume at the origin.

        A helper owns no schedule state, so its death cannot violate an
        invariant — the viewer just stops receiving.
        """
        client = self.client
        if monitor.instance not in self._served:
            return
        if monitor.stopped or monitor.finished:
            del self._served[monitor.instance]
            return
        bpt = client.config.block_play_time
        # Stalled: a hit promised data and none came, or the play is
        # past a generous bound — a transient cache-fill stall can skip
        # a block (~2 play times) without being read as a death.
        if (
            monitor.first_block_time is not None
            and client.sim.now <= monitor.deadline(monitor.next_seqno) + 3 * bpt
        ):
            client.after(bpt, self._watchdog, monitor)
            return
        del self._served[monitor.instance]
        monitor.stopped = True
        self.fallbacks.increment()
        resume_block = monitor.first_block + monitor.next_seqno
        client.trace(
            "helper.fallback", "helper stalled, resuming at origin",
            viewer=monitor.viewer_id, file=monitor.file_id,
            block=resume_block,
        )
        self._request_origin(client.open_stream(monitor.file_id, resume_block))
