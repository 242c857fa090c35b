"""In-memory span recorder for the traced benchmark run.

The timed runs execute the program untouched.  The traced run installs
wrappers, from this file only, around the calls *into* each layer
(`SwitchedNetwork.send`, `SimDisk.read`, `Cub.handle_message`, ...) and
takes the root span of every kernel event from the public
``Simulator.set_profiler`` hook.  A span is (name, layer, start, end,
parent, event id); a layer's *self time* is its spans' duration minus the
part their child spans cover, accumulated as spans close.  Spans are kept
in memory (bounded by ``span_cap``) and written once, at the end, as a
Chrome trace through :func:`repro.obs.export.write_chrome_trace`.

Nothing here is imported by the timed path, and :meth:`SpanRecorder.uninstall`
restores every patched attribute, so a traced repeat leaves the process
exactly as it found it.
"""

from __future__ import annotations

import gc
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer, longest prefix first (layer = package under
#: ``src/repro``; ``repro.core`` is split by what the module implements).
LAYER_OF_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.core.controller", "controller"),
    ("repro.core.failover", "controller"),
    ("repro.core.client", "client"),
    ("repro.core.placement", "placement"),
    ("repro.core.netschedule", "placement"),
    ("repro.core", "cub"),
    ("repro.sim.stats", "obs"),
    ("repro.sim.trace", "obs"),
    ("repro.obs", "obs"),
    ("repro.sim", "sim"),
    ("repro.net", "net"),
    ("repro.disk", "disk"),
    ("repro.storage", "storage"),
    ("repro.workloads", "workload"),
    ("repro.live.wire", "wire"),
    ("repro.live", "hub"),
)

#: Layers whose self time is reported; anything else is "other" and
#: counts as unattributed.
LAYERS = (
    "sim", "net", "disk", "storage", "cub", "controller", "client",
    "placement", "obs", "workload", "wire.encode", "wire.decode", "hub.route",
    "gc",
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to (``"other"`` outside the map)."""
    if module:
        if module in _WORKLOAD_MODULES:
            return "workload"
        for prefix, layer in LAYER_OF_MODULE:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


#: The benchmark's own load generators (``python benchmarks/perf/run.py``
#: puts this directory on sys.path, so they are top-level modules).
_WORKLOAD_MODULES = {"workloads", "live", "run", "__main__"}


class SpanRecorder:
    """Collects spans and per-layer exclusive time.

    :param keep_spans: Retain span tuples for export (``--trace-out``).
    :param span_cap: Retain at most this many; later spans still count
        toward self time and call counts.
    """

    def __init__(self, keep_spans: bool = False, span_cap: int = 200_000) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Open wrapper spans, innermost last: [child seconds, span id].
        self._stack: List[List[float]] = []
        #: Seconds of closed top-level wrapper spans since the last root.
        self._root_children = 0.0
        #: Total seconds inside root (kernel event) spans.
        self.root_s = 0.0
        self.events = 0
        self.spans: Optional[List[Tuple[str, str, float, float, int, int]]] = (
            [] if keep_spans else None
        )
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._next_id = 0
        self._root_layer: Dict[Any, str] = {}
        #: Largest send-queue depth seen on any hub connection (bytes).
        self.sendq_peak_bytes = 0
        self._gc_started = 0.0
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Root spans: the Simulator.set_profiler hook
    # ------------------------------------------------------------------
    def record(self, fn: Callable[..., Any], wall_s: float, sim_now: float) -> None:
        """Kernel hook: one dispatched event took ``wall_s`` seconds."""
        try:
            layer = self._root_layer[fn]
        except (KeyError, TypeError):
            layer = _callback_layer(fn)
            try:
                if len(self._root_layer) < 50_000:
                    self._root_layer[fn] = layer
            except TypeError:
                pass
        self.self_s[layer] += wall_s - self._root_children
        self.calls[layer] += 1
        self.root_s += wall_s
        self._root_children = 0.0
        if self.spans is not None:
            end = perf_counter()
            self._keep(_callback_name(fn), layer, end - wall_s, end, -1)
        self.events += 1

    def _keep(self, name: str, layer: str, start: float, end: float, parent: int) -> None:
        if len(self.spans) < self.span_cap:
            self.spans.append((name, layer, start, end, parent, self.events))
        else:
            self.spans_dropped += 1

    # ------------------------------------------------------------------
    # Child spans: wrappers around boundary calls
    # ------------------------------------------------------------------
    def traced(self, inner: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``inner`` wrapped so each call is one span of ``layer``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        recorder = self

        def span(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, recorder._next_id]
            recorder._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                    parent = int(stack[-1][1])
                else:
                    recorder._root_children += duration
                    parent = -1
                if recorder.spans is not None:
                    recorder._keep(name, layer, start, end, parent)

        span.__wrapped__ = inner  # type: ignore[attr-defined]
        return span

    def gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        """``gc.callbacks`` entry: each collection is a span of the
        pseudo-layer ``gc``.  The collector runs inside whichever layer
        happened to allocate the object that tripped its threshold, and
        its cost follows the size of the heap, not that layer's work; as
        a child span it is taken out of that layer's self time."""
        if phase == "start":
            self._stack.append([0.0, self._next_id])
            self._next_id += 1
            self._gc_started = perf_counter()
            return
        end = perf_counter()
        self._stack.pop()
        duration = end - self._gc_started
        self.self_s["gc"] += duration
        self.calls["gc"] += 1
        if self._stack:
            self._stack[-1][0] += duration
            parent = int(self._stack[-1][1])
        else:
            self._root_children += duration
            parent = -1
        if self.spans is not None:
            self._keep(f"gc.gen{info['generation']}", "gc", self._gc_started, end, parent)

    def wrap_method(self, owner: type, name: str, layer: str) -> None:
        """Patch ``owner.name`` (class level) with a span wrapper."""
        inherited = name not in vars(owner)
        inner = getattr(owner, name)
        self._patched.append((owner, name, inner, inherited))
        setattr(owner, name, self.traced(inner, f"{owner.__name__}.{name}", layer))

    def wrap_function(self, function: Callable[..., Any], layer: str) -> None:
        """Patch every ``repro.*`` / benchmark module global bound to
        ``function`` (``from x import f`` copies the reference)."""
        wrapper = self.traced(function, function.__name__, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or layer_of_module(module_name) == "other":
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patched.append((module, attr, function, False))
                    setattr(module, attr, wrapper)

    def observe_method(
        self, owner: type, name: str,
        after: Callable[[Any, Tuple[Any, ...], Any], None],
    ) -> None:
        """Patch ``owner.name`` to call ``after(self, args, result)`` once
        it returns — an observation point, not a span."""
        inherited = name not in vars(owner)
        inner = getattr(owner, name)
        self._patched.append((owner, name, inner, inherited))

        def observed(instance: Any, *args: Any, **kwargs: Any) -> Any:
            result = inner(instance, *args, **kwargs)
            after(instance, args, result)
            return result

        setattr(owner, name, observed)

    def uninstall(self) -> None:
        """Restore every attribute patched through this recorder."""
        if self.gc_callback in gc.callbacks:
            gc.callbacks.remove(self.gc_callback)
        for owner, name, inner, inherited in reversed(self._patched):
            if inherited:
                delattr(owner, name)
            else:
                setattr(owner, name, inner)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def named_seconds(self) -> float:
        """Self time in every named layer (all but ``"other"``)."""
        return sum(
            value for layer, value in self.self_s.items() if layer != "other"
        )

    def layer_seconds(self, window_wall_s: float) -> Dict[str, float]:
        """Exclusive seconds per layer over a DES window of
        ``window_wall_s``.  The event kernel's own time is the window
        minus every root span — heap pops, clock advance, the dispatch
        loop — so the layers sum to the window.
        """
        out = {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
        out["other"] = self.self_s.get("other", 0.0)
        out["sim"] += max(0.0, window_wall_s - self.root_s)
        return out

    def write_chrome(self, path: str, process_name: str) -> int:
        """Write retained spans as a Chrome trace; returns the count."""
        from repro.obs.export import write_chrome_trace
        from repro.sim.trace import KIND_SPAN, TraceRecord

        spans = self.spans or []
        origin = min((span[2] for span in spans), default=0.0)
        records = [
            TraceRecord(
                time=start - origin,
                category=layer,
                message=name,
                fields={"node": layer, "parent": parent, "event": event},
                kind=KIND_SPAN,
                duration=end - start,
            )
            for name, layer, start, end, parent, event in spans
        ]
        return write_chrome_trace(path, records, process_name)


def _callback_layer(fn: Callable[..., Any]) -> str:
    """Layer of a kernel callback, by the module that defined it.

    ``Process.every`` wraps its periodic function in a ``tick`` closure
    defined in ``repro.sim.process``; the work belongs to the wrapped
    function's layer (a cub's heartbeat, pump or deadman sweep), so the
    closure is unwrapped.
    """
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None)
    if (
        code is not None
        and closure
        and getattr(fn, "__module__", "") == "repro.sim.process"
        and "fn" in code.co_freevars
    ):
        inner = closure[code.co_freevars.index("fn")].cell_contents
        return layer_of_module(getattr(inner, "__module__", None))
    return layer_of_module(getattr(fn, "__module__", None))


def _callback_name(fn: Callable[..., Any]) -> str:
    return getattr(fn, "__qualname__", type(fn).__name__)


def install_des(recorder: SpanRecorder, sim: Any) -> None:
    """Wrap the DES layer boundaries and hook the kernel."""
    from repro.core.client import ViewerClient
    from repro.core.controller import Controller
    from repro.core.cub import Cub
    from repro.disk.drive import SimDisk
    from repro.net.switch import SwitchedNetwork
    from repro.obs.registry import CounterSeries, GaugeSeries, HistogramSeries
    from repro.storage.blockindex import BlockIndex
    from repro.storage.catalog import Catalog
    from repro.storage.layout import StripeLayout
    from repro.storage.mirror import MirrorScheme
    from repro.workloads.generator import ContinuousWorkload

    recorder.wrap_method(SwitchedNetwork, "send", "net")
    recorder.wrap_method(SwitchedNetwork, "send_paced", "net")
    recorder.wrap_method(SimDisk, "read", "disk")
    recorder.wrap_method(Cub, "handle_message", "cub")
    recorder.wrap_method(Controller, "handle_message", "controller")
    recorder.wrap_method(ViewerClient, "handle_message", "client")
    recorder.wrap_method(CounterSeries, "increment", "obs")
    recorder.wrap_method(HistogramSeries, "observe", "obs")
    recorder.wrap_method(GaugeSeries, "set", "obs")
    recorder.wrap_method(BlockIndex, "lookup_primary", "storage")
    recorder.wrap_method(BlockIndex, "lookup_secondary", "storage")
    recorder.wrap_method(Catalog, "get", "storage")
    recorder.wrap_method(StripeLayout, "cub_of_disk", "storage")
    recorder.wrap_method(MirrorScheme, "secondary_disks", "storage")
    recorder.wrap_method(MirrorScheme, "piece_location", "storage")
    recorder.wrap_method(ContinuousWorkload, "_on_finished", "workload")
    gc.callbacks.append(recorder.gc_callback)
    sim.set_profiler(recorder)


def install_live(recorder: SpanRecorder) -> None:
    """Wrap the live backend's driver-side boundaries (this process)."""
    from repro.core.client import ViewerClient
    from repro.live.cluster import ClusterHub, NodeConnection
    from repro.live.wire import FrameDecoder, encode_message
    from repro.obs.registry import CounterSeries, GaugeSeries, HistogramSeries

    recorder.wrap_function(encode_message, "wire.encode")
    recorder.wrap_method(FrameDecoder, "feed_parsed", "wire.decode")
    recorder.wrap_method(ClusterHub, "route", "hub.route")

    def note_queue(connection: Any, _args: Tuple[Any, ...], _result: Any) -> None:
        if connection.queued_bytes > recorder.sendq_peak_bytes:
            recorder.sendq_peak_bytes = connection.queued_bytes

    recorder.observe_method(NodeConnection, "send", note_queue)
    recorder.wrap_method(ViewerClient, "handle_message", "client")
    recorder.wrap_method(CounterSeries, "increment", "obs")
    recorder.wrap_method(HistogramSeries, "observe", "obs")
    recorder.wrap_method(GaugeSeries, "set", "obs")
    gc.callbacks.append(recorder.gc_callback)
