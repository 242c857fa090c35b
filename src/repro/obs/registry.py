"""A dimensional metrics registry for the Tiger reproduction.

The registry holds **metric families** — a name, a kind (counter,
gauge, or histogram), a help string, and a unit — each fanning out into
**series** keyed by label sets (``cub=3``, ``check="oracle"``, ...).
It is the single sink every component reports through: cub and
controller counters are registry series, the windowed
:class:`~repro.core.metrics.MetricsCollector` publishes each sample as
gauges, and the chaos :class:`~repro.faults.monitor.InvariantMonitor`
counts its sweeps here.

Design constraints, in order:

1. **Hot-path cost.**  A series handle is fetched once at construction
   time and incremented directly afterwards; an increment is one
   integer add, an observation one list append.
2. **Bounded cardinality.**  Label sets are attacker-controlled in the
   sense that a bug can key a metric by something unbounded (stream
   ids, timestamps).  Each family holds at most
   :data:`MAX_SERIES_PER_FAMILY` series; excess label sets collapse
   into a single overflow series (``overflow="true"``) and the
   registry's :attr:`MetricsRegistry.series_overflowed` attribute
   counts each collapsed request, so the leak is visible instead of
   eating memory.
3. **Plain data out.**  :meth:`MetricsRegistry.snapshot` returns
   JSON-ready dictionaries; no exporter dependency.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"

#: Label key used for the collapsed series once a family exceeds its
#: cardinality bound.
OVERFLOW_LABEL = "overflow"

#: Cardinality bound applied to every family: label sets beyond it
#: collapse into one overflow series.
MAX_SERIES_PER_FAMILY = 4096


class MetricError(ValueError):
    """Raised for registry misuse (kind conflicts, bad label keys)."""


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class CounterSeries:
    """One labelled, monotonically increasing counter series.

    :param labels: The series' label set (already stringified keys).
    """

    __slots__ = ("labels", "count")

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = labels
        self.count = 0

    def increment(self, by: int = 1) -> None:
        """Add ``by`` to the count.

        :raises ValueError: If ``by`` is negative.
        """
        if by < 0:
            raise ValueError("a counter only counts up")
        self.count += by

    def value(self) -> float:
        """Current count (exporter interface shared by all series)."""
        return self.count


class GaugeSeries:
    """One labelled gauge series: a value that can move both ways.

    :param labels: The series' label set.
    """

    __slots__ = ("labels", "current")

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = labels
        self.current: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value.

        :param value: New value.
        """
        self.current = value

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (negative allowed)."""
        self.current += delta

    def value(self) -> float:
        """Current gauge value."""
        return self.current


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ascending, non-empty ``ordered``."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    lower = ordered[lo]
    upper = ordered[hi]
    # lower + delta*frac (not lower*(1-frac) + upper*frac): the
    # two-product form can round below ``lower`` for subnormal
    # samples, breaking min <= quantile <= max.
    return lower + (upper - lower) * frac


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """One-shot quantile of ``values``; None for empty input.

    Bit for bit what a :class:`HistogramSeries` fed the same values
    answers.
    """
    if not values:
        return None
    return _quantile(sorted(values), q)


class HistogramSeries:
    """One labelled histogram series with exact quantile queries.

    Stores every sample: O(1) :meth:`observe`, sorted on the first read
    after a write — fine for the millions of observations a paper-scale
    run produces, as long as they are read at report time and not
    between every two writes (one sort, cheap on the already-sorted
    prefix, instead of one sorted insert per sample).

    :param labels: The series' label set.
    """

    __slots__ = ("labels", "_samples", "_unsorted")

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = labels
        self._samples: List[float] = []
        #: Samples were appended since the last sort.
        self._unsorted = False

    def observe(self, value: float) -> None:
        """Record one observation.

        :param value: The observed sample.
        """
        self._samples.append(value)
        self._unsorted = True

    def _sorted(self) -> List[float]:
        """The samples in ascending order, equal ones in arrival order
        (the sort is stable, and cheap on an already-sorted prefix)."""
        if self._unsorted:
            self._samples.sort()
            self._unsorted = False
        return self._samples

    @property
    def n(self) -> int:
        """Number of observations recorded."""
        return len(self._samples)

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile, ``q`` in [0, 1].

        :raises ValueError: If the series is empty or ``q`` is outside
            [0, 1].
        """
        if not self._samples:
            raise ValueError("empty histogram")
        return _quantile(self._sorted(), q)

    def mean(self) -> float:
        """Mean of the observations.

        :raises ValueError: If the series is empty.
        """
        if not self._samples:
            raise ValueError("empty histogram")
        # Summed in ascending order: float addition is order-sensitive,
        # and this is the order the reported means have always used.
        return sum(self._sorted()) / len(self._samples)

    def value(self) -> Dict[str, float]:
        """Summary statistics: count, mean, p50, p95, max."""
        if not self._samples:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
        return {
            "count": len(self._samples),
            "mean": self.mean(),
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "max": self.quantile(1.0),
        }


_SERIES_TYPES = {
    KIND_COUNTER: CounterSeries,
    KIND_GAUGE: GaugeSeries,
    KIND_HISTOGRAM: HistogramSeries,
}


class MetricFamily:
    """All series of one metric name.

    Created lazily by the registry accessors; use those rather than
    constructing families directly.

    :param name: Dot-separated metric name (e.g. ``"cub.blocks_sent"``).
    :param kind: One of ``"counter"``, ``"gauge"``, ``"histogram"``.
    :param help: One-line description, surfaced by exporters.
    :param unit: Unit string (``"blocks"``, ``"s"``, ``"bytes/s"``...).
    """

    __slots__ = ("name", "kind", "help", "unit", "series", "_overflow")

    def __init__(self, name: str, kind: str, help: str, unit: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        self.series: Dict[Tuple[Tuple[str, str], ...], Any] = {}
        self._overflow = None

    def overflowed(self) -> bool:
        """Whether this family has collapsed any label set."""
        return self._overflow is not None


class MetricsRegistry:
    """The process-wide sink for counters, gauges, and histograms.

    Accessors are get-or-create: the first call with a new (name,
    labels) pair creates the series, later calls return the same
    object, so components can fetch handles at construction time and
    mutate them on the hot path with no dictionary lookups.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        # Fast path for repeated accessor calls: (kind, name, raw label
        # items) -> series.  Keyed on the *raw* label values so a hit
        # skips both the sort and the per-value stringification in
        # :func:`_label_key`; unhashable values just fall through to the
        # canonical slow path.
        self._series_cache: Dict[Tuple[Any, ...], Any] = {}
        #: How many label sets were collapsed into overflow series.
        self.series_overflowed = 0

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help: str = "", unit: str = "", **labels: Any
    ) -> CounterSeries:
        """Get or create a counter series.

        :param name: Metric family name.
        :param help: One-line description (set on first use).
        :param unit: Unit string (set on first use).
        :param labels: Label key/value pairs identifying the series.
        :returns: The (shared) counter handle.
        """
        return self._series(KIND_COUNTER, name, help, unit, labels)

    def gauge(
        self, name: str, help: str = "", unit: str = "", **labels: Any
    ) -> GaugeSeries:
        """Get or create a gauge series (see :meth:`counter`)."""
        return self._series(KIND_GAUGE, name, help, unit, labels)

    def histogram(
        self, name: str, help: str = "", unit: str = "", **labels: Any
    ) -> HistogramSeries:
        """Get or create a histogram series (see :meth:`counter`)."""
        return self._series(KIND_HISTOGRAM, name, help, unit, labels)

    def _series(
        self, kind: str, name: str, help: str, unit: str, labels: Dict[str, Any]
    ) -> Any:
        cache_key: Optional[Tuple[Any, ...]]
        try:
            cache_key = (kind, name, *labels.items())
            cached = self._series_cache.get(cache_key)
        except TypeError:  # unhashable label value
            cache_key = None
            cached = None
        if cached is not None:
            return cached
        if OVERFLOW_LABEL in labels:
            raise MetricError(f"label key {OVERFLOW_LABEL!r} is reserved")
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, unit)
            self._families[name] = family
        elif family.kind != kind:
            raise MetricError(
                f"metric {name!r} is a {family.kind}, requested as {kind}"
            )
        key = _label_key(labels)
        series = family.series.get(key)
        if series is None:
            if len(family.series) >= MAX_SERIES_PER_FAMILY:
                # Cardinality guard: collapse into the overflow series.
                # Deliberately not interned in the fast-path cache, so
                # ``series_overflowed`` keeps counting every collapsed
                # request.
                self.series_overflowed += 1
                if family._overflow is None:
                    family._overflow = _SERIES_TYPES[kind](
                        {OVERFLOW_LABEL: "true"}
                    )
                return family._overflow
            series = _SERIES_TYPES[kind](
                {key_: value for key_, value in key}
            )
            family.series[key] = series
        if cache_key is not None:
            self._series_cache[cache_key] = series
        return series

    # ------------------------------------------------------------------
    # Introspection and export
    # ------------------------------------------------------------------
    def family(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or None."""
        return self._families.get(name)

    def names(self) -> List[str]:
        """All registered family names, sorted."""
        return sorted(self._families)

    def get_value(self, name: str, **labels: Any) -> Any:
        """Read one series' current value without creating it.

        :param name: Metric family name.
        :param labels: Label set identifying the series.
        :returns: The series value, or None if absent.
        """
        family = self._families.get(name)
        if family is None:
            return None
        series = family.series.get(_label_key(labels))
        return None if series is None else series.value()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every family and series.

        :returns: ``{name: {"kind", "help", "unit", "series": [
            {"labels": {...}, "value": ...}, ...]}}``, with the overflow
            series appended last when present.
        """
        out: Dict[str, Any] = {}
        for name in self.names():
            family = self._families[name]
            rows = [
                {"labels": series.labels, "value": series.value()}
                for series in family.series.values()
            ]
            if family._overflow is not None:
                rows.append(
                    {
                        "labels": family._overflow.labels,
                        "value": family._overflow.value(),
                    }
                )
            out[name] = {
                "kind": family.kind,
                "help": family.help,
                "unit": family.unit,
                "series": rows,
            }
        return out

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`snapshot`, serialized.

        :param indent: JSON indentation level.
        :returns: A JSON document string.
        """
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Snapshot algebra (multi-process export)
# ----------------------------------------------------------------------
def merge_snapshots(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-process :meth:`MetricsRegistry.snapshot` dumps into one.

    The live backend runs one registry per node process; the cluster
    driver collects their snapshots and merges them into a single
    system-wide view shaped exactly like one registry's snapshot, so
    every downstream consumer (table renderer, JSON export, assertions)
    works unchanged.

    Series with identical ``(family, labels)`` merge by kind: counters
    and histograms **sum** (a later snapshot of the same node simply
    supersedes within its own dump — callers pass one snapshot per
    node), gauges keep the **last** value seen.  Histogram sums combine
    the summary dicts: ``count`` adds, ``mean`` is count-weighted,
    ``max`` takes the max, and the ``p50``/``p95`` quantiles are
    count-weighted averages — an approximation (exact quantile merge
    would need the raw samples), adequate for the cross-node roll-up
    views these merges feed.  In practice live label sets carry the
    node identity (``cub=...``, ``node=...``), so cross-node collisions
    only happen for deliberately global series.

    Two registries that both collapsed into their cardinality-overflow
    series merge without double counting: the overflow rows share the
    reserved label set, so they combine by the family's kind exactly
    once, and the merged family keeps the overflow row **last** — the
    same placement :meth:`MetricsRegistry.snapshot` guarantees.

    Not every node exports the same series set — a killed cub never
    reaches the code paths that would create some families, and a
    driver-local registry carries series no subprocess has.  A series
    absent from a snapshot merges as **zero contribution** (counters
    and histograms simply don't add, gauges don't overwrite), and
    every such hole is counted into a synthetic
    ``merge.missing_series`` gauge in the merged output: for each
    family, each snapshot that exports the family but lacks one of the
    merged series keys contributes one missing series.  A nonzero
    value is expected under faults; it exists so asymmetric exports
    are visible instead of silent.

    :param snapshots: One snapshot dict per node, in merge order.
    :returns: A combined snapshot in the same format.
    """
    merged: Dict[str, Any] = {}
    #: family name -> number of snapshots exporting that family.
    family_exports: Dict[str, int] = {}
    #: family name -> series key -> number of contributing snapshots.
    series_exports: Dict[str, Dict[tuple, int]] = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            target = merged.get(name)
            if target is None:
                target = {
                    "kind": family.get("kind", KIND_GAUGE),
                    "help": family.get("help", ""),
                    "unit": family.get("unit", ""),
                    "series": [],
                    "_index": {},
                }
                merged[name] = target
            family_exports[name] = family_exports.get(name, 0) + 1
            contributors = series_exports.setdefault(name, {})
            index = target["_index"]
            for row in family.get("series", ()):
                labels = row.get("labels", {})
                key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
                contributors[key] = contributors.get(key, 0) + 1
                value = row.get("value")
                existing = index.get(key)
                if existing is None:
                    entry = {"labels": dict(labels), "value": value}
                    index[key] = entry
                    target["series"].append(entry)
                elif target["kind"] == KIND_COUNTER and isinstance(
                    value, (int, float)
                ) and isinstance(existing["value"], (int, float)):
                    existing["value"] += value
                elif target["kind"] == KIND_HISTOGRAM and isinstance(
                    value, dict
                ) and isinstance(existing["value"], dict):
                    existing["value"] = _merge_histogram_values(
                        existing["value"], value
                    )
                else:
                    existing["value"] = value
    overflow_key = ((OVERFLOW_LABEL, "true"),)
    for family in merged.values():
        overflow_entry = family["_index"].get(overflow_key)
        del family["_index"]
        if overflow_entry is not None:
            # Restore the snapshot() contract: the overflow series sits
            # last no matter where later snapshots' rows interleaved it.
            family["series"].remove(overflow_entry)
            family["series"].append(overflow_entry)
    missing = 0
    for name, contributors in series_exports.items():
        exports = family_exports[name]
        for count in contributors.values():
            missing += exports - count
    merged["merge.missing_series"] = {
        "kind": KIND_GAUGE,
        "help": (
            "Series absent from some snapshots that exported the family "
            "(merged as zero contribution)"
        ),
        "unit": "series",
        "series": [{"labels": {}, "value": float(missing)}],
    }
    return merged


def _merge_histogram_values(
    left: Dict[str, Any], right: Dict[str, Any]
) -> Dict[str, Any]:
    """Combine two histogram summary dicts (see :func:`merge_snapshots`)."""
    left_count = left.get("count", 0) or 0
    right_count = right.get("count", 0) or 0
    total = left_count + right_count
    if total <= 0:
        return dict(right)

    def weighted(key: str) -> float:
        return (
            (left.get(key, 0.0) or 0.0) * left_count
            + (right.get(key, 0.0) or 0.0) * right_count
        ) / total

    return {
        "count": total,
        "mean": weighted("mean"),
        "p50": weighted("p50"),
        "p95": weighted("p95"),
        "max": max(left.get("max", 0.0) or 0.0, right.get("max", 0.0) or 0.0),
    }


def snapshot_total(
    snapshot: Dict[str, Any], name: str, **labels: Any
) -> float:
    """Sum a family's numeric series values across a snapshot.

    :param snapshot: A :meth:`MetricsRegistry.snapshot`-shaped dict
        (possibly produced by :func:`merge_snapshots`).
    :param name: Metric family name.
    :param labels: If given, only series whose label sets contain every
        ``key=value`` pair are summed.
    :returns: The total, 0.0 if the family is absent.
    """
    family = snapshot.get(name)
    if family is None:
        return 0.0
    wanted = {key: str(value) for key, value in labels.items()}
    total = 0.0
    for row in family.get("series", ()):
        row_labels = {
            str(k): str(v) for k, v in row.get("labels", {}).items()
        }
        if any(row_labels.get(k) != v for k, v in wanted.items()):
            continue
        value = row.get("value")
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            total += value
    return total
