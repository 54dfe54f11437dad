"""Typed metrics registry: named counters, gauges, and histograms.

The hot paths accumulate into plain dataclasses —
:class:`~repro.core.candidates.StoreCounters`,
:class:`~repro.core.candidates.MatchCounters`, the pipeline, sweep and service
stats.  :class:`Counts` is their common base: it publishes them, under their
field names (:class:`AdditiveCounts` also sums them field by field), into a
:class:`MetricsRegistry` of named instruments with a **typed, deterministic**
snapshot/merge protocol, so per-worker registries taken in different processes
(or threads) aggregate to the same totals regardless of completion order.

Instrument kinds
----------------
``counter``
    Monotonic accumulator (int or float).  Merge adds.  The canonical kind
    for event counts (``pipeline.n_segments``, ``pipeline.store_misses``,
    ``pipeline.match_rows_compared``) and for accumulated wall time in seconds.
``gauge``
    A last-known level (``pipeline.workers``, ``service.peak_active``).  Merge takes
    the **max** — the only order-independent choice that keeps "high water
    mark" semantics when worker snapshots arrive in nondeterministic order.
``histogram``
    Count / total / min / max of observed values (``dispatch.payload_bytes``
    per task).  Merge combines component-wise.

Naming convention: dot-separated ``subsystem.quantity`` (see the catalogue in
the README's Telemetry section).  Registries are cheap dictionaries; the hot
paths never touch them per segment — instrumentation happens at rank/stage
granularity, with totals recorded once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Optional, Union

__all__ = [
    "Counts",
    "AdditiveCounts",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricValue",
    "MetricsSnapshot",
    "MetricsRegistry",
    "merge_snapshots",
]

Number = Union[int, float]


class Counts:
    """Base of the count dataclasses: the field name *is* the metric name."""

    __slots__ = ()

    #: Numeric fields that are levels, not counts: published as gauges.
    GAUGES: frozenset = frozenset()

    def record(self, registry: "MetricsRegistry", prefix: str) -> None:
        """Publish every numeric field into ``registry`` as ``<prefix>.<field>``.

        A nested ``Counts`` field publishes its counts as
        ``<prefix>.<field>_<its field>``; a field that is not a number (a
        name, a per-stage dict) is no metric.
        """
        for spec in fields(self):
            value = getattr(self, spec.name)
            name = f"{prefix}.{spec.name}"
            if isinstance(value, Counts):
                for inner in fields(value):
                    registry.inc(f"{name}_{inner.name}", getattr(value, inner.name))
            elif spec.name in self.GAUGES:
                registry.set_gauge(name, value)
            elif isinstance(value, (int, float)):
                registry.inc(name, value)


class AdditiveCounts(Counts):
    """Counts whose every field is a number that sums across ranks or tasks."""

    __slots__ = ()

    def merged_with(self, other):
        """The field-wise sum of two counts."""
        return type(self)(
            *(getattr(self, spec.name) + getattr(other, spec.name) for spec in fields(self))
        )


class Counter:
    """Monotonic accumulator; merge adds."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, value: Number = 0) -> None:
        self.value = value

    def inc(self, n: Number = 1) -> None:
        self.value += n

    def get(self) -> Number:
        return self.value


class Gauge:
    """Last-known level; merge takes the maximum (order-independent)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, value: Number = 0) -> None:
        self.value = value

    def set(self, value: Number) -> None:
        self.value = value

    def get(self) -> Number:
        return self.value


class Histogram:
    """Count/total/min/max summary of observed values; merge combines."""

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass(frozen=True, slots=True)
class MetricValue:
    """One instrument's frozen state inside a snapshot.

    ``kind`` is ``"counter"``/``"gauge"``/``"histogram"``; counters and gauges
    use ``value``, histograms use the four summary fields.  Frozen so
    snapshots can cross pickle boundaries and be merged without aliasing the
    live registry.
    """

    kind: str
    value: Number = 0
    count: int = 0
    total: Number = 0
    min: Optional[Number] = None
    max: Optional[Number] = None

    def merged_with(self, other: "MetricValue") -> "MetricValue":
        if self.kind != other.kind:
            raise ValueError(
                f"cannot merge metric kinds {self.kind!r} and {other.kind!r}"
            )
        if self.kind == "counter":
            return MetricValue(kind="counter", value=self.value + other.value)
        if self.kind == "gauge":
            return MetricValue(kind="gauge", value=max(self.value, other.value))
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        return MetricValue(
            kind="histogram",
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(mins) if mins else None,
            max=max(maxs) if maxs else None,
        )

    def scalar(self) -> Number:
        """The single number a report shows for this instrument."""
        return self.total if self.kind == "histogram" else self.value

    def as_json(self) -> dict:
        if self.kind == "histogram":
            return {
                "kind": self.kind,
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
            }
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_json(cls, payload: dict) -> "MetricValue":
        if payload["kind"] == "histogram":
            return cls(
                kind="histogram",
                count=payload["count"],
                total=payload["total"],
                min=payload["min"],
                max=payload["max"],
            )
        return cls(kind=payload["kind"], value=payload["value"])


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Immutable, picklable view of a registry, sorted by metric name.

    Name-sorted storage makes equality and merge results independent of the
    order instruments were first touched, which is what lets per-worker
    snapshots from a nondeterministic pool aggregate deterministically.
    """

    values: dict = field(default_factory=dict)

    def merged_with(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        merged = dict(self.values)
        for name, value in other.values.items():
            mine = merged.get(name)
            merged[name] = value if mine is None else mine.merged_with(value)
        return MetricsSnapshot(values=dict(sorted(merged.items())))

    def __bool__(self) -> bool:
        return bool(self.values)

    def get(self, name: str) -> Optional[MetricValue]:
        return self.values.get(name)

    def scalar(self, name: str, default: Number = 0) -> Number:
        value = self.values.get(name)
        return default if value is None else value.scalar()

    def as_json(self) -> dict:
        return {name: value.as_json() for name, value in self.values.items()}

    @classmethod
    def from_json(cls, payload: dict) -> "MetricsSnapshot":
        return cls(
            values={
                name: MetricValue.from_json(value)
                for name, value in sorted(payload.items())
            }
        )


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold any number of snapshots into one (order-independent totals)."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        merged = merged.merged_with(snapshot)
    return merged


class MetricsRegistry:
    """A process- or worker-local set of named instruments.

    Creation is idempotent per name, but a name is permanently bound to one
    instrument kind — asking for ``counter("x")`` after ``gauge("x")`` is a
    programming error and raises immediately rather than corrupting totals.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls()
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(metric).kind}, not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # -- convenience write paths ----------------------------------------------

    def inc(self, name: str, n: Number = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: Number) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: Number) -> None:
        self.histogram(name).observe(value)

    # -- snapshot / merge -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> MetricsSnapshot:
        values: dict[str, MetricValue] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                values[name] = MetricValue(
                    kind="histogram",
                    count=metric.count,
                    total=metric.total,
                    min=metric.min,
                    max=metric.max,
                )
            else:
                values[name] = MetricValue(kind=metric.kind, value=metric.value)
        return MetricsSnapshot(values=values)
