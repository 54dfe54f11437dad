"""Unit tests for the typed metrics registry and its snapshot/merge protocol."""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import pytest

from repro.core.candidates import MatchCounters, StoreCounters
from repro.obs import MetricsRegistry, MetricsSnapshot, MetricValue, merge_snapshots
from repro.obs.metrics import AdditiveCounts, Counts


def test_counter_accumulates():
    registry = MetricsRegistry()
    registry.inc("ingest.segments", 3)
    registry.inc("ingest.segments")
    assert registry.counter("ingest.segments").get() == 4


def test_gauge_holds_last_value():
    registry = MetricsRegistry()
    registry.set_gauge("pipeline.workers", 4)
    registry.set_gauge("pipeline.workers", 2)
    assert registry.gauge("pipeline.workers").get() == 2


def test_histogram_summarises_observations():
    registry = MetricsRegistry()
    for value in (10, 30, 20):
        registry.observe("dispatch.payload_bytes", value)
    histogram = registry.histogram("dispatch.payload_bytes")
    assert histogram.count == 3
    assert histogram.total == 60
    assert histogram.min == 10
    assert histogram.max == 30
    assert histogram.mean == pytest.approx(20.0)


def test_kind_conflict_raises_type_error():
    registry = MetricsRegistry()
    registry.inc("store.lookups")
    with pytest.raises(TypeError, match="counter"):
        registry.gauge("store.lookups")
    with pytest.raises(TypeError):
        registry.histogram("store.lookups")


def test_snapshot_is_name_sorted_and_frozen():
    registry = MetricsRegistry()
    registry.inc("z.last")
    registry.inc("a.first")
    snapshot = registry.snapshot()
    assert list(snapshot.values) == ["a.first", "z.last"]
    with pytest.raises(Exception):
        snapshot.values = {}


def test_merge_is_order_independent():
    a = MetricsRegistry()
    a.inc("match.kernel_rows", 5)
    a.set_gauge("store.size", 7)
    a.observe("dispatch.payload_bytes", 100)

    b = MetricsRegistry()
    b.inc("match.kernel_rows", 2)
    b.set_gauge("store.size", 11)
    b.observe("dispatch.payload_bytes", 40)
    b.inc("store.misses", 1)

    ab = a.snapshot().merged_with(b.snapshot())
    ba = b.snapshot().merged_with(a.snapshot())
    assert ab == ba
    assert ab.scalar("match.kernel_rows") == 7
    assert ab.get("store.size").value == 11  # gauges merge by max
    payload_bytes = ab.get("dispatch.payload_bytes")
    assert (payload_bytes.count, payload_bytes.total) == (2, 140)
    assert (payload_bytes.min, payload_bytes.max) == (40, 100)


def test_merge_snapshots_folds_many():
    snapshots = []
    for rank in range(4):
        registry = MetricsRegistry()
        registry.inc("ingest.segments", 10 + rank)
        snapshots.append(registry.snapshot())
    merged = merge_snapshots(snapshots)
    assert merged.scalar("ingest.segments") == 10 + 11 + 12 + 13
    # Reversed order gives the identical snapshot.
    assert merge_snapshots(reversed(snapshots)) == merged


def test_merge_kind_mismatch_raises():
    counter = MetricValue(kind="counter", value=1)
    gauge = MetricValue(kind="gauge", value=1)
    with pytest.raises(ValueError, match="kinds"):
        counter.merged_with(gauge)


def test_json_roundtrip_preserves_snapshot():
    registry = MetricsRegistry()
    registry.inc("pipeline.segments", 40)
    registry.set_gauge("pipeline.ranks", 4)
    registry.observe("dispatch.payload_bytes", 2048)
    snapshot = registry.snapshot()
    assert MetricsSnapshot.from_json(snapshot.as_json()) == snapshot


def test_snapshot_pickles():
    registry = MetricsRegistry()
    registry.inc("ingest.segments", 5)
    snapshot = registry.snapshot()
    assert pickle.loads(pickle.dumps(snapshot)) == snapshot


def test_scalar_defaults_for_missing_names():
    snapshot = MetricsRegistry().snapshot()
    assert not snapshot
    assert snapshot.scalar("absent") == 0
    assert snapshot.scalar("absent", default=-1) == -1


# -- the additive-counts base -------------------------------------------------


@dataclass(slots=True)
class _Inner(AdditiveCounts):
    hits: int = 0
    seconds: float = 0.0


@dataclass(slots=True)
class _Outer(Counts):
    GAUGES = frozenset({"level"})

    events: int = 0
    level: int = 0
    inner: _Inner = field(default_factory=_Inner)
    label: str = "x"


@pytest.mark.parametrize(
    "a, b",
    [
        (
            MatchCounters(calls=2, rows_compared=10, seconds=0.5),
            MatchCounters(calls=3, rows_compared=5, seconds=0.25, rows_pruned=1),
        ),
        (
            StoreCounters(lookups=3, hits=2, misses=1),
            StoreCounters(lookups=5, hits=1, misses=4),
        ),
        (_Inner(hits=1, seconds=0.5), _Inner(hits=2, seconds=0.25)),
    ],
)
def test_counts_merge_and_publish_field_by_field(a, b):
    merged = a.merged_with(b)
    assert type(merged) is type(a)
    names = list(type(a).__dataclass_fields__)
    for name in names:
        assert getattr(merged, name) == getattr(a, name) + getattr(b, name)
    # Merging builds a new object; the operands keep their counts.
    assert merged is not a and getattr(a, names[0]) != getattr(merged, names[0])

    registry = MetricsRegistry()
    merged.record(registry, "layer")
    snapshot = registry.snapshot().values
    # The field name is the metric name: one counter per field, nothing else.
    assert sorted(snapshot) == sorted(f"layer.{name}" for name in names)
    for name in names:
        assert snapshot[f"layer.{name}"].kind == "counter"
        assert snapshot[f"layer.{name}"].value == getattr(merged, name)


def test_counts_nested_gauge_and_non_numeric_fields():
    a = _Outer(events=2, level=3, inner=_Inner(hits=1, seconds=0.5))
    # A class with levels or names in it publishes, but does not sum.
    assert not hasattr(a, "merged_with")

    registry = MetricsRegistry()
    a.record(registry, "outer")
    snapshot = registry.snapshot().values
    # Nested counts publish as <prefix>.<field>_<its field>, levels as
    # gauges, and a field that is not a number is not a metric.
    assert sorted(snapshot) == [
        "outer.events",
        "outer.inner_hits",
        "outer.inner_seconds",
        "outer.level",
    ]
    assert snapshot["outer.level"].kind == "gauge"
    assert snapshot["outer.inner_hits"].value == 1
    # Publishing twice accumulates counters and overwrites gauges.
    a.record(registry, "outer")
    assert registry.counter("outer.events").get() == 4
    assert registry.gauge("outer.level").get() == 3
