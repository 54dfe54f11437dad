"""Pipeline instrumentation: per-stage wall time, throughput, match rate.

Every pipeline run produces one :class:`PipelineStats`.  Stage timings are
accumulated with :func:`time_stage`; counters are filled in by the engine from
the per-rank reduction results and store counters.  ``rows()`` renders the
stats as (property, value) pairs for the CLI's table formatter.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.candidates import MatchCounters
from repro.pipeline.store import StoreCounters

__all__ = ["PipelineStats", "time_stage"]

#: Stage keys in reporting order.
STAGES = ("ingest", "reduce", "merge")


@dataclass(slots=True)
class PipelineStats:
    """Instrumentation of one pipeline run."""

    executor: str
    workers: int
    nprocs: int = 0
    n_segments: int = 0
    n_stored: int = 0
    n_matches: int = 0
    n_possible_matches: int = 0
    #: ``Segment`` objects actually built on the columnar path — the
    #: lazy-materialization saving is ``n_segments - segments_materialized``.
    segments_materialized: int = 0
    merged_stored: int = 0
    merged_duplicates: int = 0
    stage_seconds: dict = field(default_factory=dict)
    total_seconds: float = 0.0
    store: StoreCounters = field(default_factory=StoreCounters)
    match: MatchCounters = field(default_factory=MatchCounters)
    #: Executor named in the config; differs from ``executor`` when the
    #: engine auto-downgraded a one-worker pool to the serial path.
    requested_executor: str = ""
    #: How rank tasks reached the workers: ``inline`` (serial), ``shard``
    #: ((path, rank) tasks against an indexed file), or ``payload`` (pickled
    #: columnar frames).
    dispatch: str = ""

    def __post_init__(self) -> None:
        # Telemetry attributes must never be empty strings: a plain serial
        # run requested exactly what it got, and serial work is by definition
        # dispatched inline.
        if not self.requested_executor:
            self.requested_executor = self.executor
        if not self.dispatch and self.executor == "serial":
            self.dispatch = "inline"

    @property
    def match_rate(self) -> float:
        """Matches / possible matches (the degree-of-matching criterion)."""
        if self.n_possible_matches == 0:
            return 1.0
        return self.n_matches / self.n_possible_matches

    @property
    def segments_per_second(self) -> float:
        """End-to-end throughput of the run."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.n_segments / self.total_seconds

    @property
    def downgraded(self) -> bool:
        """True when a pooled executor was auto-downgraded to serial."""
        return bool(self.requested_executor) and self.requested_executor != self.executor

    def rows(self) -> list[list]:
        """(property, value) rows for the CLI table."""
        executor_cell = f"{self.executor} x{self.workers}"
        if self.downgraded:
            executor_cell += f" (auto-downgraded from {self.requested_executor})"
        rows: list[list] = [
            ["executor", executor_cell],
            ["task dispatch", self.dispatch or "-"],
            ["ranks", self.nprocs],
            ["segments", self.n_segments],
            [
                "segments materialized (lazy)",
                f"{self.segments_materialized} of {self.n_segments} decoded",
            ],
            ["stored representatives", self.n_stored],
            ["match rate", f"{self.match_rate:.4f}"],
            ["store hits / lookups", f"{self.store.hits} / {self.store.lookups}"],
            ["store evictions", self.store.evictions],
            ["match kernel calls", self.match.calls],
            ["match kernel rows / call", f"{self.match.rows_per_call:.2f}"],
            ["match kernel wall time (s)", f"{self.match.seconds:.4f}"],
        ]
        if self.merged_stored or self.merged_duplicates:
            rows.append(["merged representatives", self.merged_stored])
            rows.append(["cross-rank duplicates", self.merged_duplicates])
        for stage in STAGES:
            if stage in self.stage_seconds:
                rows.append([f"{stage} wall time (s)", f"{self.stage_seconds[stage]:.4f}"])
        rows.append(["total wall time (s)", f"{self.total_seconds:.4f}"])
        rows.append(["segments / second", f"{self.segments_per_second:,.0f}"])
        return rows

    def record_to(self, registry) -> None:
        """Record this run's totals into an ``obs`` metrics registry.

        Called once per run by the engine, so the registry holds the same
        totals ``rows()`` renders — the stats object becomes a view over the
        run's metrics rather than a competing source of truth.
        """
        registry.set_gauge("pipeline.workers", self.workers)
        registry.set_gauge("pipeline.ranks", self.nprocs)
        registry.inc("pipeline.segments", self.n_segments)
        registry.inc("columnar.materialized", self.segments_materialized)
        registry.inc("pipeline.stored", self.n_stored)
        registry.inc("pipeline.matches", self.n_matches)
        registry.inc("pipeline.possible_matches", self.n_possible_matches)
        if self.merged_stored or self.merged_duplicates:
            registry.inc("merge.stored", self.merged_stored)
            registry.inc("merge.duplicates", self.merged_duplicates)
        for stage, seconds in self.stage_seconds.items():
            registry.inc(f"stage.{stage}.seconds", seconds)
        registry.inc("pipeline.total_seconds", self.total_seconds)
        self.store.record_to(registry)
        self.match.record_to(registry)


@contextmanager
def time_stage(stats: PipelineStats, stage: str):
    """Accumulate the wall time of the enclosed block into ``stats``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        stats.stage_seconds[stage] = stats.stage_seconds.get(stage, 0.0) + elapsed
