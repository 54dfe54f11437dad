"""Pipeline instrumentation: per-stage wall time, throughput, match rate.

Every pipeline run produces one :class:`PipelineStats`.  Its counts are
folded in rank by rank inside a task (:meth:`RankCounts.add_rank`) and task
by task in the parent (:meth:`RankCounts.add`); its stage timings are
read back from the run's own stage spans (:class:`StageClock`).  ``rows()``
renders the stats as (property, value) pairs for the CLI's table formatter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

from repro import obs
from repro.core.candidates import MatchCounters, StoreCounters
from repro.core.frames import RankFrame
from repro.core.reducer import ReductionState
from repro.obs.metrics import Counts

__all__ = ["StageClock", "RankCounts", "PipelineStats"]


class StageClock:
    """The stage spans one run opens — its only clocks — and their seconds.

    The spans go to the ambient recorder or, with telemetry off, to a
    throwaway one (per-rank sites keep the no-op ``obs.span``);
    :meth:`seconds` reads back the spans this clock opened and no others,
    whatever else was recorded next to them.
    """

    def __init__(self, prefix: str) -> None:
        self.recorder = obs.current_recorder()
        self._sink = self.recorder or obs.Recorder()
        self._prefix = prefix
        self._mark = len(self._sink.spans)
        self._opened: list = []

    def span(self, stage: str, **attrs):
        """A ``<prefix>.<stage>`` span; a stage may be entered more than once."""
        span = self._sink.span(f"{self._prefix}.{stage}", **attrs)
        self._opened.append((stage, span))
        return span

    def seconds(self) -> dict[str, float]:
        """Wall seconds of the closed spans, by stage, in completion order."""
        stage_of = {span.span_id: stage for stage, span in self._opened}
        seconds: dict[str, float] = {}
        for record in self._sink.spans[self._mark :]:
            stage = stage_of.get(record.span_id)
            if stage is not None:
                seconds[stage] = seconds.get(stage, 0.0) + record.duration_ns / 1e9
        return seconds


@dataclass(slots=True)
class RankCounts(Counts):
    """What reducing ranks counted, additive over ranks: a task publishes its
    batch's and the parent the run's, so the two sides must agree.

    A rank's frame is counted once however many metrics reduce it (ranks,
    segments, materializations, text bytes); what a metric's reduction counts
    (stored, matches, store and kernel counters) is summed over the metrics.
    """

    nprocs: int = 0
    n_segments: int = 0
    n_stored: int = 0
    n_matches: int = 0
    n_possible_matches: int = 0
    #: ``Segment`` objects built from the ranks' frame rows: 0 through a
    #: reduction, which books, writes and sizes rows.
    segments_materialized: int = 0
    #: Text-format bytes of the ranks' records (§4.3.1's denominator), sized
    #: by the decoder that held their columns: 0 for an in-memory segmented
    #: source, whose frames are adapted from segments.
    text_bytes: int = 0
    store: StoreCounters = field(default_factory=StoreCounters)
    match: MatchCounters = field(default_factory=MatchCounters)

    def add_rank(self, frame: RankFrame, states: Sequence[ReductionState]) -> None:
        """Fold in one rank: ``frame`` once, and what each of ``states`` (one
        per metric of the run) reduced from it."""
        self.nprocs += 1
        self.n_segments += frame.n_segments
        self.segments_materialized += frame.materialized
        self.text_bytes += frame.text_bytes
        for state in states:
            reduced = state.reduced
            self.n_stored += reduced.n_stored
            self.n_matches += reduced.n_matches
            self.n_possible_matches += reduced.n_possible_matches
            self.store = self.store.merged_with(state.store.counters)
            self.match = self.match.merged_with(state.counters)

    def add(self, other: "RankCounts") -> None:
        """Fold another task's counts in."""
        for spec in fields(RankCounts):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            merged = mine.merged_with(theirs) if isinstance(mine, Counts) else mine + theirs
            setattr(self, spec.name, merged)


@dataclass(slots=True)
class PipelineStats(RankCounts):
    """Instrumentation of one pipeline run."""

    GAUGES = frozenset({"workers"})

    executor: str = "serial"
    workers: int = 1
    merged_stored: int = 0
    merged_duplicates: int = 0
    #: Seconds per stage (``ingest``, ``reduce``, ``merge``) the run went through.
    stage_seconds: dict = field(default_factory=dict)
    total_seconds: float = 0.0
    #: Executor named in the config; differs from ``executor`` when the
    #: engine auto-downgraded a one-worker pool to the serial path.
    requested_executor: str = ""
    #: How rank tasks reached the workers: ``inline`` (serial), ``shard``
    #: ((path, ranks) batches of an indexed file), or ``payload`` (pickled
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
            ["match kernel calls", self.match.calls],
            ["match kernel rows / call", f"{self.match.rows_per_call:.2f}"],
            ["match kernel wall time (s)", f"{self.match.seconds:.4f}"],
        ]
        if self.merged_stored or self.merged_duplicates:
            rows.append(["merged representatives", self.merged_stored])
            rows.append(["cross-rank duplicates", self.merged_duplicates])
        for stage, seconds in self.stage_seconds.items():
            rows.append([f"{stage} wall time (s)", f"{seconds:.4f}"])
        rows.append(["total wall time (s)", f"{self.total_seconds:.4f}"])
        rows.append(["segments / second", f"{self.segments_per_second:,.0f}"])
        return rows
