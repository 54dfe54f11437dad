"""Shared-ingest sweep engine: one columnar frame, N reduction states.

For each rank the engine builds one
:class:`~repro.core.reducer.ReductionState` per config of a
:class:`~repro.sweep.plan.SweepPlan` and hands the whole grid to the core's
frame driver (:func:`~repro.core.reducer.step_frame`) — the match-or-store
step and the loop that drives it live in the core — sharing all the
per-segment work that does not depend on the config:

* the rank's :class:`~repro.core.frames.RankFrame` itself (``.rpb`` files
  decode straight to columns; other sources adapt through the segments→frame
  adapter — either way the rank is ingested exactly once);
* the normalisation and the structural keys, which come from the frame's
  bulk passes (one vectorized subtraction and one interning sweep per rank
  instead of a ``relative_to_start()`` copy and a tuple hash per segment);
* each feature family's feature vectors, built in one bulk frame pass and
  used both as the dense-kernel probe of every member config and as the
  matrix row a member config's bucket writes when it stores the segment as a
  representative.

Everything config-dependent stays private per config: the representative
store, the :class:`~repro.core.candidates.CandidateList` buckets and their
row matrices, the reduced-trace output, and the segment-id sequence.  The
driver resolves a vectorized family whose states are all
:attr:`~repro.core.reducer.ReductionState.batchable` by the batch step, one
config at a time over one shared :class:`~repro.core.reducer.KeyBatches`
grouping of the family's vectors; scan-only families and bounded stores take
the per-row step.  Either way the per-config decisions are the ones a solo run makes, in the same
order, so each config's reduced trace serializes byte-identical to a solo
:meth:`~repro.core.reducer.TraceReducer.reduce` and to the scalar reference
(the equivalence suite asserts exactly that for all nine metrics).

:class:`~repro.trace.segments.Segment` objects materialize lazily: a frame
row becomes a segment only when some config needs the object itself — to run
a scan-only metric (the iteration methods) or to feed a non-default
``on_match``.  A dense config stores a representative as the ``(frame, row)``
it is, so a grid of distance methods builds no object at all, and its
``size`` / ``reconstruct`` criteria read the same columns.  Configs whose
metric mutates its stored representatives (``iter_avg``) get a private
materialized copy of each segment they store; the other object-probing
configs share one materialized segment per input segment, which is safe
because matching and serialization never write to it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional, Union

from repro import obs
from repro.core.frames import RankFrame
from repro.core.reduced import ReducedRankTrace, ReducedTrace
from repro.core.reducer import ReductionState, step_frame
from repro.obs.metrics import AdditiveCounts, Counts
from repro.pipeline.stats import StageClock
from repro.pipeline.store import create_store
from repro.pipeline.stream import (
    RankBatch,
    SegmentSource,
    rank_frame_streams,
    source_name,
)
from repro.sweep.plan import SweepConfig, SweepPlan
from repro.sweep.results import ConfigOutcome, SweepResult
from repro.trace.segments import Segment

__all__ = ["SweepWork", "SweepStats", "SweepEngine", "sweep_source"]


@dataclass(slots=True)
class SweepWork(AdditiveCounts):
    """The :class:`SweepStats` fields that sum over (rank batch × family group) tasks.

    A pool task publishes its own and the parent the run's, under the same
    field names, so the workers' merged totals equal the run's.
    """

    segments_materialized: int = 0
    vector_builds: int = 0
    vector_builds_naive: int = 0


@dataclass(slots=True)
class SweepStats(Counts):
    """Instrumentation of one sweep run (whole grid, all ranks)."""

    GAUGES = frozenset({"n_configs", "n_families", "n_ranks"})

    n_configs: int = 0
    n_families: int = 0
    n_ranks: int = 0
    n_segments: int = 0
    #: ``Segment`` objects the sweep built from frame rows: 0 for a grid of
    #: dense methods (representatives stay rows), ``n_segments`` per rank once
    #: a config probes with the object.
    segments_materialized: int = 0
    #: Feature-vector computations actually performed (per segment × family).
    vector_builds: int = 0
    #: Vector computations a per-config serial loop would have performed for
    #: the same stream (per segment × vectorized config).
    vector_builds_naive: int = 0
    total_seconds: float = 0.0
    #: How the grid reached the reducer states: ``inline`` (one shared frame
    #: in this process) or ``shard`` ((rank batch × family) pool tasks).
    dispatch: str = "inline"

    @property
    def vector_builds_saved(self) -> int:
        """Vector computations avoided by family sharing."""
        return max(0, self.vector_builds_naive - self.vector_builds)

    @property
    def sharing_factor(self) -> float:
        """Naive vector builds per actual build (1.0 = no sharing)."""
        if self.vector_builds == 0:
            return 1.0
        return self.vector_builds_naive / self.vector_builds

    def rows(self) -> list[list]:
        """(property, value) rows for the CLI table."""
        return [
            ["configs", self.n_configs],
            ["feature families", self.n_families],
            ["task dispatch", self.dispatch],
            ["ranks", self.n_ranks],
            ["segments (ingested once)", self.n_segments],
            [
                "segments materialized (lazy)",
                f"{self.segments_materialized} of {self.n_segments} decoded",
            ],
            ["vector builds", self.vector_builds],
            ["vector builds saved", self.vector_builds_saved],
            ["vector sharing factor", f"{self.sharing_factor:.2f}x"],
            ["sweep wall time (s)", f"{self.total_seconds:.4f}"],
        ]


@dataclass(slots=True)
class _RankSweep:
    """Everything one rank's one-pass sweep produced."""

    rank: int
    reduced: dict[tuple, ReducedRankTrace]
    n_segments: int
    work: SweepWork


def merge_rank_groups(parts: list[_RankSweep]) -> _RankSweep:
    """Merge one rank's per-family-group sweeps into a single rank sweep.

    Used by the sharded dispatch, where each (rank batch × family group) pool
    task re-decodes its ranks' frames independently: config outcomes are disjoint
    across groups, every group saw the same segments (so the segment count is
    taken once, not summed), and the work counters — vector builds and lazy
    materializations, both real work done per group — add up.
    """
    if not parts:
        raise ValueError("cannot merge an empty list of rank sweeps")
    merged = parts[0]
    for part in parts[1:]:
        if part.rank != merged.rank:
            raise ValueError(f"cannot merge ranks {merged.rank} and {part.rank}")
        merged.reduced.update(part.reduced)
        merged.work = merged.work.merged_with(part.work)
    return merged


def _sweep_batch_task(
    specs: tuple[tuple, ...],
    batch: RankBatch,
    store_capacity: Optional[int],
    capture: bool = False,
) -> tuple[list[_RankSweep], Optional[obs.RecorderSnapshot]]:
    """One pool task of a sharded sweep: (rank batch × config group).

    The payload is just a file path, rank ids, and (method, threshold)
    pairs; the worker opens the indexed file, decodes the batch's byte
    ranges into columnar frames a run of ranks at a time, and runs the
    group's configs over each rank in one shared pass.  With ``capture=True`` the task
    records into a private recorder, publishes its :class:`SweepWork` there
    under the names the parent publishes the run's, and ships the snapshot
    back beside the rank sweeps.
    """
    plan = SweepPlan([SweepConfig(method, threshold) for method, threshold in specs])
    engine = SweepEngine(plan, store_capacity=store_capacity)
    with obs.task_recording(capture) as recorder:
        with obs.span("shard.batch", ranks=len(batch.ranks), bytes=batch.n_bytes):
            rank_sweeps = [
                engine.sweep_rank(frame.rank, frame) for frame in batch.iter_frames()
            ]
    snapshot = None
    if recorder is not None:
        work = SweepWork()
        for rank_sweep in rank_sweeps:
            work = work.merged_with(rank_sweep.work)
        work.record(recorder.registry, "sweep")
        snapshot = recorder.snapshot()
    return rank_sweeps, snapshot


class SweepEngine:
    """Evaluates a whole sweep plan in a single pass over each rank's frame.

    ``store_capacity`` bounds every config's per-rank representative store
    (``None`` keeps the unbounded byte-identical default, exactly as in the
    pipeline).
    """

    def __init__(self, plan: SweepPlan, *, store_capacity: Optional[int] = None) -> None:
        if not isinstance(plan, SweepPlan):
            plan = SweepPlan(plan)
        self.plan = plan
        self.store_capacity = store_capacity

    # -- per-rank reduction ------------------------------------------------------

    def sweep_rank(
        self, rank: int, segments: Union[RankFrame, Iterable[Segment]]
    ) -> _RankSweep:
        """Run every config of the plan over one rank's frame (or segments).

        A plain segment iterable adapts through the segments→frame adapter,
        so every caller runs the same columnar loop.
        """
        if isinstance(segments, RankFrame):
            frame = segments
        else:
            frame = RankFrame.from_segments(rank, segments)
        with obs.span("sweep.rank", rank=rank, configs=self.plan.n_configs):
            return self._sweep_rank(frame)

    def _sweep_rank(self, frame: RankFrame) -> _RankSweep:
        capacity = self.store_capacity
        rank = frame.rank
        n_segments = frame.n_segments
        vector_builds = 0
        vector_builds_naive = 0
        # One reduction state per config, each with a private store and
        # output, plus each family's shared probe vectors (one bulk frame
        # pass serves every member config).  Metric instances are fresh per
        # rank, mirroring the pipeline's per-task metric copies (metrics hold
        # no cross-rank state, but iter_avg's mutation path must never alias).
        by_config: list[tuple[SweepConfig, ReductionState]] = []
        families: list[tuple[list[ReductionState], Optional[list]]] = []
        for family in self.plan.families:
            states = []
            for config in family.configs:
                reduced = ReducedRankTrace(rank=rank, n_segments=n_segments)
                state = ReductionState(config.create(), reduced, create_store(capacity))
                states.append(state)
                by_config.append((config, state))
            vectors: Optional[list] = None
            if family.vectorized:
                # Logically still one build per segment, shared by every
                # member config.
                vectors = states[0].metric.frame_vectors(frame)
                vector_builds += n_segments
                vector_builds_naive += n_segments * len(states)
            families.append((states, vectors))

        step_frame(frame, families)

        result = _RankSweep(
            rank=rank,
            reduced={},
            n_segments=n_segments,
            work=SweepWork(frame.materialized, vector_builds, vector_builds_naive),
        )
        for config, state in by_config:
            result.reduced[config.key] = state.reduced
        return result

    # -- whole-source reduction ----------------------------------------------------

    def sweep(self, source: SegmentSource, *, name: Optional[str] = None) -> SweepResult:
        """One shared pass over every rank of ``source``, for the whole grid."""
        return self._run(
            name or source_name(source),
            "inline",
            lambda: [
                self.sweep_rank(rank, frame)
                for rank, frame in rank_frame_streams(source)
            ],
        )

    def _run(
        self,
        name: str,
        dispatch: str,
        rank_sweeps: Callable[[], list[_RankSweep]],
        **attrs,
    ) -> SweepResult:
        """One sweep run under its ``sweep.run`` span, timed from that span.

        ``rank_sweeps`` produces the per-rank sweeps however ``dispatch``
        says — in this process, or as pool tasks (:func:`sweep_pipeline`).
        """
        clock = StageClock("sweep")
        with clock.span("run", dispatch=dispatch, configs=self.plan.n_configs, **attrs):
            result = self._assemble(name, rank_sweeps(), dispatch)
        stats = result.stats
        stats.total_seconds = clock.seconds()["run"]
        if clock.recorder is not None:
            stats.record(clock.recorder.registry, "sweep")
        return result

    def _assemble(
        self, name: str, rank_sweeps: list[_RankSweep], dispatch: str
    ) -> SweepResult:
        """Reassemble per-rank sweeps (in rank-stream order) into the grid."""
        outcomes: list[ConfigOutcome] = []
        for config in self.plan.configs:
            metric = config.create()
            reduced = ReducedTrace(
                name=name, method=metric.name, threshold=metric.threshold
            )
            for rank_sweep in rank_sweeps:
                reduced.ranks.append(rank_sweep.reduced[config.key])
            outcomes.append(ConfigOutcome(config=config, reduced=reduced))
        work = SweepWork()
        for rank_sweep in rank_sweeps:
            work = work.merged_with(rank_sweep.work)
        stats = SweepStats(
            n_configs=self.plan.n_configs,
            n_families=self.plan.n_families,
            n_ranks=len(rank_sweeps),
            n_segments=sum(r.n_segments for r in rank_sweeps),
            dispatch=dispatch,
            **asdict(work),
        )
        return SweepResult(name=name, outcomes=outcomes, stats=stats)


def sweep_source(
    source: SegmentSource,
    plan: SweepPlan | Iterable,
    *,
    store_capacity: Optional[int] = None,
    name: Optional[str] = None,
) -> SweepResult:
    """Convenience wrapper: ``SweepEngine(plan).sweep(source)``."""
    return SweepEngine(plan, store_capacity=store_capacity).sweep(source, name=name)
