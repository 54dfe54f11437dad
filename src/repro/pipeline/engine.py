"""Parallel reduction engine: fan per-rank reduction out over a worker pool.

Intra-process reduction (Section 3.1) is embarrassingly parallel across ranks
— each rank's representative table is private — so the engine cuts the ranks
into batches, dispatches one reduction task per batch to a
:mod:`concurrent.futures` pool and reassembles the per-rank results **in
rank-stream order**.  Because the per-rank algorithm is untouched and
ordering is restored deterministically, the pipeline's output serializes
byte-identically to the scalar reference
(:meth:`~repro.core.reducer.TraceReducer.reduce_streams`; the equivalence
tests assert exactly that, for every similarity metric).

Executors
---------
``serial``
    No pool: each rank's frame is reduced in the caller's process, one rank
    at a time.  Memory is bounded by the column arrays of the largest rank
    (or of one run of short ranks, which an indexed file decodes together)
    plus the representative store.  The default: it has no start-up cost, so
    it wins on inputs that reduce in under ~0.2 s (an in-memory 32-rank Sweep3D)
    and on most forward-only sources, whose frames a pool must pickle (the
    measured exception is a strict distance method on a text file: the
    7.4 MB ``s3d32_long.txt`` at euclidean 0.001, file → file 0.71 s serial
    → 0.58 s on two workers, medians of ten alternating pairs on a 2-core box).
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  The match kernels
    are NumPy, but the per-rank bookkeeping around them holds the
    interpreter lock, so this is the in-process pool the tests and the fuzz
    oracles run the pooled code on, not a way to go faster: a
    :class:`PipelineConfig` value that no ``--executor`` flag offers.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  Each rank gets its
    own representative store inside its worker — the same isolation the
    serial path provides.  A metric whose draws run on from rank to rank
    (``RandomSampling``) is the one state that crosses ranks, so a run
    under it is reduced inline, like a one-worker pool.
    On indexed files it beats ``serial`` from two cores up once the input is
    big enough to pay for the fork (ROADMAP, "The pool earns its code":
    1024-rank ATS file → file, 0.32 s serial vs 0.23 s on 2 workers).

Task dispatch (recorded in ``PipelineStats.dispatch``)
------------------------------------------------------
``inline``
    The serial path: no pool, one-frame batches reduced in place.
``shard``
    Indexed file sources (``.rpb``): the ranks are cut, by the block lengths
    in the file's footer, into ``BATCHES_PER_WORKER × workers`` contiguous
    batches of near-equal bytes; pooled workers receive ``(path, ranks)``
    and each opens the file and decodes only its ranks' byte ranges, a run
    of ranks at a time (``trace.binio.rank_frames``: a long rank alone,
    short ranks together, so the fixed cost of a decode — the read, the
    marker split, the keys and vectors of the frame — is paid per run) —
    ingestion parallelises and no rank payload is ever pickled.
``payload``
    Sources only this process can read (in-memory traces, forward-only text
    files): each rank's columnar frame is built here and pickled to a worker
    as a one-frame batch (column arrays pack far tighter than segment-object
    lists).

Every shape runs the one batch loop (:func:`_reduce_batch`), the pooled ones
as the one pool task (:func:`_rank_task`) through the one submit/collect loop
(:func:`_run_pool_tasks`).  Whatever the dispatch mode, every rank reaches
the reducer as a :class:`~repro.core.frames.RankFrame` — ``.rpb`` ranks
decode straight to columns (each a row-range view of its run's frame), text
files and raw traces become frames from their records' columns, and only
in-memory segmented traces adapt through ``RankFrame.from_segments`` — so all
executors run the one columnar code path, with the scalar segment-at-a-time
reference kept as the byte-identity oracle.  :meth:`ReductionPipeline.write`
asks the tasks for serialized ranks instead of objects and appends them to a
file as they are collected; :meth:`ReductionPipeline.reduce` keeps the
objects for callers that go on to merge, verify or evaluate them.

Sweeps
------
A sweep grid is the same run with one metric per config
(:func:`sweep_pipeline`): the batch loop steps one
:class:`~repro.core.reducer.ReductionState` per metric over each rank's one
frame, a feature family's vectors built once and shared by its configs.
The dispatch decision (:func:`_start`), the batches, the task, the counts
(:class:`~repro.pipeline.stats.RankCounts`) and the stage-clock readback
(:meth:`_Run.finish`) are the single config's, so the grid's configs come
back byte-identical to solo runs whatever the dispatch.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from repro import obs
from repro.core.candidates import MatchCounters, RepresentativeStore
from repro.core.metrics.base import SimilarityMetric
from repro.core.reduced import ReducedRankTrace, ReducedTrace
from repro.core.reducer import ReductionState, step_families
from repro.pipeline.stats import PipelineStats, RankCounts, StageClock
from repro.pipeline.stream import (
    RankBatch,
    SegmentSource,
    indexed_source_ranks,
    rank_batches,
    source_name,
)
from repro.trace.io import atomic_output, iter_reduced_rank_chunks

if TYPE_CHECKING:
    from repro.sweep.results import SweepResult
    from repro.trace.merge import MergedReducedTrace

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "ReductionPipeline",
    "reduce_pipeline",
    "sweep_pipeline",
]

EXECUTORS = ("serial", "thread", "process")

#: The metrics a run reduces every rank under, grouped by feature family:
#: ``[[metric]]`` for a single config, a sweep plan's families for a grid.
Families = Sequence[Sequence[SimilarityMetric]]

#: Shard batches cut per pool worker.  One per worker would be least
#: dispatch, but block bytes only approximate work (a rank that stores every
#: segment costs more per byte than one that matches them all), so a few
#: spare batches let the faster worker take the slack; 1024-rank ATS wall
#: clock is flat from 2 to 64 batches on 2 workers.  (What a worker decodes
#: at a time is smaller: a run of ranks, ``trace.binio.RUN_BYTES`` of them.)
BATCHES_PER_WORKER = 4

#: Tasks in flight per pool worker.  Shard batches all fit; the bound is for
#: ``payload`` runs, whose every task carries a rank's frame, so that a
#: many-rank source never has all its frames built at once — and for
#: :meth:`ReductionPipeline.write`, which holds only the results in flight.
_IN_FLIGHT_PER_WORKER = 8


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """How a :class:`ReductionPipeline` runs.

    Attributes
    ----------
    executor:
        ``"serial"`` (the default), ``"thread"``, or ``"process"`` — which
        is faster depends on the source and its size; see the module
        docstring.
    workers:
        Pool size; ``None`` means ``os.cpu_count()`` (ignored by ``serial``).
    merge:
        Run the inter-process merge (cross-rank representative dedup) as a
        final stage.
    """

    executor: str = "serial"
    workers: Optional[int] = None
    merge: bool = False

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def resolved_workers(self) -> int:
        if self.executor == "serial":
            return 1
        return self.workers or os.cpu_count() or 1


@dataclass(slots=True)
class PipelineResult:
    """Everything one pipeline run produced."""

    reduced: ReducedTrace
    stats: PipelineStats
    merged: Optional[MergedReducedTrace] = None


def _reduce_batch(
    families: Families,
    batch: RankBatch,
    serialize: bool,
    counts: RankCounts,
) -> list:
    """Reduce a batch's ranks in order under every metric, counting into ``counts``.

    ``families`` groups the run's metrics by feature family (``[[metric]]``
    for a single config).  Each rank gets one
    :class:`~repro.core.reducer.ReductionState` per metric, each with its own
    store and output, and all of them are stepped over the rank's one frame
    (:func:`~repro.core.reducer.step_families`).  Returns one output per
    metric, in family order: its reduced ranks, or with ``serialize`` the
    bytes :func:`~repro.trace.io.iter_reduced_rank_chunks` gives them, joined
    — what :meth:`ReductionPipeline.write` appends to its file.
    """
    outputs: list[list] = [[] for family in families for _ in family]
    with obs.span("shard.batch", ranks=len(batch.ranks), bytes=batch.n_bytes):
        for frame in batch.iter_frames():
            grid = [
                [
                    ReductionState(
                        metric,
                        ReducedRankTrace(rank=frame.rank, n_segments=frame.n_segments),
                        RepresentativeStore(),
                        MatchCounters(),
                    )
                    for metric in family
                ]
                for family in families
            ]
            with obs.span("rank.reduce", rank=frame.rank):
                step_families(frame, grid)
            states = [state for family in grid for state in family]
            counts.add_rank(frame, states)
            for output, state in zip(outputs, states):
                # Serialized rank by rank, so a batch holds its bytes, not its objects.
                reduced = state.reduced
                output.append(b"".join(iter_reduced_rank_chunks(reduced)) if serialize else reduced)
    return [b"".join(output) for output in outputs] if serialize else outputs


#: What a pool task returns: its batch's outputs (one per metric), the
#: batch's counts, and — in telemetry capture mode — the worker's recorder
#: snapshot (``None`` otherwise), piggybacked so no extra IPC round-trip is
#: needed.
BatchResult = tuple[list, RankCounts, Optional[obs.RecorderSnapshot]]


def _rank_task(
    families: Families,
    batch: RankBatch,
    serialize: bool,
    capture: bool,
) -> BatchResult:
    """The one pool task: :func:`_reduce_batch` in a worker.

    A ``shard`` batch names ranks of an indexed file, which the worker opens
    and decodes a run of ranks at a time; a ``payload`` batch carries its frame.
    With ``serialize`` the parent gets bytes to append instead of objects it
    would unpickle only to serialize.

    Module-level so process pools can pickle it; the pickled ``families``
    give every task private metric instances, which is what a serial run
    does for every metric whose decisions depend on nothing a rank before
    left behind — a grid with one that does
    (:attr:`~repro.core.metrics.base.SimilarityMetric.stream_across_ranks`)
    is reduced inline by :func:`_start`, never by a task.  With
    ``capture=True`` the task records its spans into a private recorder —
    shadowing any inherited or thread-shared ambient one — publishes its
    batch's :class:`RankCounts`
    there under the names the parent publishes the run's, and returns the
    snapshot as the final element.  The parent keeps the per-worker registries apart from
    its own, so nothing is double-counted and the two must agree.
    """
    counts = RankCounts()
    with obs.task_recording(capture) as recorder:
        outputs = _reduce_batch(families, batch, serialize, counts)
    snapshot = None
    if recorder is not None:
        counts.record(recorder.registry, "pipeline")
        snapshot = recorder.snapshot()
    return outputs, counts, snapshot


def _run_pool_tasks(
    executor: str, workers: int, task: Callable, calls: Iterable[tuple]
) -> Iterator:
    """Run ``task(*call)`` for every call on a pool; yield results in submission order.

    The submit/collect loop behind every pooled run.  At most
    ``_IN_FLIGHT_PER_WORKER * workers`` calls are in flight: once the window
    is full the oldest result is yielded before the next call is submitted,
    so ``calls`` may be a generator that builds each call's payload only when
    it is about to be shipped, and the consumer may drop each result once it
    has used it.  A failed task — including a process worker that died
    (``BrokenProcessPool``) — raises here from its ``result()``.
    """
    # Imported here, not with the module: a serial run starts no pool.
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
    window = _IN_FLIGHT_PER_WORKER * workers
    pending: deque = deque()
    with pool_cls(max_workers=workers) as pool:
        for call in calls:
            if len(pending) >= window:
                yield pending.popleft().result()
            pending.append(pool.submit(task, *call))
        while pending:
            yield pending.popleft().result()


@dataclass(slots=True)
class _Run:
    """One run in progress: what :func:`_start` decided, and the metrics its
    tasks reduce every rank under."""

    stats: PipelineStats
    clock: StageClock
    batches: Iterable[RankBatch]
    #: Pool size actually started: never more workers than ranks.
    pool_workers: int
    families: Families

    def span(self):
        stats = self.stats
        return self.clock.span(
            "run", executor=stats.executor, dispatch=stats.dispatch, workers=stats.workers
        )

    def outputs(self, serialize: bool) -> Iterator[list]:
        """Reduce every batch under the ``reduce`` stage; yield each batch's
        outputs (one per metric) in rank order.

        The run's stats hold a batch's counts by the time its outputs are
        yielded, and the recorder its worker's snapshot.
        """
        stats, clock = self.stats, self.clock
        with clock.span("reduce"):
            if stats.dispatch == "inline":
                # In the caller's process: spans land directly on the ambient
                # recorder and counts in the run's stats, no round-trip.
                for batch in self.batches:
                    yield _reduce_batch(self.families, batch, serialize, stats)
                return
            capture = obs.enabled()
            calls = ((self.families, batch, serialize, capture) for batch in self.batches)
            for outputs, counts, snapshot in _run_pool_tasks(
                stats.executor, self.pool_workers, _rank_task, calls
            ):
                stats.add(counts)
                if clock.recorder is not None:
                    clock.recorder.absorb(snapshot)
                yield outputs

    def finish(self) -> None:
        """Read the closed stage spans back into the stats and publish them."""
        stats = self.stats
        seconds = self.clock.seconds()
        stats.total_seconds = seconds.pop("run")
        # Payload frames are built inside the reduce stage; report the two
        # disjointly so the per-stage numbers add up to the total.
        if "ingest" in seconds:
            seconds["reduce"] -= seconds["ingest"]
        stats.stage_seconds = seconds
        if self.clock.recorder is not None:
            stats.record(self.clock.recorder.registry, "pipeline")


def _start(source: SegmentSource, config: PipelineConfig, families: Families) -> _Run:
    """Decide executor and dispatch for ``source`` and cut its tasks.

    The one dispatch rule of both commands: a single config and a sweep grid
    differ only in ``families``.  Dispatch mode is a function of the
    executor and source alone, so it is decided up front and the stats carry
    it from construction — the telemetry attribute is never an empty
    string, even mid-run.
    """
    workers = config.resolved_workers()
    executor = config.executor
    shard_ranks = indexed_source_ranks(source)
    # Indexed files reveal their rank count in the footer and in-memory
    # traces hold it; forward-only text files don't, so a 1-rank text
    # file still goes through the pool.
    if shard_ranks is not None:
        n_ranks: Optional[int] = len(shard_ranks)
    elif isinstance(source, (str, Path)):
        n_ranks = None
    else:
        n_ranks = len(source.ranks)
    if (
        workers == 1
        or (n_ranks is not None and n_ranks <= 1)
        or any(metric.stream_across_ranks for family in families for metric in family)
    ):
        # One effective worker, one rank to reduce, or a metric whose one
        # stream of draws must meet the ranks in order in this process (a
        # pickled task would restart it, threads would interleave it).
        executor = "serial"
    clock = StageClock("pipeline")
    if executor == "serial":
        dispatch = "inline"
        batches = rank_batches(source)
    elif shard_ranks is not None:
        dispatch = "shard"
        batches = rank_batches(source, BATCHES_PER_WORKER * workers)
    else:
        dispatch = "payload"
        batches = _ingested(rank_batches(source), clock)
    stats = PipelineStats(
        executor=executor,
        workers=workers,
        requested_executor=config.executor,
        dispatch=dispatch,
    )
    pool_workers = workers if n_ranks is None else min(workers, n_ranks)
    return _Run(stats, clock, batches, pool_workers, families)


def _ingested(batches: Iterator[RankBatch], clock: StageClock) -> Iterator[RankBatch]:
    """``payload`` batches, each frame built under the ``ingest`` stage's clock.

    A generator, so the pool loop's in-flight window bounds how many
    ranks' column arrays exist at once; each frame is built (a no-op for
    a source that already holds frames) under a ``pipeline.ingest`` span.
    """
    capture = obs.enabled()
    while True:
        with clock.span("ingest"):
            batch = next(batches, None)
        if batch is None:
            return
        if capture:
            # The serialized task size is the cost this dispatch mode
            # pays per rank; measuring it re-pickles, so the histogram is
            # only fed when telemetry is on.
            obs.observe(
                "dispatch.payload_bytes",
                len(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)),
            )
        yield batch


class ReductionPipeline:
    """Streaming, parallel intra-process reduction with instrumentation.

    :meth:`reduce` returns the reduced trace in memory, :meth:`write` puts
    its serialization in a file without assembling it; both go through the
    same tasks in the same order and report the same stats.

    A pooled executor whose effective worker count is 1 is auto-downgraded
    to the serial path: a one-worker pool reduces rank-by-rank anyway, so
    it can only add pool startup and IPC overhead (single-CPU runs showed
    0.80x "speedups").  So is a run under a metric that draws one stream
    across its ranks, whose bytes a pool would change.  The downgrade is
    recorded in the stats (``requested_executor`` vs ``executor``) and never
    changes output.
    """

    def __init__(self, metric: SimilarityMetric, config: Optional[PipelineConfig] = None):
        if not isinstance(metric, SimilarityMetric):
            raise TypeError(
                f"metric must be a SimilarityMetric, got {type(metric).__name__}"
            )
        self.metric = metric
        self.config = config or PipelineConfig()

    def reduce(self, source: SegmentSource, *, name: Optional[str] = None) -> PipelineResult:
        """Reduce any segment source (trace, segmented trace, or file path)."""
        run = _start(source, self.config, [[self.metric]])
        stats = run.stats
        with run.span():
            ranks: list[ReducedRankTrace] = []
            for (reduced_ranks,) in run.outputs(serialize=False):
                ranks.extend(reduced_ranks)

            reduced = ReducedTrace(
                name=name or source_name(source),
                method=self.metric.name,
                threshold=self.metric.threshold,
                ranks=ranks,
            )

            merged: Optional[MergedReducedTrace] = None
            if self.config.merge:
                from repro.trace.merge import merge_reduced_trace

                with run.clock.span("merge"):
                    merged = merge_reduced_trace(reduced)
                stats.merged_stored = merged.n_stored
                stats.merged_duplicates = merged.n_duplicates

        run.finish()
        return PipelineResult(reduced=reduced, stats=stats, merged=merged)

    def write(self, source: SegmentSource, path: str | Path) -> tuple[int, PipelineStats]:
        """Reduce ``source`` straight into the file ``path``; returns (bytes written, stats).

        The file holds ``serialize_reduced_trace(self.reduce(source).reduced)``
        byte for byte, but no reduced trace is assembled: every task returns
        its ranks already serialized and the bytes are appended in rank order
        as the tasks are collected — rank by rank on the ``serial`` executor
        — so at most the pool's in-flight window of the output is held at
        once, and the ``reduce`` stage's seconds include the appends.  The
        file is an :func:`~repro.trace.io.atomic_output`: a run that fails
        leaves ``path`` as it was.  ``config.merge`` needs the objects and
        does not apply.
        """
        run = _start(source, self.config, [[self.metric]])
        written = 0
        with run.span(), atomic_output(path) as handle:
            for (data,) in run.outputs(serialize=True):
                written += handle.write(data)
        run.finish()
        return written, run.stats


def reduce_pipeline(
    source: SegmentSource,
    metric: SimilarityMetric,
    config: Optional[PipelineConfig] = None,
    *,
    name: Optional[str] = None,
) -> PipelineResult:
    """Convenience wrapper: ``ReductionPipeline(metric, config).reduce(source)``."""
    return ReductionPipeline(metric, config).reduce(source, name=name)


def sweep_pipeline(
    source: SegmentSource,
    plan,
    config: Optional[PipelineConfig] = None,
    *,
    name: Optional[str] = None,
) -> SweepResult:
    """Reduce ``source`` under every config of a sweep grid: the pipeline run
    with one metric per config.

    The run takes the pipeline's dispatch (:func:`_start`), batches and task;
    each task steps one state per config over every rank's one frame, each
    feature family's vectors built once per rank and shared by its configs.
    ``plan`` is a :class:`~repro.sweep.plan.SweepPlan` or anything its
    constructor accepts.  ``config.merge`` does not apply to sweeps and is
    ignored.  Every config's reduced trace is byte-identical to a solo
    serial reduction, whatever the dispatch.
    """
    from repro.sweep.plan import SweepPlan
    from repro.sweep.results import ConfigOutcome, SweepResult, SweepStats

    if not isinstance(plan, SweepPlan):
        plan = SweepPlan(plan)
    families = [[c.create() for c in family.configs] for family in plan.families]
    run = _start(source, config or PipelineConfig(), families)
    metrics = [metric for family in families for metric in family]
    ranks: list[list[ReducedRankTrace]] = [[] for _ in metrics]
    with run.span():
        for outputs in run.outputs(serialize=False):
            for config_ranks, reduced_ranks in zip(ranks, outputs):
                config_ranks.extend(reduced_ranks)
    run.finish()

    name = name or source_name(source)
    configs = [c for family in plan.families for c in family.configs]
    by_key = {
        c.key: ReducedTrace(
            name=name, method=metric.name, threshold=metric.threshold, ranks=config_ranks
        )
        for c, metric, config_ranks in zip(configs, metrics, ranks)
    }
    outcomes = [ConfigOutcome(config=c, reduced=by_key[c.key]) for c in plan.configs]
    counts = run.stats
    stats = SweepStats(
        n_configs=plan.n_configs,
        n_families=plan.n_families,
        n_ranks=counts.nprocs,
        n_segments=counts.n_segments,
        segments_materialized=counts.segments_materialized,
        # One vector build per segment and family, where a per-config loop
        # would build one per config.
        vector_builds=counts.n_segments * plan.n_families,
        vector_builds_naive=counts.n_segments * plan.n_configs,
        total_seconds=counts.total_seconds,
        dispatch=counts.dispatch,
    )
    if run.clock.recorder is not None:
        stats.record(run.clock.recorder.registry, "sweep")
    return SweepResult(name=name, outcomes=outcomes, stats=stats)
