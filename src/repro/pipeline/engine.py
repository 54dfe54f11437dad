"""Parallel reduction engine: fan per-rank reduction out over a worker pool.

Intra-process reduction (Section 3.1) is embarrassingly parallel across ranks
— each rank's representative table is private — so the engine dispatches one
reduction task per rank to a :mod:`concurrent.futures` pool and reassembles
the per-rank results **in rank-stream order**.  Because the per-rank algorithm
is untouched and ordering is restored deterministically, the pipeline's output
serializes byte-identically to the scalar reference
(:meth:`~repro.core.reducer.TraceReducer.reduce_streams`; the equivalence
tests assert exactly that, for every similarity metric).

Executors
---------
``serial``
    No pool: each rank's frame is reduced in the caller's process, one rank
    at a time.  Memory is bounded by the largest rank's column arrays plus
    the representative store; it is also the fastest mode on every workload
    measured so far (ROADMAP, "The pool earns its code, or goes"), and the
    CLI's default.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  The match kernels
    are NumPy, but the per-rank bookkeeping around them holds the
    interpreter lock, so this is mainly the in-process pool the tests and
    the fuzz oracles run the pooled code on.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` (what a default
    :class:`PipelineConfig` selects).  Each
    worker builds its own representative store, so metric state never crosses
    rank boundaries — the same isolation the serial path provides.

Task dispatch (recorded in ``PipelineStats.dispatch``)
------------------------------------------------------
``inline``
    The serial path: no pool, frames reduced in place.
``shard``
    Indexed file sources (``.rpb``): pooled workers receive ``(path, rank)``
    shard tasks and each opens the file and decodes only its rank's byte
    range — ingestion parallelises and no rank payload is ever pickled.
``payload``
    Sources only this process can read (in-memory traces, forward-only text
    files): each rank's columnar frame is built here and pickled to a worker
    (column arrays pack far tighter than segment-object lists).

Both pooled shapes run the one task function (:func:`_rank_task`)
through the one submit/collect loop (:func:`_run_pool_tasks`), which
:func:`sweep_pipeline` shares.  Whatever the dispatch mode, every rank
reaches the reducer as a :class:`~repro.core.frames.RankFrame` — ``.rpb``
ranks decode straight to columns, text and in-memory sources adapt through
``RankFrame.from_segments`` — so all executors run the one columnar code
path, with the scalar segment-at-a-time reference kept as the
byte-identity oracle.
"""

from __future__ import annotations

import os
import pickle
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union

from repro import obs
from repro.core.candidates import MatchCounters
from repro.core.frames import RankFrame
from repro.core.metrics.base import SimilarityMetric
from repro.core.reduced import ReducedRankTrace, ReducedTrace
from repro.core.reducer import TraceReducer
from repro.pipeline.stats import PipelineStats, RankCounts, StageClock
from repro.pipeline.store import StoreCounters, create_store
from repro.pipeline.stream import (
    SegmentSource,
    indexed_source_ranks,
    rank_frame_streams,
    shard_frame,
    source_name,
)
from repro.trace.merge import MergedReducedTrace, merge_reduced_trace

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "ReductionPipeline",
    "reduce_pipeline",
    "sweep_pipeline",
]

EXECUTORS = ("serial", "thread", "process")

#: Tasks in flight per pool worker.  The bound keeps a many-rank ``payload``
#: run from holding every rank's frame at once; it must still leave
#: ``ProcessPoolExecutor``'s call queue full, which 2 per worker did not
#: (1024 short shard tasks ran 15% slower) and 8 per worker does (parity
#: with submitting everything up front).
_IN_FLIGHT_PER_WORKER = 8


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """How a :class:`ReductionPipeline` runs.

    Attributes
    ----------
    executor:
        ``"serial"`` (the default, and the measured winner on every workload
        so far), ``"thread"``, or ``"process"`` (see module docstring).
    workers:
        Pool size; ``None`` means ``os.cpu_count()`` (ignored by ``serial``).
    store_capacity:
        Bound on representatives kept per rank (the store's ``capacity``);
        ``None`` keeps the unbounded, byte-identical default.
    merge:
        Run the inter-process merge (cross-rank representative dedup) as a
        final stage.
    """

    executor: str = "serial"
    workers: Optional[int] = None
    store_capacity: Optional[int] = None
    merge: bool = False

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.store_capacity is not None and self.store_capacity < 1:
            raise ValueError(f"store_capacity must be >= 1, got {self.store_capacity}")

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


#: What every rank task returns: the reduced rank, its store and match
#: counters, the number of ``Segment`` objects the columnar path actually
#: materialized, and — in telemetry capture mode — the worker's recorder
#: snapshot (``None`` otherwise), piggybacked so no extra IPC round-trip is
#: needed.
RankTaskResult = tuple[
    ReducedRankTrace, StoreCounters, MatchCounters, int, Optional[obs.RecorderSnapshot]
]


def _rank_task(
    metric: SimilarityMetric,
    shard: Union[RankFrame, tuple[str, int]],
    store_capacity: Optional[int],
    capture: bool = False,
) -> RankTaskResult:
    """The one rank task: reduce a single rank with its own store.

    ``shard`` is either shape a rank takes on its way to a worker: the
    :class:`RankFrame` itself (``inline`` and ``payload`` dispatch), or the
    ``(path, rank)`` of an indexed file, which the worker opens to decode
    only that rank's byte range — under a ``shard.decode`` span, so a
    recorded timeline separates decode from match time per shard.

    Module-level so process pools can pickle it; the pickled ``metric`` gives
    every rank a private metric instance, mirroring serial semantics (metrics
    hold no cross-rank state).  With ``capture=True`` the task records its
    spans into a private recorder — shadowing any inherited or thread-shared
    ambient one — publishes its rank's :class:`RankCounts` there under the
    names the parent publishes the run's, and returns the snapshot as the
    final element.  The parent keeps the per-worker registries apart from
    its own, so nothing is double-counted and the two must agree.
    """
    with obs.task_recording(capture) as recorder:
        if isinstance(shard, RankFrame):
            frame = shard
        else:
            path, rank = shard
            with obs.span("shard.decode", rank=rank):
                frame = shard_frame(path, rank)
        store = create_store(store_capacity)
        match_counters = MatchCounters()
        with obs.span("rank.reduce", rank=frame.rank):
            reduced = TraceReducer(metric).reduce_frame(
                frame, store=store, match_counters=match_counters
            )
    snapshot = None
    if recorder is not None:
        counts = RankCounts()
        counts.add_rank(reduced, store.counters, match_counters, frame.materialized)
        counts.record(recorder.registry, "pipeline")
        snapshot = recorder.snapshot()
    return reduced, store.counters, match_counters, frame.materialized, snapshot


def _run_pool_tasks(
    executor: str, workers: int, task: Callable, calls: Iterable[tuple]
) -> list:
    """Run ``task(*call)`` for every call on a pool; results in submission order.

    The one submit/collect loop behind every pooled run.  At most
    ``_IN_FLIGHT_PER_WORKER * workers`` calls are in flight: once the window
    is full the oldest result is collected before the next call is submitted,
    so ``calls`` may be a generator that builds each call's payload only when
    it is about to be shipped.  A failed task — including a process worker
    that died (``BrokenProcessPool``) — raises here from its ``result()``;
    no partial result list is returned.
    """
    pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
    window = _IN_FLIGHT_PER_WORKER * workers
    pending: deque = deque()
    results = []
    with pool_cls(max_workers=workers) as pool:
        for call in calls:
            if len(pending) >= window:
                results.append(pending.popleft().result())
            pending.append(pool.submit(task, *call))
        results.extend(future.result() for future in pending)
    return results


class ReductionPipeline:
    """Streaming, parallel intra-process reduction with instrumentation."""

    def __init__(self, metric: SimilarityMetric, config: Optional[PipelineConfig] = None):
        if not isinstance(metric, SimilarityMetric):
            raise TypeError(
                f"metric must be a SimilarityMetric, got {type(metric).__name__}"
            )
        self.metric = metric
        self.config = config or PipelineConfig()

    def reduce(self, source: SegmentSource, *, name: Optional[str] = None) -> PipelineResult:
        """Reduce any segment source (trace, segmented trace, or file path).

        A pooled executor whose effective worker count is 1 is auto-downgraded
        to the serial path: a one-worker pool reduces rank-by-rank anyway, so
        it can only add pool startup and IPC overhead (single-CPU runs showed
        0.80x "speedups").  The downgrade is recorded in the stats
        (``requested_executor`` vs ``executor``) and never changes output.
        """
        config = self.config
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
        if workers == 1 or (n_ranks is not None and n_ranks <= 1):
            # One effective worker *or* one rank to reduce.
            executor = "serial"
        # Dispatch mode is a function of the executor and source alone, so it
        # is decided up front and the stats carry it from construction — the
        # telemetry attribute is never an empty string, even mid-run.
        if executor == "serial":
            dispatch = "inline"
        elif shard_ranks is not None:
            dispatch = "shard"
        else:
            dispatch = "payload"
        stats = PipelineStats(
            executor=executor,
            workers=workers,
            requested_executor=config.executor,
            dispatch=dispatch,
        )
        clock = StageClock("pipeline")
        recorder = clock.recorder

        with clock.span("run", executor=executor, dispatch=dispatch, workers=workers):
            with clock.span("reduce"):
                if dispatch == "inline":
                    # In the caller's process, so task spans land directly on
                    # the ambient recorder — no capture/snapshot round-trip.
                    results = [
                        _rank_task(self.metric, frame, config.store_capacity)
                        for _, frame in rank_frame_streams(source)
                    ]
                else:
                    if dispatch == "shard":
                        shards: Iterable = [(str(source), rank) for rank in shard_ranks]
                    else:
                        shards = self._payload_frames(source, clock)
                    capture = obs.enabled()
                    results = _run_pool_tasks(
                        executor,
                        workers if n_ranks is None else min(workers, n_ranks),
                        _rank_task,
                        (
                            (self.metric, shard, config.store_capacity, capture)
                            for shard in shards
                        ),
                    )

            ranks: list[ReducedRankTrace] = []
            for reduced_rank, counters, match_counters, n_materialized, snapshot in results:
                ranks.append(reduced_rank)
                stats.add_rank(reduced_rank, counters, match_counters, n_materialized)
                if recorder is not None:
                    recorder.absorb(snapshot)

            reduced = ReducedTrace(
                name=name or source_name(source),
                method=self.metric.name,
                threshold=self.metric.threshold,
                ranks=ranks,
            )

            merged: Optional[MergedReducedTrace] = None
            if config.merge:
                with clock.span("merge"):
                    merged = merge_reduced_trace(reduced)
                stats.merged_stored = merged.n_stored
                stats.merged_duplicates = merged.n_duplicates

        seconds = clock.seconds()
        stats.total_seconds = seconds.pop("run")
        # Payload frames are built inside the reduce stage; report the two
        # disjointly so the per-stage numbers add up to the total.
        if "ingest" in seconds:
            seconds["reduce"] -= seconds["ingest"]
        stats.stage_seconds = seconds
        if recorder is not None:
            stats.record(recorder.registry, "pipeline")
        return PipelineResult(reduced=reduced, stats=stats, merged=merged)

    @staticmethod
    def _payload_frames(source: SegmentSource, clock: StageClock) -> Iterator[RankFrame]:
        """The frames of a source only this process can read, built one by one.

        A generator, so the pool loop's in-flight window bounds how many
        ranks' column arrays exist at once; each frame is built (a no-op for
        a source that already holds frames) under a ``pipeline.ingest`` span,
        the ``ingest`` stage's clock.
        """
        capture = obs.enabled()
        streams = rank_frame_streams(source)
        while True:
            with clock.span("ingest"):
                rank_frame = next(streams, None)
            if rank_frame is None:
                return
            frame = rank_frame[1]
            if capture:
                # The serialized task size is the cost this dispatch mode
                # pays per rank; measuring it re-pickles, so the histogram is
                # only fed when telemetry is on.
                obs.observe(
                    "dispatch.payload_bytes",
                    len(pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)),
                )
            yield frame


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
):
    """Run a whole sweep grid over ``source``, parallelising where possible.

    For indexed (``.rpb``) file sources and a pooled executor, the grid is
    fanned out as **(rank-shard × feature-family)** tasks: each pool worker
    opens the file, decodes exactly one rank's byte range, and runs one
    family's configs over it in a single shared pass — so ingestion *and*
    the grid parallelise, task payloads carry only a path, a rank id, and
    (method, threshold) pairs, and vector sharing is preserved inside every
    task (configs of different families share no vectors anyway).

    Everything else — in-memory traces, forward-only text files, serial or
    single-worker configs, single-rank files — runs the whole grid through
    one shared segment stream in this process (``dispatch="inline"``), which
    is the sweep engine's home ground: segments are streamed exactly once
    for all configs.

    ``config.store_capacity`` bounds each config's per-rank store as usual;
    ``config.merge`` does not apply to sweeps and is ignored.  Returns a
    :class:`~repro.sweep.results.SweepResult`; per-config outputs are
    byte-identical to solo serial reductions in either dispatch mode.
    """
    from repro.sweep.engine import (
        SweepEngine,
        _sweep_shard_task,
        merge_rank_groups,
    )
    from repro.sweep.plan import SweepPlan

    if not isinstance(plan, SweepPlan):
        plan = SweepPlan(plan)
    config = config or PipelineConfig()
    engine = SweepEngine(plan, store_capacity=config.store_capacity)
    shard_ranks = indexed_source_ranks(source)
    workers = config.resolved_workers()
    if (
        config.executor == "serial"
        or workers == 1
        or shard_ranks is None
        or len(shard_ranks) <= 1
    ):
        return engine.sweep(source, name=name)

    path = str(Path(source))
    groups = [
        tuple(c.key for c in family.configs) for family in plan.families
    ]
    capture = obs.enabled()
    # Rank-major, so each rank's family groups come back adjacent.
    calls = [
        (group, path, rank, config.store_capacity, capture)
        for rank in shard_ranks
        for group in groups
    ]
    workers = min(workers, len(calls))

    def pooled_rank_sweeps() -> list:
        parts = _run_pool_tasks(config.executor, workers, _sweep_shard_task, calls)
        recorder = obs.current_recorder()
        if recorder is not None:
            for part in parts:
                recorder.absorb(part.snapshot)
        return [
            merge_rank_groups(parts[at : at + len(groups)])
            for at in range(0, len(parts), len(groups))
        ]

    return engine._run(
        name or source_name(source), "shard", pooled_rank_sweeps, workers=workers
    )
