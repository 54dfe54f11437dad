"""Intra-process trace reduction (Section 3.1 of the paper).

For every rank, segments are processed in execution order.  Each new segment
is normalised (timestamps relative to its start) and compared against the
stored representatives that share its *structure* — same context, same events
in the same order, same message-passing parameters.  The similarity metric
decides whether the measurements match; on a match only the ``(segment id,
start time)`` execution entry is recorded, otherwise the segment itself is
stored as a new representative.

That step is written twice, on purpose.  :class:`ReductionState` is the
columnar core: one (rank, config) reduction stepped over
:class:`~repro.core.frames.RankFrame` rows, materializing a segment only when
it becomes a representative — :meth:`TraceReducer.reduce_frame`, the online
session and the sweep engine all step it.  :meth:`TraceReducer.reduce_segments`
is the segment-at-a-time reference that the equivalence suites, the fuzz
oracles and the benchmark's output check compare the core against; it shares
no loop with it.

The candidate-list bookkeeping is delegated to a pluggable representative
store (see :mod:`repro.pipeline.store`) — anything with ``candidates(key)`` /
``add(key, stored)`` — which is how the pipeline bounds reducer memory; with
no store an unbounded :class:`~repro.core.candidates.InlineStore` is used.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.candidates import InlineStore, MatchCounters
from repro.core.metrics.base import DistanceMetric, SimilarityMetric
from repro.core.reduced import ReducedRankTrace, ReducedTrace, StoredSegment
from repro.trace.segments import Segment
from repro.trace.trace import SegmentedRankTrace, SegmentedTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.frames import RankFrame

__all__ = ["TraceReducer", "ReductionState", "reduce_trace", "SegmentStore"]


class SegmentStore(Protocol):
    """What the reducer needs from a representative store (duck-typed)."""

    def candidates(self, key: tuple) -> Sequence[StoredSegment]: ...

    def add(self, key: tuple, stored: StoredSegment) -> None: ...


class ReductionState:
    """One (rank, config) reduction in progress: the columnar match-or-store step.

    The state owns what one config keeps per rank — the metric, the
    representative store and the continuing :class:`ReducedRankTrace` — and
    is stepped one frame row at a time: look the row's key up
    (:attr:`lookup`), :meth:`match` a non-empty bucket, :meth:`record` the
    outcome.  :meth:`TraceReducer.reduce_frame` steps one state over a frame
    (the online session continues the same store and output across frames);
    the sweep engine steps one state per config over one shared frame.

    The probe is chosen once, at construction: a distance metric over a
    matrix-backed store (one with the ``add_built`` hook) is probed with the
    frame's pre-built feature rows (:attr:`dense`), so only representatives
    ever materialize; any other pairing is probed with the materialized
    segment itself.
    """

    __slots__ = (
        "metric",
        "reduced",
        "store",
        "lookup",
        "counters",
        "dense",
        "_next_id",
        "_probe",
        "_add_built",
        "_vector_key",
        "_mutates",
        "_default_on_match",
    )

    def __init__(
        self,
        metric: SimilarityMetric,
        reduced: ReducedRankTrace,
        store: SegmentStore,
        counters: Optional[MatchCounters] = None,
    ) -> None:
        self.metric = metric
        self.reduced = reduced
        self.store = store
        self.lookup = store.candidates  # prebound: hottest call in the loop
        self.counters = counters
        self._next_id = len(reduced.stored)
        self._add_built = getattr(store, "add_built", None)
        self.dense = isinstance(metric, DistanceMetric) and self._add_built is not None
        self._probe = metric.match_row if self.dense else metric.match_candidates
        self._vector_key = metric.vector_key() if self.dense else None
        self._mutates = metric.mutates_stored
        # When on_match is the base-class default (count the match) it runs
        # inline, so matches never force a Segment materialization.
        self._default_on_match = type(metric).on_match is SimilarityMetric.on_match

    def match(self, probe, candidates) -> Optional[StoredSegment]:
        """First representative of a non-empty bucket that ``probe`` matches.

        ``probe`` is a frame feature row when the state is :attr:`dense`,
        else the materialized normalised segment.  With :attr:`counters` the
        call is timed and counted.
        """
        counters = self.counters
        if counters is None:
            return self._probe(probe, candidates)
        started = perf_counter()
        chosen = self._probe(probe, candidates)
        counters.seconds += perf_counter() - started
        counters.calls += 1
        counters.rows_compared += len(candidates)
        return chosen

    def record(
        self,
        key,
        start: float,
        candidates,
        chosen: Optional[StoredSegment],
        vector: Optional[np.ndarray],
        frame: "RankFrame",
        index: int,
        rel: list,
    ) -> None:
        """Book one frame row: a match against ``chosen``, or a new representative.

        On a match, record the execution and update the chosen representative
        (refreshing its cached rows if the metric mutates it).  Otherwise
        store the row as a new representative; a dense probe ``vector`` seeds
        its vector cache with a private copy (a frame row is a view that
        would pin the whole group matrix) and is handed to the bucket so the
        row is never recomputed.

        ``rel`` is the caller's one-element cache of the row's materialized
        normalised segment, shared by every state stepped over the row; it is
        only filled when some state actually needs the object.
        """
        reduced = self.reduced
        if chosen is not None or candidates:
            reduced.n_possible_matches += 1
        if chosen is not None:
            reduced.n_matches += 1
            reduced.execs.append((chosen.segment_id, start))
            reduced.exec_matched.append(True)
            if self._default_on_match:
                chosen.count += 1
            else:
                relative = rel[0]
                if relative is None:
                    relative = rel[0] = frame.segment(index)
                self.metric.on_match(relative, chosen)
            if self._mutates:
                refresh = getattr(candidates, "refresh", None)
                if refresh is not None:
                    refresh(chosen)
            return
        if self._mutates:
            # The metric will rewrite the stored timestamps in place
            # (iter_avg's running mean), so the representative must not be
            # the materialized segment other states share through ``rel``.
            to_store = frame.segment(index)
        else:
            to_store = rel[0]
            if to_store is None:
                to_store = rel[0] = frame.segment(index)
        stored = StoredSegment(segment_id=self._next_id, segment=to_store)
        self._next_id += 1
        if vector is not None and not self._mutates:
            row = np.array(vector)
            stored.cached_vector(self._vector_key, lambda _s, _row=row: _row)
            self._add_built(key, stored, self.metric, row)
        else:
            self.store.add(key, stored)
        reduced.stored.append(stored)
        reduced.execs.append((stored.segment_id, start))
        reduced.exec_matched.append(False)


class TraceReducer:
    """Applies one similarity metric to segmented traces.

    A reducer instance is stateless between calls; it can be reused across
    ranks and traces.

    :meth:`reduce_frame` is the production path (columnar, lazily
    materializing, stepping a :class:`ReductionState`).
    :meth:`reduce_segments` is the segment-at-a-time reference that the
    equivalence suites, the fuzz oracles and the benchmark's output check
    hold the production path to; it deliberately shares no loop with it.
    ``batch`` only selects the reference's matcher: True (the default) runs
    the metric's dense kernel over each bucket's row matrix, False the
    paper's per-candidate ``metric.match`` scan — the ground truth.
    """

    def __init__(self, metric: SimilarityMetric, *, batch: bool = True):
        if not isinstance(metric, SimilarityMetric):
            raise TypeError(
                f"metric must be a SimilarityMetric, got {type(metric).__name__}"
            )
        self.metric = metric
        self.batch = bool(batch)

    # -- per-rank reduction ---------------------------------------------------

    def reduce_rank(
        self, rank_trace: SegmentedRankTrace, *, store: Optional[SegmentStore] = None
    ) -> ReducedRankTrace:
        """Reduce one rank's segment list."""
        return self.reduce_segments(rank_trace.segments, rank=rank_trace.rank, store=store)

    def reduce_segments(
        self,
        segments: Iterable[Segment],
        *,
        rank: int = 0,
        store: Optional[SegmentStore] = None,
        match_counters: Optional[MatchCounters] = None,
        into: Optional[ReducedRankTrace] = None,
    ) -> ReducedRankTrace:
        """Reduce a segment stream (list, generator, or any iterable).

        Segments are consumed one at a time; memory is bounded by the
        representative store, not the input length.  When ``match_counters``
        is given, the match-kernel stage (calls, candidate rows, wall time)
        is accumulated into it; with None the hot loop carries no timing
        overhead.

        ``into`` makes the call *incremental*: segments are appended to an
        existing :class:`ReducedRankTrace` (new representatives continue its
        id sequence) instead of starting a fresh one.  Passing the same
        ``store`` and ``into`` across successive calls reduces a trace that
        arrives in pieces byte-identically to one batch call over the
        concatenated stream.
        """
        reduced = ReducedRankTrace(rank=rank) if into is None else into
        if store is None:
            store = InlineStore()
        next_id = len(reduced.stored)
        metric = self.metric
        matcher = metric.match_candidates if self.batch else metric.match
        mutates = metric.mutates_stored

        for segment in segments:
            reduced.n_segments += 1
            relative = segment.relative_to_start()
            key = relative.structure()
            candidates = store.candidates(key)
            chosen = None
            if candidates:
                reduced.n_possible_matches += 1
                if match_counters is None:
                    chosen = matcher(relative, candidates)
                else:
                    started = perf_counter()
                    chosen = matcher(relative, candidates)
                    match_counters.seconds += perf_counter() - started
                    match_counters.calls += 1
                    match_counters.rows_compared += len(candidates)
            if chosen is not None:
                reduced.n_matches += 1
                reduced.execs.append((chosen.segment_id, segment.start))
                reduced.exec_matched.append(True)
                metric.on_match(relative, chosen)
                if mutates:
                    refresh = getattr(candidates, "refresh", None)
                    if refresh is not None:
                        refresh(chosen)
            else:
                stored_segment = StoredSegment(segment_id=next_id, segment=relative)
                next_id += 1
                store.add(key, stored_segment)
                reduced.stored.append(stored_segment)
                reduced.execs.append((stored_segment.segment_id, segment.start))
                reduced.exec_matched.append(False)
        return reduced

    # -- columnar (frame) reduction ---------------------------------------------

    def reduce_frame(
        self,
        frame: "RankFrame",
        *,
        store: Optional[SegmentStore] = None,
        match_counters: Optional[MatchCounters] = None,
        into: Optional[ReducedRankTrace] = None,
    ) -> ReducedRankTrace:
        """Reduce one rank's columnar frame — the lazy-materialization path.

        Structural keys and feature vectors come straight from the frame's
        bulk passes; :class:`~repro.trace.segments.Segment` objects are only
        materialized for stored representatives (and for metrics the bulk
        path cannot serve, which inspect the segment object itself).
        Byte-identical to :meth:`reduce_segments` over the frame's decoded
        segments.

        ``into`` continues an existing :class:`ReducedRankTrace` with the
        same ``store``: the incremental form the online reduction service
        (:mod:`repro.service`) uses to feed appended chunks through this
        path, byte-identically to one call over the concatenated frames.
        """
        reduced = ReducedRankTrace(rank=frame.rank) if into is None else into
        reduced.n_segments += frame.n_segments
        state = ReductionState(
            self.metric, reduced, InlineStore() if store is None else store, match_counters
        )
        keys = frame.structural_keys()
        starts = frame.starts_list()
        vectors = self.metric.frame_vectors(frame) if state.dense else None
        lookup, match, record = state.lookup, state.match, state.record

        rel: list = [None]  # the row's materialized segment, reset per row
        vector = None  # the row's feature vector, when that is the probe
        for i in range(frame.n_segments):
            if vectors is None:
                probe = rel[0] = frame.segment(i)
            else:
                probe = vector = vectors[i]
                rel[0] = None
            key = keys[i]
            candidates = lookup(key)
            chosen = match(probe, candidates) if candidates else None
            record(key, starts[i], candidates, chosen, vector, frame, i, rel)
        return reduced

    # -- whole-trace reduction --------------------------------------------------

    def reduce(
        self, trace: SegmentedTrace, *, match_counters: Optional[MatchCounters] = None
    ) -> ReducedTrace:
        """Reduce every rank of ``trace`` independently (intra-process reduction).

        Frame-backed ranks (a :class:`~repro.core.frametrace.FrameTrace`)
        route through :meth:`reduce_frame`, so their segments are never
        materialized just to be re-normalised; segment-list ranks take
        :meth:`reduce_segments` as before.  Both produce byte-identical
        reduced traces.
        """
        reduced = ReducedTrace(
            name=trace.name,
            method=self.metric.name,
            threshold=self.metric.threshold,
        )
        for rank_trace in trace.ranks:
            frame = getattr(rank_trace, "frame", None)
            # Span per rank, not per segment: the segment loop is the match
            # kernel's hot path and must stay telemetry-free.
            with obs.span("rank.reduce", rank=rank_trace.rank):
                if frame is not None:
                    reduced.ranks.append(
                        self.reduce_frame(frame, match_counters=match_counters)
                    )
                else:
                    reduced.ranks.append(
                        self.reduce_segments(
                            rank_trace.segments,
                            rank=rank_trace.rank,
                            match_counters=match_counters,
                        )
                    )
        return reduced

    def reduce_streams(
        self,
        name: str,
        streams: Iterable[Tuple[int, Iterable[Segment]]],
        *,
        store_factory=None,
        match_counters: Optional[MatchCounters] = None,
    ) -> ReducedTrace:
        """Reduce ``(rank, segment stream)`` pairs serially, in stream order.

        ``store_factory`` builds one representative store per rank (e.g.
        ``lambda: LRUStore(1000)``); with None each rank gets the unbounded
        inline dictionary.
        """
        reduced = ReducedTrace(
            name=name,
            method=self.metric.name,
            threshold=self.metric.threshold,
        )
        for rank, segments in streams:
            store = store_factory() if store_factory is not None else None
            # Span per rank, not per segment: the segment loop is the match
            # kernel's hot path and must stay telemetry-free.
            with obs.span("rank.reduce", rank=rank):
                reduced.ranks.append(
                    self.reduce_segments(
                        segments, rank=rank, store=store, match_counters=match_counters
                    )
                )
        return reduced


def reduce_trace(trace: SegmentedTrace, metric: SimilarityMetric) -> ReducedTrace:
    """Convenience wrapper: ``TraceReducer(metric).reduce(trace)``."""
    return TraceReducer(metric).reduce(trace)
