"""Intra-process trace reduction (Section 3.1 of the paper).

For every rank, segments are processed in execution order.  Each new segment
is normalised (timestamps relative to its start) and compared against the
stored representatives that share its *structure* — same context, same events
in the same order, same message-passing parameters.  The similarity metric
decides whether the measurements match; on a match only the ``(segment id,
start time)`` execution entry is recorded, otherwise the segment itself is
stored as a new representative.

That step is written twice, on purpose: the core and the scalar reference.

:class:`ReductionState` is the columnar core, the only way the product
reduces: one (rank, config) reduction stepped over a
:class:`~repro.core.frames.RankFrame`.  A dense state (the distance and
wavelet methods) builds no :class:`~repro.trace.segments.Segment`: a new
representative is booked as the ``(frame, row)`` it is, and only a state that
probes with the object (the iteration methods, a metric that rewrites what it
stored, a custom ``on_match``) materializes rows.  :func:`step_frame` is the
one loop that steps states over a frame, and :func:`step_families` the one
place that builds a family's shared vectors for it —
:meth:`TraceReducer.reduce_frame` (and through it :meth:`TraceReducer.reduce`,
the evaluation runner and the online session) calls it with one state, the
pipeline's batch task with one state per metric of its grid (a sweep's whole
plan, or the one metric of a single config).  The core has two steps with
one outcome: the per-row ``match``/``record`` step, and its exact batch form
:meth:`ReductionState.match_batch`, which resolves a whole frame per
structural key in ``O(keys + new representatives)`` kernel calls; a state
takes the batch step whenever :attr:`ReductionState.batchable` holds.

:meth:`TraceReducer.reduce_segments` is the reference and nothing else: the
paper's loop over :class:`~repro.trace.segments.Segment` objects, calling
the metric's scalar ``match`` scan for every segment.  The equivalence
suites, the fuzz oracles, ``--verify`` and the benchmark's output check hold
the core to its bytes; it shares no loop and no kernel with the core.

Representatives live in a
:class:`~repro.core.candidates.RepresentativeStore`, one per (rank, config):
unbounded by default, bounded by its ``capacity`` when the pipeline caps
reducer memory.
"""

from __future__ import annotations

from itertools import repeat
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.candidates import MatchCounters, RepresentativeStore
from repro.core.frames import RankFrame
from repro.core.metrics.base import DistanceMetric, SimilarityMetric
from repro.core.reduced import ReducedRankTrace, ReducedTrace, StoredSegment
from repro.trace.segments import Segment
from repro.trace.trace import SegmentedTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.frametrace import FrameTrace

__all__ = [
    "TraceReducer",
    "ReductionState",
    "KeyBatches",
    "step_frame",
    "step_families",
    "reduce_trace",
]

#: Element budget of one broadcast kernel call of the batch step: probes are
#: blocked so ``probes × representatives × width`` stays under it, which keeps
#: the kernel's temporaries cache-sized however deep the bucket is.
_BLOCK_ELEMENTS = 1 << 16

#: Per metric class: does its kernel serve the batch step's call shapes?
_BROADCASTS: dict = {}


def _kernel_broadcasts(metric: DistanceMetric) -> bool:
    """Whether ``metric``'s kernel serves the two call shapes the batch step adds.

    Probed once per metric class, on a stack whose three extents all differ:
    probes ``(p, 1, n)`` against a ``(rows, n)`` matrix must give ``(p, rows)``
    results whose rows equal the 1-D calls and whose columns equal the
    swapped-role calls (see :meth:`DistanceMetric.match_stats`).  A kernel
    written to the older contract — reducing over ``axis=1``, a scalar-only
    ``row_scale``, a limit relative to the stored row alone — fails or raises
    here, and its states keep the per-row step.
    """
    cls = type(metric)
    if cls not in _BROADCASTS:
        try:
            _BROADCASTS[cls] = _probe_kernel(metric)
        except Exception:  # noqa: BLE001 - whatever it raised, it is not this contract
            _BROADCASTS[cls] = False
    return _BROADCASTS[cls]


def _probe_kernel(metric: DistanceMetric) -> bool:
    width = np.arange(1.0, 6.0)
    probes, matrix = np.outer([1.0, 1.01, 3.0], width), np.outer([1.0, 2.0], width)
    scale = metric.row_scale or (lambda rows: None)

    def stats(vector, rows, shape):
        # Statistic and limit base as one array; a result of another shape raises.
        stat, base = metric.match_stats(vector, rows, scale(rows))
        return np.stack([stat, np.broadcast_to(1.0 if base is None else base, shape)])

    both = stats(probes[:, None, :], matrix, (3, 2))
    return all(
        np.array_equal(both[:, i], stats(probes[i], matrix, (2,))) for i in range(3)
    ) and all(np.array_equal(both[:, :, j], stats(matrix[j], probes, (3,))) for j in range(2))


class KeyBatches:
    """A frame's rows grouped by interned structural key, first appearance first.

    The config-independent half of the batch step, built once per (frame,
    feature family) and shared by every state stepped over it.  Each entry of
    :attr:`groups` is ``(key, rows, probes)``: the ascending frame row indices
    that carry ``key`` and their feature vectors stacked into one matrix.
    """

    __slots__ = ("frame", "vectors", "groups")

    def __init__(self, frame: RankFrame, vectors: Sequence[np.ndarray]) -> None:
        by_key: dict = {}
        for i, key in enumerate(frame.structural_keys()):
            by_key.setdefault(key, []).append(i)
        self.frame = frame
        self.vectors = vectors
        self.groups = [
            (key, np.array(rows), np.array([vectors[i] for i in rows]))
            for key, rows in by_key.items()
        ]


class ReductionState:
    """One (rank, config) reduction in progress: the columnar match-or-store step.

    The state owns what one config keeps per rank — the metric, the
    representative store and the continuing :class:`ReducedRankTrace` — and
    is stepped one frame row at a time: look the row's key up
    (:attr:`lookup`), :meth:`match` a non-empty bucket, :meth:`record` the
    outcome.  :func:`step_frame` does the stepping (the online session
    continues the same store and output across frames; a sweep steps one
    state per config over one shared frame).

    The probe is chosen once, at construction: a distance metric that leaves
    its representatives alone is probed with the frame's pre-built feature
    rows (:attr:`dense`) against the rows its bucket stored, and stores a new
    representative as its ``(frame, row)``, so nothing materializes; any other
    metric — the iteration methods, a distance metric that rewrites what it
    stored — is probed with the materialized segment itself through its
    exact ``match`` scan and stores that object.

    So is the step.  :attr:`batchable` is the predicate: the state is dense,
    the metric does not override ``on_match``, its kernel serves the
    broadcast call shapes (:func:`_kernel_broadcasts`), and the store is an
    unbounded :class:`~repro.core.candidates.RepresentativeStore` by exact
    type.  Then a decision depends only on the representatives that precede
    the row under its own key, and :meth:`match_batch` resolves a whole frame
    key by key.  ``iter_avg`` rewrites a representative on every match, a
    custom ``on_match`` must see each segment, a bounded store evicts by the
    order of its hits — each makes a later decision depend on every earlier
    one — and a store subclass may filter or count in the ``candidates`` call
    the batch step skips, so those states keep the per-row step.
    """

    __slots__ = (
        "metric",
        "reduced",
        "store",
        "lookup",
        "counters",
        "dense",
        "batchable",
        "_next_id",
        "_probe",
        "_mutates",
        "_default_on_match",
    )

    def __init__(
        self,
        metric: SimilarityMetric,
        reduced: ReducedRankTrace,
        store: RepresentativeStore,
        counters: Optional[MatchCounters] = None,
    ) -> None:
        self.metric = metric
        self.reduced = reduced
        self.store = store
        self.lookup = store.candidates  # prebound: hottest call in the loop
        self.counters = counters
        self._next_id = len(reduced.stored)
        self._mutates = metric.mutates_stored
        self.dense = isinstance(metric, DistanceMetric) and not self._mutates
        self._probe = metric.match_row if self.dense else metric.match
        # When on_match is the base-class default (count the match) it runs
        # inline, so matches never force a Segment materialization.
        self._default_on_match = type(metric).on_match is SimilarityMetric.on_match
        self.batchable = (
            self.dense
            and self._default_on_match
            # Exact type: a subclass may filter or count in ``candidates``,
            # which the batch step does not call.
            and type(store) is RepresentativeStore
            and store.capacity is None
            and _kernel_broadcasts(metric)
        )

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
        frame: RankFrame,
        index: int,
        rel: list,
    ) -> None:
        """Book one frame row: a match against ``chosen``, or a new representative.

        On a match, record the execution and update the chosen
        representative.  Otherwise store the row as a new representative; a
        dense probe ``vector`` goes into the bucket with it, as its matrix
        row.

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
            return
        if self.dense:
            # The row itself, with the probe that just failed to match as its
            # matrix row and the metric's ``row_scale`` of it.
            scale = self.metric.row_scale
            stored = StoredSegment(self._next_id, origin=(frame, index))
            self._store_new(key, stored, vector, None if scale is None else scale(vector))
        else:
            if self._mutates:
                # The metric will rewrite the stored timestamps in place
                # (iter_avg's running mean), so the representative must not
                # be the materialized segment other states share through ``rel``.
                segment = frame.segment(index)
            else:
                segment = rel[0]
                if segment is None:
                    segment = rel[0] = frame.segment(index)
            stored = StoredSegment(self._next_id, segment)
            self._store_new(key, stored)
        reduced.execs.append((stored.segment_id, start))
        reduced.exec_matched.append(False)

    def _store_new(
        self,
        key,
        stored: StoredSegment,
        vector: Optional[np.ndarray] = None,
        scale: Optional[float] = None,
    ) -> None:
        """Store ``stored``, built with :attr:`_next_id`, as the next representative."""
        self._next_id += 1
        self.store.add(key, stored, vector, scale)
        self.reduced.stored.append(stored)

    def match_batch(self, batches: KeyBatches) -> None:
        """Match-or-store every row of ``batches.frame``: the exact batch step.

        Only for a :attr:`batchable` state.  Per structural key, in the order
        the per-row step would meet them:

        1. a bucket that already holds representatives (a session chunk)
           takes one broadcast kernel call, blocked over the probes, that
           gives every probe its first matching *existing* representative —
           representatives created later sit behind those, so they cannot
           change it;
        2. the residue is resolved by *leader rounds*: the earliest unresolved
           probe has failed every representative that precedes it, so it is a
           new representative; one kernel call compares it with the later
           unresolved probes, and those it matches resolve to it — it is
           their first match, since they failed every earlier one.

        Then everything is booked in segment order, so new representatives
        take the ids, and the buckets the order, that the per-row step gives
        them — each as its ``(frame, row)``, with the scale its leader round
        computed.
        """
        frame, vectors = batches.frame, batches.vectors
        metric, store, reduced, counters = self.metric, self.store, self.reduced, self.counters
        kernel, threshold, row_scale = metric.match_stats, metric.threshold, metric.row_scale
        n = frame.n_segments
        first_id = self._next_id
        ids = np.empty(n, dtype=np.int64)  # each row's representative id
        leader = np.full(n, -1, dtype=np.int64)  # or, until ids exist, its new one's row
        scale_of = None if row_scale is None else np.empty(n)  # each unresolved row's scale
        misses = 0

        def compare(vector, matrix, scales):
            # The clock is read only when there is a counter to add it to.
            started = 0.0 if counters is None else perf_counter()
            stat, base = kernel(vector, matrix, scales)
            mask = stat <= (threshold if base is None else threshold * base)
            if counters is not None:
                counters.seconds += perf_counter() - started
                counters.calls += 1
                counters.rows_compared += mask.size
            return mask

        for key, rows, probes in batches.groups:
            bucket = store.bucket(key)
            if bucket:
                matrix, scales = bucket.matrix_and_scales()
                block = max(1, _BLOCK_ELEMENTS // matrix.size)
                first = np.empty(len(rows), dtype=np.intp)
                for lo in range(0, len(rows), block):
                    mask = compare(probes[lo : lo + block, None, :], matrix, scales)
                    first[lo : lo + block] = np.where(mask.any(axis=1), mask.argmax(axis=1), -1)
                found = first >= 0
                ids[rows[found]] = [bucket[j].segment_id for j in first[found].tolist()]
                rows, probes = rows[~found], probes[~found]
            else:
                misses += 1
            scales = None
            if row_scale is not None:
                scales = scale_of[rows] = row_scale(probes)
            while rows.size:
                lead, vector = rows[0], probes[0]
                leader[lead] = lead
                rows, probes = rows[1:], probes[1:]
                if scales is not None:
                    scales = scales[1:]
                if not rows.size:
                    break
                mask = compare(vector, probes, scales)
                if mask.any():
                    leader[rows[mask]] = lead
                    keep = ~mask
                    rows, probes = rows[keep], probes[keep]
                    if scales is not None:
                        scales = scales[keep]

        is_new = leader == np.arange(n)
        new_rows = np.flatnonzero(is_new)  # segment order, across keys
        resolved = leader >= 0
        ids[resolved] = first_id + np.searchsorted(new_rows, leader[resolved])
        reduced.execs.extend(zip(ids.tolist(), frame.starts_list()))
        reduced.exec_matched.extend((~is_new).tolist())
        reduced.n_matches += n - len(new_rows)
        reduced.n_possible_matches += n - misses
        store.count_lookups(n - misses, misses)
        counts = np.bincount(ids, minlength=first_id)
        for sid in np.flatnonzero(counts[:first_id]).tolist():
            reduced.stored[sid].count += int(counts[sid])
        keys = frame.structural_keys()
        new_scales = repeat(None) if scale_of is None else scale_of[new_rows].tolist()
        for row, count, scale in zip(new_rows.tolist(), counts[first_id:].tolist(), new_scales):
            stored = StoredSegment(self._next_id, count=count, origin=(frame, row))
            self._store_new(keys[row], stored, vectors[row], scale)


def step_frame(
    frame: RankFrame,
    groups: Sequence[tuple[Sequence[ReductionState], Optional[Sequence[np.ndarray]]]],
) -> None:
    """Match-or-store every row of ``frame`` in every state: the one frame driver.

    Each entry of ``groups`` is ``(states, vectors)``: states probed alike —
    with ``vectors``, their metrics' common feature row per frame row (they
    are all :attr:`~ReductionState.dense`), or with the materialized segment
    when ``vectors`` is None.

    A vectorized group whose states are all
    :attr:`~ReductionState.batchable` is resolved by the batch step, state by
    state over one shared :class:`KeyBatches` grouping; every other group
    takes the per-row step, all of them inside one pass over the rows.
    Either way each state makes the decisions a solo run makes, in the same
    order.  The frame's time order is checked first, every row of it
    (:meth:`RankFrame.check_time_order`): no step may build the objects whose
    construction used to check it.
    """
    frame.check_time_order()
    stepped = []
    for states, vectors in groups:
        if vectors is not None and all(state.batchable for state in states):
            batches = KeyBatches(frame, vectors)
            for state in states:
                state.match_batch(batches)
        else:
            stepped.append((states, vectors))
    if not stepped:
        return
    keys = frame.structural_keys()
    starts = frame.starts_list()
    for i in range(frame.n_segments):
        key = keys[i]
        start = starts[i]
        # One-element cache of the row's materialized normalised segment,
        # shared by every state that needs the object itself.
        rel: list = [None]
        for states, vectors in stepped:
            if vectors is None:
                probe = rel[0]
                if probe is None:
                    probe = rel[0] = frame.segment(i)
                vector = None
            else:
                # One pre-built row serves every member state, both as the
                # match probe and as the matrix row of a new representative.
                probe = vector = vectors[i]
            for state in states:
                candidates = state.lookup(key)
                chosen = state.match(probe, candidates) if candidates else None
                state.record(key, start, candidates, chosen, vector, frame, i, rel)


def step_families(frame: RankFrame, families: Sequence[Sequence[ReductionState]]) -> None:
    """:func:`step_frame` over states grouped by feature family.

    The states of one family share a vector layout: a dense family is probed
    with its first metric's :meth:`~DistanceMetric.frame_vectors` (one bulk
    pass serves every member), any other with the segment object.
    :meth:`TraceReducer.reduce_frame` passes one state, the pipeline's batch
    task one per metric of its grid.
    """
    step_frame(
        frame,
        [
            (states, states[0].metric.frame_vectors(frame) if states[0].dense else None)
            for states in families
        ],
    )


class TraceReducer:
    """Applies one similarity metric to segmented traces.

    A reducer instance is stateless between calls; it can be reused across
    ranks and traces.

    :meth:`reduce_frame` is the product's one reduction (columnar, stepping a
    :class:`ReductionState`); :meth:`reduce` runs it over every rank of a
    trace.  :meth:`reduce_segments` /
    :meth:`reduce_streams` are the scalar reference — the paper's
    per-candidate ``metric.match`` scan, segment at a time — that the
    equivalence suites, the fuzz oracles and the benchmark's output check
    hold the product to; it deliberately shares no loop with it.
    """

    def __init__(self, metric: SimilarityMetric):
        if not isinstance(metric, SimilarityMetric):
            raise TypeError(
                f"metric must be a SimilarityMetric, got {type(metric).__name__}"
            )
        self.metric = metric

    # -- the scalar reference ---------------------------------------------------

    def reduce_segments(
        self,
        segments: Iterable[Segment],
        *,
        rank: int = 0,
        store: Optional[RepresentativeStore] = None,
        match_counters: Optional[MatchCounters] = None,
        into: Optional[ReducedRankTrace] = None,
    ) -> ReducedRankTrace:
        """The reference: reduce a segment stream with the scalar ``match`` scan.

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
            store = RepresentativeStore()
        next_id = len(reduced.stored)
        metric = self.metric
        matcher = metric.match

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
        frame: RankFrame,
        *,
        store: Optional[RepresentativeStore] = None,
        match_counters: Optional[MatchCounters] = None,
        into: Optional[ReducedRankTrace] = None,
    ) -> ReducedRankTrace:
        """Reduce one rank's columnar frame.

        Structural keys and feature vectors come straight from the frame's
        bulk passes; :class:`~repro.trace.segments.Segment` objects are only
        materialized for the metrics the bulk path cannot serve, which
        inspect the segment object itself — a dense state's representatives
        stay ``(frame, row)`` until someone reads their ``.segment``.
        A :attr:`~ReductionState.batchable` state takes the batch step, any
        other the per-row step; either way the result is byte-identical to
        :meth:`reduce_segments` over the frame's decoded segments.

        ``into`` continues an existing :class:`ReducedRankTrace` with the
        same ``store``: the incremental form the online reduction service
        (:mod:`repro.service`) uses to feed appended chunks through this
        path, byte-identically to one call over the concatenated frames.
        """
        reduced = ReducedRankTrace(rank=frame.rank) if into is None else into
        reduced.n_segments += frame.n_segments
        state = ReductionState(
            self.metric, reduced, RepresentativeStore() if store is None else store, match_counters
        )
        step_families(frame, [[state]])
        return reduced

    # -- whole-trace reduction --------------------------------------------------

    def reduce(
        self,
        trace: "SegmentedTrace | FrameTrace",
        *,
        match_counters: Optional[MatchCounters] = None,
    ) -> ReducedTrace:
        """Reduce every rank of ``trace`` independently (intra-process reduction).

        Every rank goes through :meth:`reduce_frame`: a frame-backed rank (a
        :class:`~repro.core.frametrace.FrameTrace`) hands its frame over, a
        segment-list rank is adapted by :meth:`RankFrame.from_segments` first.
        """
        reduced = ReducedTrace(
            name=trace.name,
            method=self.metric.name,
            threshold=self.metric.threshold,
        )
        for rank_trace in trace.ranks:
            # Span per rank, not per segment: the segment loop is the match
            # kernel's hot path and must stay telemetry-free.
            with obs.span("rank.reduce", rank=rank_trace.rank):
                frame = getattr(rank_trace, "frame", None)
                if frame is None:
                    frame = RankFrame.from_segments(rank_trace.rank, rank_trace.segments)
                reduced.ranks.append(self.reduce_frame(frame, match_counters=match_counters))
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
        ``lambda: RepresentativeStore(1000)``); with None each rank gets an
        unbounded one.
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
