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
:class:`~repro.core.frames.RankFrame`.  It has one step,
:meth:`ReductionState.match_batch`, which resolves a frame key by key over
the rows of its metric's
:meth:`~repro.core.metrics.base.SimilarityMetric.frame_vectors` and books a
new representative as the ``(frame, row)`` it is, so reducing builds no
:class:`~repro.trace.segments.Segment`.  A distance metric resolves a key in
leader rounds, the rest of it all pairs at once when its rounds stop
matching; any other method decides on each row's place among its key's
executions (:meth:`~repro.core.metrics.base.SimilarityMetric.new_rows`), and
every row it does not make a new representative matches its key's latest.
The one exception to "no object" is ``iter_avg``, whose running mean
rewrites a representative's timestamps: each representative matched in a
frame is materialized and written once, with the mean of the frame's matches
folded in.  :func:`step_families` is the one place that builds a family's
shared rows and steps its states over a frame —
:meth:`TraceReducer.reduce_frame` (and through it :meth:`TraceReducer.reduce`,
the evaluation runner and the online session) calls it with one state, the
pipeline's batch task with one state per metric of its grid (a sweep's whole
plan, or the one metric of a single config).

:meth:`TraceReducer.reduce_segments` is the reference and nothing else: the
paper's loop over :class:`~repro.trace.segments.Segment` objects, calling
the metric's scalar ``match`` scan for every segment.  The equivalence
suites, the fuzz oracles, ``--verify`` and the benchmark's output check hold
the core to its bytes; it shares no loop and no kernel with the core.

Representatives live in a
:class:`~repro.core.candidates.RepresentativeStore`, one per (rank, config),
which keeps every one of them.
"""

from __future__ import annotations

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
    "step_families",
    "reduce_trace",
]

#: Element budget of one broadcast kernel call of the batch step: probes are
#: blocked so ``probes × representatives × width`` stays under it, which keeps
#: the kernel's temporaries cache-sized however deep the bucket is.
_BLOCK_ELEMENTS = 1 << 16


def _resolve_all_pairs(compare, probes: np.ndarray, scales: Optional[np.ndarray]) -> np.ndarray:
    """Leader rounds over ``probes`` at once: the index of each row's leader.

    ``compare`` meets each row with every row from it on, blocked like stage
    1.  Each block's bit rows replay the rounds on a Python-int bitset of the
    open rows before the next block is compared, and a leader that takes rows
    owns them, so memory stays linear in the rows.
    """
    m = len(probes)
    owner, open_rows = np.arange(m), (1 << m) - 1
    block = max(1, _BLOCK_ELEMENTS // probes.size)
    for lo in range(0, m, block):
        hits = np.zeros((min(block, m - lo), m), dtype=bool)  # no row meets one before it
        hits[:, lo:] = compare(
            probes[lo : lo + block, None, :], probes[lo:], None if scales is None else scales[lo:]
        )
        packed = np.packbits(hits, axis=1, bitorder="little")
        bits, width = packed.tobytes(), packed.shape[1]
        for i in range(lo, lo + len(packed)):
            if open_rows >> i & 1:
                open_rows ^= 1 << i
                at = (i - lo) * width
                taken = open_rows & int.from_bytes(bits[at : at + width], "little")
                if taken:
                    open_rows ^= taken
                    taken = np.frombuffer(taken.to_bytes(width, "little"), dtype=np.uint8)
                    owner[np.unpackbits(taken, count=m, bitorder="little").view(bool)] = i
    return owner


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


def _fold_means(stored: list, ids: np.ndarray, matched: np.ndarray, vectors) -> None:
    """``iter_avg``: fold each matched row of a frame into its representative's mean.

    ``matched`` are the frame rows that matched, ``ids`` every row's
    representative, whose ``count`` already holds the frame's matches.  This
    is :meth:`StoredSegment.update_mean`'s ``m + (x - m) / count`` replayed in
    occurrence rounds: round ``r`` folds every representative's ``r``-th
    match at once, so each one meets the same float operations in the same
    order as one ``update_mean`` per match, and its timestamps are written
    once.  The representatives are laid end to end, most matches first, so
    the ones round ``r`` folds are a prefix of the means and that round's
    rows are the next slice of the round-major ``flat``.
    """
    rep_ids = ids[matched]
    by_rep = np.argsort(rep_ids, kind="stable")  # segment order within a representative
    rows, rep_ids = matched[by_rep], rep_ids[by_rep]
    sids, starts, n_matches = np.unique(rep_ids, return_index=True, return_counts=True)
    order = np.argsort(-n_matches, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    rounds = np.arange(len(rows)) - np.repeat(starts, n_matches)
    round_major = rows[np.lexsort((np.repeat(place, n_matches), rounds))]
    flat = np.concatenate([vectors[row] for row in round_major.tolist()])
    reps = [stored[sid] for sid in sids[order].tolist()]
    means = [rep.timestamps() for rep in reps]
    widths = np.array([len(mean) for mean in means])
    mean = np.concatenate(means)
    n_matches = n_matches[order]
    count = np.repeat([rep.count for rep in reps] - n_matches, widths).astype(float)
    ends = np.cumsum(widths)
    # Round r folds the representatives with more than r matches.
    active = np.searchsorted(-n_matches, -np.arange(n_matches[0]), side="left")
    at = 0
    for width in ends[active - 1].tolist():
        folded, counted = mean[:width], count[:width]
        counted += 1
        folded += (flat[at : at + width] - folded) / counted
        at += width
    for rep, lo, hi in zip(reps, (ends - widths).tolist(), ends.tolist()):
        rep.write_timestamps(mean[lo:hi])


class ReductionState:
    """One (rank, config) reduction in progress: the columnar match-or-store step.

    The state owns what one config keeps per rank — the metric, the
    representative store and the continuing :class:`ReducedRankTrace` — and
    is stepped over a frame by :meth:`match_batch` (:func:`step_families`
    does the stepping; the online session continues the same store and
    output across frames, a sweep steps one state per config over one shared
    frame).
    """

    __slots__ = ("metric", "reduced", "store", "counters", "_next_id")

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
        self.counters = counters
        self._next_id = len(reduced.stored)

    def match_batch(self, batches: KeyBatches) -> None:
        """Match-or-store every row of ``batches.frame``: the one step.

        Each row either leads — it is a new representative — or matches the
        representative it resolves to; both are decided key by key, in the
        order the scalar reference meets the rows (:meth:`_lead_by_distance`
        for a distance metric, :meth:`_lead_by_count` for any other).  Then
        everything is booked: new representatives take the ids the
        reference gives them, in segment order across keys — each as its
        ``(frame, row)``, a distance metric's with its probe row and the scale
        its leader round computed — and enter their bucket one key at a time
        (:meth:`RepresentativeStore.extend`).
        """
        frame, vectors = batches.frame, batches.vectors
        metric, store, reduced = self.metric, self.store, self.reduced
        n = frame.n_segments
        first_id = self._next_id
        ids = np.empty(n, dtype=np.int64)  # each row's representative id
        leader = np.full(n, -1, dtype=np.int64)  # or, until ids exist, its new one's row
        distance = isinstance(metric, DistanceMetric)
        if distance:
            fresh, misses, scale_of = self._lead_by_distance(batches, ids, leader)
        else:
            fresh, misses = self._lead_by_count(batches, ids, leader)

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
        rows_counts = zip(new_rows.tolist(), counts[first_id:].tolist())
        new = {  # row -> representative, in id order
            row: StoredSegment(sid, count=count, origin=(frame, row))
            for sid, (row, count) in enumerate(rows_counts, first_id)
        }
        reduced.stored.extend(new.values())
        self._next_id += len(new)
        if metric.averages and len(new_rows) < n:
            _fold_means(reduced.stored, ids, np.flatnonzero(~is_new), vectors)
        for key, heads in fresh:
            entries = [new[row] for row in heads]
            if distance:
                scales = None if scale_of is None else scale_of[heads]
                store.extend(key, entries, [vectors[row] for row in heads], scales)
            else:
                store.extend(key, entries)

    def _lead_by_count(self, batches: KeyBatches, ids: np.ndarray, leader: np.ndarray):
        """Resolve a frame for a method that decides on execution counts alone.

        Each row's ``seen`` is the number of executions of its key before it
        — those its bucket's representatives stand for, then its key's
        earlier rows of the frame — and the metric's
        :meth:`~repro.core.metrics.base.SimilarityMetric.new_rows` says which
        rows lead.  Every other row matches its key's latest representative:
        the last leader before it in the frame, else the bucket's last.
        Returns ``(fresh, misses)`` as :meth:`_lead_by_distance` does.
        """
        groups = batches.groups
        buckets = [self.store.bucket(key) for key, _, _ in groups]
        seen = np.empty(batches.frame.n_segments, dtype=np.int64)
        for (_, rows, _), bucket in zip(groups, buckets):
            prior = sum(stored.count for stored in bucket) if bucket else 0
            seen[rows] = np.arange(prior, prior + len(rows))
        is_new = self.metric.new_rows(seen)
        fresh = []
        for (key, rows, _), bucket in zip(groups, buckets):
            new = is_new[rows]
            latest = leader[rows] = np.maximum.accumulate(np.where(new, rows, -1))
            if bucket:
                ids[rows[latest < 0]] = bucket[-1].segment_id
            if new.any():
                fresh.append((key, rows[new].tolist()))
        return fresh, sum(not bucket for bucket in buckets)

    def _lead_by_distance(self, batches: KeyBatches, ids: np.ndarray, leader: np.ndarray):
        """Resolve a frame for a distance metric, key by key.

        Per structural key, in the order the scalar reference meets them:

        1. a bucket that already holds representatives (a session chunk)
           takes one broadcast kernel call, blocked over the probes, that
           gives every probe its first matching *existing* representative —
           representatives created later sit behind those, so they cannot
           change it;
        2. the residue is resolved by *leader rounds*: the earliest unresolved
           probe has failed every representative that precedes it, so it is a
           new representative; one kernel call compares it with the later
           unresolved probes, and those it matches resolve to it — it is
           their first match, since they failed every earlier one;
        3. once the rounds that took nothing in a row have made as many
           kernel calls as comparing all pairs of the rows left would (one
           per block of them), and more than two rows are left, the rounds
           have stopped paying: the rest is resolved all pairs at once
           (:func:`_resolve_all_pairs`), to the leaders the rounds give.  The
           resolve so costs no more calls than the rounds already spent, and
           a key whose rounds keep matching (loose thresholds, or one odd row
           ahead of many alike) never takes it.

        Fills ``ids`` for the rows that match an existing representative and
        ``leader`` for the rest.  Returns ``(fresh, misses, scale_of)``: each
        key's leader rows (first appearance first), the number of keys whose
        bucket was empty, and each leader's ``row_scale`` (None without one).
        """
        metric, store, counters = self.metric, self.store, self.counters
        kernel, threshold, row_scale = metric.match_stats, metric.threshold, metric.row_scale
        scale_of = None if row_scale is None else np.empty(len(leader))
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

        fresh = []  # (key, its new representatives' rows), first appearance first
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
            heads, empty = [], 0  # rounds in a row that took nothing
            while rows.size:
                lead, vector = rows[0], probes[0]
                leader[lead] = lead
                heads.append(int(lead))
                rows, probes = rows[1:], probes[1:]
                if scales is not None:
                    scales = scales[1:]
                if not rows.size:
                    break
                mask = compare(vector, probes, scales)
                if mask.any():
                    empty = 0
                    leader[rows[mask]] = lead
                    keep = ~mask
                    rows, probes = rows[keep], probes[keep]
                    if scales is not None:
                        scales = scales[keep]
                    continue
                empty += 1
                block = max(1, _BLOCK_ELEMENTS // probes.size)
                if rows.size > 2 and empty >= -(-rows.size // block):
                    owner = _resolve_all_pairs(compare, probes, scales)
                    leader[rows] = rows[owner]
                    heads += rows[owner == np.arange(len(owner))].tolist()
                    break
            if heads:
                fresh.append((key, heads))
        return fresh, misses, scale_of


def step_families(frame: RankFrame, families: Sequence[Sequence[ReductionState]]) -> None:
    """Match-or-store every row of ``frame`` in every state: the one frame driver.

    ``families`` groups the states by feature family: the states of one
    share a vector layout, so its first metric's ``frame_vectors`` (one bulk
    pass) gives every member its probe rows, and one :class:`KeyBatches`
    grouping of them serves every member's :meth:`~ReductionState.match_batch`.
    Each state makes the decisions a solo run makes, in the same order.
    :meth:`TraceReducer.reduce_frame` passes one state, the pipeline's batch
    task one per metric of its grid.

    The frame's times are checked first, every row of it: finite
    (:meth:`RankFrame.check_finite`) and in order
    (:meth:`RankFrame.check_time_order`), since no step builds the objects
    whose construction used to check the order.
    """
    frame.check_finite()
    frame.check_time_order()
    for states in families:
        batches = KeyBatches(frame, states[0].metric.frame_vectors(frame))
        for state in states:
            state.match_batch(batches)


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

        Segments are consumed one at a time.  When ``match_counters``
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
                metric.on_match(relative.timestamps(), chosen)
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
        bulk passes, and representatives stay ``(frame, row)`` until someone
        reads their ``.segment`` (``iter_avg`` does, to write a matched
        representative's mean).  The result is byte-identical to
        :meth:`reduce_segments` over the frame's decoded segments.

        ``into`` continues an existing :class:`ReducedRankTrace` with the
        same ``store``: the incremental form the online reduction service
        (:mod:`repro.service`) uses to feed appended chunks through this
        path, byte-identically to one call over the concatenated frames.
        """
        reduced = ReducedRankTrace(rank=frame.rank) if into is None else into
        state = ReductionState(
            self.metric, reduced, RepresentativeStore() if store is None else store, match_counters
        )
        step_families(frame, [[state]])
        # Counted once the frame is taken: a refused one leaves ``into`` as it was.
        reduced.n_segments += frame.n_segments
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
        match_counters: Optional[MatchCounters] = None,
    ) -> ReducedTrace:
        """Reduce ``(rank, segment stream)`` pairs serially, in stream order."""
        reduced = ReducedTrace(
            name=name,
            method=self.metric.name,
            threshold=self.metric.threshold,
        )
        for rank, segments in streams:
            # Span per rank, not per segment: the segment loop is the match
            # kernel's hot path and must stay telemetry-free.
            with obs.span("rank.reduce", rank=rank):
                reduced.ranks.append(
                    self.reduce_segments(segments, rank=rank, match_counters=match_counters)
                )
        return reduced


def reduce_trace(trace: SegmentedTrace, metric: SimilarityMetric) -> ReducedTrace:
    """Convenience wrapper: ``TraceReducer(metric).reduce(trace)``."""
    return TraceReducer(metric).reduce(trace)
