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
:class:`~repro.core.frames.RankFrame` by :func:`step_families`, the one
frame driver.  A frame is resolved key by key over the rows of its metric's
:meth:`~repro.core.metrics.base.SimilarityMetric.frame_vectors`, and booked
as arrays (:meth:`ReductionState.book`): the frame's new representatives as
one ``(frame, rows)`` chunk of the :class:`~repro.core.reduced.ReducedRankTrace`,
counts and execution columns appended — reducing builds no
:class:`~repro.trace.segments.Segment` and no per-representative object.  A
distance metric resolves a key in leader rounds
(:meth:`ReductionState.lead_key`), the rest of it all pairs at once when its
rounds stop matching; any other method decides on each row's place among its
key's executions
(:meth:`~repro.core.metrics.base.SimilarityMetric.new_rows`), and every row
it does not make a new representative matches its key's latest.
``iter_avg``'s running mean rewrites representatives' timestamps: its
chunks are rows of their own (:meth:`ReducedRankTrace.own`), and each
representative matched in a frame has the mean of the frame's matches
written into its row once.  :meth:`TraceReducer.reduce_frame` (and through it
:meth:`TraceReducer.reduce`, the evaluation runner and the online session)
calls :func:`step_families` with one state, the pipeline's batch task with
one state per metric of its grid (a sweep's whole plan, or the one metric of
a single config).

Leader rounds have one loop, whatever the number of configs.  A kernel
(:meth:`DistanceMetric.match_stats`) gives the same threshold-free ``(stat,
base)`` for the same pair of rows, so :func:`step_families` groups a
family's states by kernel — a single config is a group of one — and every
state of a group reads its leaders' kernel rows from one
:class:`LeaderRows` per key, each applying its own threshold.  For a group
of two or more (a threshold study's configs of one method) a key's rows are
kept, up to :data:`_SHARED_PAIRS` pairs: each is computed by the first state
that needs it and read by the others.  Otherwise a row is met with the
asking state's open rows only, and each state pays what it pays alone.

:meth:`TraceReducer.reduce_segments` is the reference and nothing else: the
paper's loop over :class:`~repro.trace.segments.Segment` objects, calling
the metric's scalar ``match`` scan for every segment.  The equivalence
suites, the fuzz oracles, ``--verify`` and the benchmark's output check hold
the core to its bytes; it shares no loop and no kernel with the core.

Representatives are looked up through a
:class:`~repro.core.candidates.RepresentativeStore`, one per (rank, config),
which keeps every one of them.  The core's store is an index of the reduced
rank — each key's ids and, for a distance metric, their feature rows — with
one writer, :func:`keep`, which enters what a frame booked once the frame is
stepped.  Only a rank that continues is kept: :meth:`TraceReducer.reduce_frame`
keeps the store its caller passes (the online session's), and a restored
checkpoint rebuilds its stores from the ranks it carries; a rank reduced in
one frame (the pipeline's, a sweep's) leaves its store empty, since a step
reads only earlier frames' buckets.  The reference's buckets hold its
:class:`~repro.core.reduced.StoredSegment` objects.
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
    "keep",
    "reduce_trace",
]

#: Element budget of one broadcast kernel call of the batch step: probes are
#: blocked so ``probes × representatives × width`` stays under it, which keeps
#: the kernel's temporaries cache-sized however deep the bucket is.
_BLOCK_ELEMENTS = 1 << 16

#: Most pairs a :class:`LeaderRows` of one key may hold: one kernel block's
#: elements, so a shared key is at most 362 rows deep and its rows a few MB.
#: A deeper key is resolved by each state on its own.
_SHARED_PAIRS = _BLOCK_ELEMENTS


def _replay_rounds(m: int, block: int, bit_rows) -> np.ndarray:
    """Leader rounds over ``m`` rows replayed from their bit rows: each row's leader.

    ``bit_rows(lo, hi)`` gives rows ``lo:hi`` met with every row (True where
    row ``j`` matches row ``i``; only ``j > i`` is read).  Each block's bit
    rows replay the rounds on a Python-int bitset of the open rows before the
    next block is asked for, and a leader that takes rows owns them, so
    memory stays linear in the rows.
    """
    owner, open_rows = np.arange(m), (1 << m) - 1
    for lo in range(0, m, block):
        packed = np.packbits(bit_rows(lo, min(lo + block, m)), axis=1, bitorder="little")
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


def _counted(kernel, counters: Optional[MatchCounters], probes, against, scales):
    """One call of ``kernel`` (a :meth:`~DistanceMetric.match_stats`), timed and
    counted on ``counters``; the clock is read only when there are counters."""
    if counters is None:
        return kernel(probes, against, scales)
    started = perf_counter()
    stat, base = kernel(probes, against, scales)
    counters.seconds += perf_counter() - started
    counters.calls += 1
    counters.rows_compared += stat.size
    return stat, base


class LeaderRows:
    """One key's kernel rows: where each leader round reads its leader's row.

    Row ``i`` is the key's probe ``i`` met with later probes of the key: the
    metric's threshold-free :meth:`~DistanceMetric.match_stats` ``(stat,
    base)``, to which each state applies only its own ``stat <= threshold ×
    base``.  Built by :func:`step_families` per (frame, key, kernel) and read
    by each state of the kernel in turn; the key's ``row_scale`` is computed
    once.

    ``shared`` (two or more states, a key of at most :data:`_SHARED_PAIRS`
    pairs) keeps the rows: row ``i`` is met with *every* later probe the
    first time a state needs it — one kernel call, counted on that state's
    counters — and read by every state after it.  Otherwise a row is met
    with the probes the asking state still has open, and not kept: each
    state pays what it pays alone.
    """

    __slots__ = (
        "kernel", "rows", "probes", "places", "scales", "shared", "stat", "base", "filled"
    )

    def __init__(
        self, metric: DistanceMetric, rows: np.ndarray, probes: np.ndarray, shared: bool
    ) -> None:
        self.kernel = metric.match_stats
        self.rows = rows  # the key's frame rows
        self.probes = probes
        self.places = np.arange(len(rows))  # the probes' places in the key
        self.scales = None if metric.row_scale is None else metric.row_scale(probes)
        self.shared = shared
        if shared:
            m = len(probes)
            self.stat = np.zeros((m, m))  # row i: columns i+1 on, once filled
            self.base: Optional[np.ndarray] = None  # likewise, for a kernel with a base
            self.filled = [False] * (m - 1) + [True]  # the last row meets no one

    def fill(self, at, counters: Optional[MatchCounters]) -> bool:
        """Keep the rows ``at`` that no state has yet, computed in one kernel call.

        They are met with every probe after the first of them, as one block,
        and each keeps its own columns.  Returns whether a call was made.
        """
        filled = self.filled
        need = [i for i in at if not filled[i]]
        if not need:
            return False
        first, scales = need[0], self.scales
        later = None if scales is None else scales[first + 1 :]
        stat, base = _counted(
            self.kernel, counters, self.probes[need, None, :], self.probes[first + 1 :], later
        )
        self.stat[need, first + 1 :] = stat
        if base is not None:
            if self.base is None:
                self.base = np.zeros_like(self.stat)
            self.base[need, first + 1 :] = base
        for i in need:
            filled[i] = True
        return True

    def hits(self, at, later: np.ndarray, threshold: float, counters) -> np.ndarray:
        """Rows ``at`` (a place, or a column of places) against the places ``later``:
        who each takes at ``threshold``.  A kept row is read (:meth:`fill`
        computes it first); any other is computed here, in one kernel call."""
        if self.shared:
            stat, base = self.stat[at, later], self.base
            base = None if base is None else base[at, later]
        else:
            probes, scales = self.probes, self.scales
            scales = None if scales is None else scales[later]
            stat, base = _counted(self.kernel, counters, probes[at], probes[later], scales)
        return stat <= (threshold if base is None else threshold * base)

    def resolve(self, at: np.ndarray, threshold: float, counters) -> np.ndarray:
        """Leader rounds over the places ``at`` at once: the index in ``at`` of each one's leader.

        Each block of rows is met with the rows from it on, within the
        kernel's element budget (a kept row counts its every later probe), and
        :func:`_replay_rounds` replays the rounds on the bits.
        """
        m, width = len(at), self.probes.shape[1]
        span = len(self.probes) - int(at[0]) if self.shared else m
        block = max(1, _BLOCK_ELEMENTS // (span * width))

        def bit_rows(lo, hi):
            if self.shared:
                self.fill(at[lo:hi].tolist(), counters)
            taken = np.zeros((hi - lo, m), dtype=bool)  # no row meets one before it
            taken[:, lo:] = self.hits(at[lo:hi, None], at[lo:], threshold, counters)
            return taken

        return _replay_rounds(m, block, bit_rows)


def _fold_means(reduced: ReducedRankTrace, ids: np.ndarray, matched: np.ndarray, vectors) -> None:
    """``iter_avg``: fold each matched row of a frame into its representative's mean.

    ``matched`` are the frame rows that matched, ``ids`` every row's
    representative, whose count already holds the frame's matches, and whose
    rows ``reduced`` owns.  This is :meth:`StoredSegment.update_mean`'s
    ``m + (x - m) / count`` replayed in occurrence rounds: round ``r`` folds
    every representative's ``r``-th match at once, so each one meets the same
    float operations in the same order as one ``update_mean`` per match, and
    its row is written once.  The representatives are laid end to end, most
    matches first, so the ones round ``r`` folds are a prefix of the means and
    that round's rows are the next slice of the round-major ``flat``.
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
    reps = [
        (frame, row) for frame, rows, _ in reduced.pieces(sids[order]) for row in rows.tolist()
    ]
    means = [frame.pairwise_vectors()[row] for frame, row in reps]
    widths = np.array([len(mean) for mean in means])
    mean = np.concatenate(means)
    n_matches = n_matches[order]
    count = np.repeat(reduced.counts[sids[order]] - n_matches, widths).astype(float)
    ends = np.cumsum(widths)
    # Round r folds the representatives with more than r matches.
    active = np.searchsorted(-n_matches, -np.arange(n_matches[0]), side="left")
    at = 0
    for width in ends[active - 1].tolist():
        folded, counted = mean[:width], count[:width]
        counted += 1
        folded += (flat[at : at + width] - folded) / counted
        at += width
    for (frame, row), lo, hi in zip(reps, (ends - widths).tolist(), ends.tolist()):
        frame.write_row(row, mean[lo:hi])


class _Leads:
    """One state's decisions over one frame, filled key by key, then booked.

    ``ids`` holds the representative id of each row that matched an existing
    representative, ``leader`` (until ids exist) the row of the new one each
    other row resolves to; ``misses`` the keys whose bucket was empty.
    """

    __slots__ = ("ids", "leader", "misses")

    def __init__(self, n: int) -> None:
        self.ids = np.empty(n, dtype=np.int64)
        self.leader = np.full(n, -1, dtype=np.int64)
        self.misses = 0


class ReductionState:
    """One (rank, config) reduction in progress: the columnar match-or-store step.

    The state owns what one config keeps per rank — the metric, the
    representative store and the continuing :class:`ReducedRankTrace` — and
    is stepped over a frame by :func:`step_families`: :meth:`lead_key` (a
    distance metric) or :meth:`_lead_by_count` (any other) decides each key,
    reading the store's buckets, then :meth:`book` books the frame into the
    output.  The online session continues the same store and output across
    frames, and :func:`keep` enters each frame's new representatives in the
    store after it; a sweep steps one state per config over one shared frame.
    """

    __slots__ = ("metric", "reduced", "store", "counters")

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

    def book(self, batches: KeyBatches, leads: _Leads) -> None:
        """Book a frame's decisions into the output, as arrays.

        New representatives take the ids the reference gives them, in
        segment order across keys: the frame's chunk of the output is those
        rows, its counts the rows each id took, and its execution columns
        every row's id, start and whether it matched.  The store only counts
        the frame's lookups; its buckets are written by :func:`keep`.
        """
        frame, reduced = batches.frame, self.reduced
        ids, leader, misses = leads.ids, leads.leader, leads.misses
        n = frame.n_segments
        first_id = reduced.n_stored
        is_new = leader == np.arange(n)
        new_rows = np.flatnonzero(is_new)  # segment order, across keys
        resolved = leader >= 0
        ids[resolved] = first_id + np.searchsorted(new_rows, leader[resolved])
        reduced.exec_chunks.append((ids, frame.starts, ~is_new))
        reduced.n_matches += n - len(new_rows)
        reduced.n_possible_matches += n - misses
        self.store.count_lookups(n - misses, misses)
        counts = np.bincount(ids, minlength=first_id)
        counts[:first_id] += reduced.counts
        reduced.counts = counts
        if len(new_rows):
            reduced.chunks.append((frame, new_rows))
        if self.metric.averages:
            reduced.own()
            if len(new_rows) < n:
                _fold_means(reduced, ids, np.flatnonzero(~is_new), batches.vectors)

    def _lead_by_count(self, batches: KeyBatches, leads: _Leads) -> None:
        """Resolve a frame for a method that decides on execution counts alone.

        Each row's ``seen`` is the number of executions of its key before it
        — those its bucket's representatives stand for, then its key's
        earlier rows of the frame — and the metric's
        :meth:`~repro.core.metrics.base.SimilarityMetric.new_rows` says which
        rows lead.  Every other row matches its key's latest representative:
        the last leader before it in the frame, else the bucket's last.
        """
        groups, ids, leader = batches.groups, leads.ids, leads.leader
        buckets = [self.store.bucket(key) for key, _, _ in groups]
        seen = np.empty(batches.frame.n_segments, dtype=np.int64)
        counts = self.reduced.counts
        for (_, rows, _), bucket in zip(groups, buckets):
            prior = int(counts[list(bucket)].sum()) if bucket else 0
            seen[rows] = np.arange(prior, prior + len(rows))
        is_new = self.metric.new_rows(seen)
        for (_, rows, _), bucket in zip(groups, buckets):
            latest = leader[rows] = np.maximum.accumulate(np.where(is_new[rows], rows, -1))
            if bucket:
                ids[rows[latest < 0]] = bucket[-1]
        leads.misses += sum(not bucket for bucket in buckets)

    def lead_key(self, key, source: LeaderRows, leads: _Leads) -> None:
        """Resolve one structural key of a frame for a distance metric.

        Per key, in the order the scalar reference meets them:

        1. a bucket that already holds representatives (a session chunk)
           takes one broadcast kernel call, blocked over the probes, that
           gives every probe its first matching *existing* representative —
           representatives created later sit behind those, so they cannot
           change it; the bucket's ``row_scale`` is taken of its matrix here;
        2. the residue is resolved by *leader rounds*: the earliest unresolved
           probe has failed every representative that precedes it, so it is a
           new representative; its kernel row (``source``'s, computed by one
           call unless another state of the kernel kept it) is read against
           the later unresolved probes, and those it matches resolve to it —
           it is their first match, since they failed every earlier one;
        3. once the rounds that took nothing in a row have made as many
           kernel calls as comparing all pairs of the rows left would (one
           per block of them), and more than two rows are left, the rounds
           have stopped paying: the rest is resolved all pairs at once
           (:meth:`LeaderRows.resolve`), to the leaders the rounds give.  The
           resolve so costs no more calls than the rounds already spent, and
           a key whose rounds keep matching (loose thresholds, or one odd row
           ahead of many alike) never takes it.

        Only calls this state makes count towards stage 3, so a state behind
        one that kept the rows makes none.  The decisions are the same
        whether the rows are kept or not.
        """
        metric, counters = self.metric, self.counters
        threshold, key_rows, probes = metric.threshold, source.rows, source.probes
        bucket = self.store.bucket(key)
        if bucket:
            matrix = bucket.matrix()
            scales = None if metric.row_scale is None else metric.row_scale(matrix)
            block = max(1, _BLOCK_ELEMENTS // matrix.size)
            first = np.empty(len(key_rows), dtype=np.intp)
            for lo in range(0, len(key_rows), block):
                stack = probes[lo : lo + block, None, :]
                stat, base = _counted(source.kernel, counters, stack, matrix, scales)
                mask = stat <= (threshold if base is None else threshold * base)
                first[lo : lo + block] = np.where(mask.any(axis=1), mask.argmax(axis=1), -1)
            found = first >= 0
            leads.ids[key_rows[found]] = [bucket[j] for j in first[found].tolist()]
            at = np.flatnonzero(~found)
        else:
            leads.misses += 1
            at = source.places
        leader, shared = leads.leader, source.shared
        filled = source.filled if shared else None
        empty = 0  # rounds in a row that took nothing, counting only calls
        while at.size:
            i = int(at[0])
            lead = int(key_rows[i])
            leader[lead] = lead
            at = at[1:]
            if not at.size:
                break
            # A kept row is computed by the first state that needs it.
            called = not shared or (not filled[i] and source.fill([i], counters))
            mask = source.hits(i, at, threshold, counters)
            taken = at[mask]
            if taken.size:
                empty = 0
                leader[key_rows[taken]] = lead
                at = at[~mask]
                continue
            empty += called
            block = max(1, _BLOCK_ELEMENTS // (at.size * probes.shape[1]))
            if at.size > 2 and empty >= -(-at.size // block):
                owner = source.resolve(at, threshold, counters)
                leader[key_rows[at]] = key_rows[at[owner]]
                break


def step_families(frame: RankFrame, families: Sequence[Sequence[ReductionState]]) -> None:
    """Match-or-store every row of ``frame`` in every state: the one frame driver.

    ``families`` groups the states by feature family: the states of one
    share a vector layout, so its first metric's ``frame_vectors`` (one bulk
    pass) gives every member its probe rows, and one :class:`KeyBatches`
    grouping of them serves every member.  Each state makes the decisions a
    solo run makes, in the same order.  :meth:`TraceReducer.reduce_frame`
    passes one state, the pipeline's batch task one per metric of its grid.

    Within a family the states are grouped by kernel (the same metric class:
    a threshold study's configs of one method; euclidean and manhattan share
    a vector layout, not a distance), a single config being a group of one
    and a counting method a group of its own.  A distance group resolves the
    frame key by key, every state of the group in turn
    (:meth:`ReductionState.lead_key`), over one :class:`LeaderRows` per key;
    the rows are kept for the group's other states when there are any and
    the key has at most :data:`_SHARED_PAIRS` pairs.  Each state then books
    its decisions (:meth:`ReductionState.book`).

    The frame's times are checked first, every row of it: finite
    (:meth:`RankFrame.check_finite`) and in order
    (:meth:`RankFrame.check_time_order`), since no step builds the objects
    whose construction used to check the order.
    """
    frame.check_finite()
    frame.check_time_order()
    n = frame.n_segments
    for states in families:
        batches = KeyBatches(frame, states[0].metric.frame_vectors(frame))
        groups: dict = {}  # kernel -> [(state, its decisions)]
        for state in states:
            metric = state.metric
            kernel = type(metric) if isinstance(metric, DistanceMetric) else state
            groups.setdefault(kernel, []).append((state, _Leads(n)))
        for group in groups.values():
            metric = group[0][0].metric
            if isinstance(metric, DistanceMetric):
                several = len(group) > 1
                for key, rows, probes in batches.groups:
                    m = len(rows)
                    shared = several and m * (m - 1) // 2 <= _SHARED_PAIRS
                    source = LeaderRows(metric, rows, probes, shared)
                    for state, leads in group:
                        state.lead_key(key, source, leads)
            else:
                ((state, leads),) = group
                state._lead_by_count(batches, leads)
            for state, leads in group:
                state.book(batches, leads)


def keep(store: RepresentativeStore, reduced: ReducedRankTrace, metric: SimilarityMetric) -> None:
    """Enter in ``store`` the representatives ``reduced`` booked since it last kept any.

    The store's buckets are an index of the reduced rank, and this is their
    one writer: ids ``len(store)`` on, in id order, each under its chunk
    frame's structural key and, for a distance metric, with its row of the
    metric's ``frame_vectors`` of that frame — the probe row it was stepped
    with, bit for bit, whether the chunk is the booked frame or rows of its
    own (:meth:`ReducedRankTrace.own`).  A new key's bucket is made at its
    first id, so the store's keys come in the order a step meets them.  Only
    the trailing chunks that hold those ids are read.
    """
    first, hi = len(store), reduced.n_stored
    tail = []
    for frame, rows in reversed(reduced.chunks):
        if hi <= first:
            break
        hi -= len(rows)
        tail.append((frame, rows[max(first - hi, 0) :], max(first, hi)))
    distance = isinstance(metric, DistanceMetric)
    for frame, rows, lo in reversed(tail):
        keys, by_key = frame.structural_keys(), {}
        for sid, row in enumerate(rows.tolist(), lo):
            by_key.setdefault(keys[row], []).append((sid, row))
        vectors = metric.frame_vectors(frame) if distance else None
        for key, entries in by_key.items():
            ids = [sid for sid, _ in entries]
            store.extend(key, ids, [vectors[row] for _, row in entries] if distance else None)


def _reference_frame(rank: int, segments: list[Segment]) -> RankFrame:
    """The reference's representatives as one frame, built here from their objects.

    Not through :meth:`RankFrame.from_segments`, the core's adapter: the
    oracle shares no route from objects to columns with what it checks.
    """
    strings: dict = {}
    mpi: dict = {}
    events = [event for segment in segments for event in segment.events]

    def interned(values) -> np.ndarray:
        return np.array([strings.setdefault(value, len(strings)) for value in values], dtype=np.int64)

    return RankFrame(
        rank=rank,
        contexts=interned([segment.context for segment in segments]),
        starts=np.array([segment.start for segment in segments], dtype=np.float64),
        ends=np.array([segment.end for segment in segments], dtype=np.float64),
        ev_offsets=np.cumsum([0] + [len(segment.events) for segment in segments]),
        ev_names=interned([event.name for event in events]),
        ev_starts=np.array([event.start for event in events], dtype=np.float64),
        ev_ends=np.array([event.end for event in events], dtype=np.float64),
        ev_mpi=np.array(
            [
                -1 if event.mpi is None else mpi.setdefault(event.mpi.key(), (len(mpi), event.mpi))[0]
                for event in events
            ],
            dtype=np.int64,
        ),
        strings=list(strings),
        mpi_table=[info for _, info in mpi.values()],
        indices=np.array([segment.index for segment in segments], dtype=np.int64),
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
    ) -> ReducedRankTrace:
        """The reference: reduce a segment stream with the scalar ``match`` scan.

        Segments are consumed one at a time.  When ``match_counters``
        is given, the match-kernel stage (calls, candidate rows, wall time)
        is accumulated into it; with None the hot loop carries no timing
        overhead.  The representatives are :class:`StoredSegment` objects
        while the scan runs; the result is built from them once, at the end,
        in the core's columnar form.
        """
        if store is None:
            store = RepresentativeStore()
        reduced = ReducedRankTrace(rank=rank)
        metric = self.metric
        matcher = metric.match
        stored: list[StoredSegment] = []
        execs: list[tuple[int, float, bool]] = []  # (id, start, matched)

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
                execs.append((chosen.segment_id, segment.start, True))
                metric.on_match(relative.timestamps(), chosen)
            else:
                chosen = StoredSegment(segment_id=len(stored), segment=relative)
                store.add(key, chosen)
                stored.append(chosen)
                execs.append((chosen.segment_id, segment.start, False))

        if stored:
            frame = _reference_frame(rank, [representative.segment for representative in stored])
            reduced.chunks.append((frame, np.arange(len(stored))))
        reduced.counts = np.array([representative.count for representative in stored], dtype=np.int64)
        ids, starts, matched = zip(*execs) if execs else ((), (), ())
        reduced.exec_chunks.append((np.array(ids, np.int64), np.array(starts), np.array(matched, bool)))
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
        bulk passes, and the new representatives are booked as the frame's
        rows (rows of their own under ``iter_avg``, which writes its means
        into them).  The result is byte-identical to :meth:`reduce_segments`
        over the frame's decoded segments.

        ``into`` continues an existing :class:`ReducedRankTrace` with the
        same ``store``: the incremental form the online reduction service
        (:mod:`repro.service`) uses to feed appended chunks through this
        path, byte-identically to one call over the concatenated frames.  A
        ``store`` passed in is kept (:func:`keep`) once the frame is booked,
        so the next frame finds its representatives; without one the rank
        writes no store.
        """
        reduced = ReducedRankTrace(rank=frame.rank) if into is None else into
        state = ReductionState(
            self.metric, reduced, RepresentativeStore() if store is None else store, match_counters
        )
        step_families(frame, [[state]])
        # Counted once the frame is taken: a refused one leaves ``into`` as it was.
        reduced.n_segments += frame.n_segments
        if store is not None:
            keep(store, reduced, self.metric)
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
