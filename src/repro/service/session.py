"""Incremental reduction sessions.

A :class:`ReductionSession` is the batch reducer turned inside out: instead
of consuming a whole trace in one call, a session is a long-lived object that
accepts a rank's rows a frame at a time (:meth:`ReductionSession.append`, a
:class:`~repro.core.frames.RankFrame` — a chunk of a decoded rank is a row
view of it, :meth:`RankFrame.chunks`) or raw records
(:meth:`ReductionSession.append_records`, segmented at the boundary), reduces
each append immediately through ``reduce_frame``, and can at any point emit
a *delta* — the stored representatives and execution entries added or
updated since the previous flush, as ids into the rank's reduced output,
whose representatives a flush or a checkpoint gives rows of their own.

The incremental path is **byte-identical** to the batch
:class:`~repro.core.reducer.TraceReducer`: feeding a trace in any per-rank
chunking produces exactly the bytes of the one-shot reduction, because
``reduce_frame(..., into=)`` continues the same representative store and
output the batch path uses.  The session additionally chains a per-rank
content digest over the columns of every row it ingests
(:func:`~repro.service.cache.chain_frame`), so a finished session knows the
digest of the trace it saw — the key the service's result cache is indexed
by.

All state but the stores (reduced ranks as arrays, partially-open
segmenters, digests, stats) is picklable; :mod:`repro.service.checkpoint`
relies on that to freeze and resume sessions bit-identically.  A rank's store
is an index of its reduced output (:func:`~repro.core.reducer.keep`), so a
pickled rank leaves it behind and a restore rebuilds it from the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro import obs
from repro.core.candidates import MatchCounters, RepresentativeStore
from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.core.reduced import ReducedRankTrace, ReducedTrace
from repro.core.reducer import TraceReducer
from repro.service.cache import chain_frame, combine_rank_digests
from repro.trace.records import TraceRecord
from repro.trace.segments import RecordSegmenter

__all__ = [
    "SessionConfig",
    "SessionStats",
    "RankDelta",
    "ReductionDelta",
    "SessionResult",
    "ReductionSession",
]


@dataclass(frozen=True)
class SessionConfig:
    """Reduction configuration of one session.

    ``method``/``threshold`` select the similarity metric (paper-default
    threshold when ``None``).
    """

    method: str
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        create_metric(self.method, self.threshold)  # validate eagerly

    @property
    def key(self) -> tuple:
        """Result-cache key: everything that can change the reduced bytes."""
        return (self.method, self.threshold)

    def describe(self) -> str:
        if self.threshold is None:
            return self.method
        return f"{self.method}/t={self.threshold:g}"


@dataclass(slots=True)
class SessionStats:
    """Counters of one session's lifetime (append/flush activity)."""

    appends: int = 0
    records: int = 0
    segments: int = 0
    flushes: int = 0
    deltas_emitted: int = 0
    match: MatchCounters = field(default_factory=MatchCounters)


@dataclass(slots=True)
class RankDelta:
    """One rank's changes since the previous flush, as ids into ``reduced``.

    ``new`` are representatives stored in the window (first occurrence of a
    pattern); ``updated`` are *earlier* representatives a window execution
    matched, ``counts`` their advanced counts — under ``iter_avg`` their
    stored timestamps moved too, so consumers must replace them.
    ``exec_ids`` / ``exec_starts`` are the window's ``segmentExecs``
    entries, the complete execution record.
    """

    rank: int
    reduced: ReducedRankTrace
    new: range
    updated: np.ndarray
    counts: np.ndarray
    exec_ids: np.ndarray
    exec_starts: np.ndarray


@dataclass(slots=True)
class ReductionDelta:
    """Everything a flush added to the reduced trace since the last one.

    Applying deltas in ``seq`` order reconstructs exactly the reduced trace a
    batch reduction of the full stream would produce.
    """

    name: str
    method: str
    threshold: Optional[float]
    seq: int
    ranks: list[RankDelta]

    @property
    def empty(self) -> bool:
        return not self.ranks

    @property
    def n_new(self) -> int:
        return sum(len(r.new) for r in self.ranks)

    @property
    def n_updated(self) -> int:
        return sum(len(r.updated) for r in self.ranks)

    @property
    def n_execs(self) -> int:
        return sum(len(r.exec_ids) for r in self.ranks)


@dataclass(slots=True)
class SessionResult:
    """What :meth:`ReductionSession.finish` returns.

    ``reduced`` is the complete reduced trace (identical to the batch
    oracle's), ``delta`` the final unflushed tail, and ``digest`` the content
    digest of everything the session ingested — equal to
    :func:`repro.service.cache.source_digest` of the same trace.
    """

    reduced: ReducedTrace
    delta: ReductionDelta
    digest: str


class _RankState:
    """Per-rank incremental state: store, output, segmenter, digest, flush window.

    Pickled without its store, which :func:`~repro.service.checkpoint.restore_state`
    rebuilds from ``reduced`` (:func:`~repro.core.reducer.keep`): a restored
    rank starts from an empty one.
    """

    __slots__ = ("rank", "store", "reduced", "segmenter", "stored_mark", "window", "digest")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.store = RepresentativeStore()
        self.reduced = ReducedRankTrace(rank=rank)
        #: Created lazily on the first ``append_records`` — frame appends
        #: never need one, and its absence asserts the two ingestion styles
        #: are not mixed mid-segment.
        self.segmenter: Optional[RecordSegmenter] = None
        #: Representatives already in a delta, and the execution chunks since.
        self.stored_mark = 0
        self.window: list = []
        #: Chained content digest of every row ingested so far.
        self.digest = b""

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__ if name != "store"}

    def __setstate__(self, state):
        self.store = RepresentativeStore()
        for name, value in state.items():
            setattr(self, name, value)


class ReductionSession:
    """One live incremental reduction: a (trace, config) pair under service.

    Parameters
    ----------
    name:
        Trace/session name; carried into deltas and results.
    config:
        A :class:`SessionConfig` (or a bare method name, promoted to one).

    Appending and flushing interleave freely; :meth:`finish` seals the
    session (open per-rank segmenters must have no partial segment) and
    returns the full reduced trace plus the final delta.
    """

    def __init__(self, name: str, config: SessionConfig | str) -> None:
        if isinstance(config, str):
            config = SessionConfig(method=config)
        self.name = name
        self.config = config
        self.metric = create_metric(config.method, config.threshold)
        self.reducer = TraceReducer(self.metric)
        self.stats = SessionStats()
        self.seq = 0
        self._ranks: dict[int, _RankState] = {}
        self._finished = False

    # -- introspection -----------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def live_representatives(self) -> int:
        """Representatives currently held as match candidates (memory cost):
        the number the service's per-tenant budget meters."""
        return sum(st.reduced.n_stored for st in self._ranks.values())

    def trace_digest(self) -> str:
        """Content digest of everything ingested so far (hex).

        After :meth:`finish` this equals
        :func:`~repro.service.cache.source_digest` of the same trace.
        """
        return combine_rank_digests(
            {rank: st.digest for rank, st in self._ranks.items()}
        )

    # -- ingestion ---------------------------------------------------------

    def append(self, frame: RankFrame) -> int:
        """Reduce one more piece of ``frame.rank``'s rows; returns rows taken."""
        return self._ingest(self._rank_state(frame.rank), frame)

    def append_records(self, rank: int, records: Iterable[TraceRecord]) -> int:
        """Push raw trace records for one rank; returns segments completed.

        Records stream through a persistent per-rank
        :class:`~repro.trace.segments.RecordSegmenter`, so a segment may span
        any number of ``append_records`` calls; only *completed* segments are
        reduced (and digested), as one frame.  The open tail survives
        checkpoints.
        """
        state = self._rank_state(rank)
        segmenter = state.segmenter
        if segmenter is None:
            segmenter = state.segmenter = RecordSegmenter(rank)
        segments = []
        n_records = 0
        for record in records:
            n_records += 1
            segment = segmenter.push(record)
            if segment is not None:
                segments.append(segment)
        self.stats.records += n_records
        return self._ingest(state, RankFrame.from_segments(rank, segments))

    def _rank_state(self, rank: int) -> _RankState:
        if self._finished:
            raise RuntimeError(f"session {self.name!r} is finished; cannot append")
        state = self._ranks.get(rank)
        if state is None:
            state = self._ranks[rank] = _RankState(rank)
        return state

    def _ingest(self, state: _RankState, frame: RankFrame) -> int:
        n = frame.n_segments
        self.stats.appends += 1
        if not n:
            return 0
        with obs.span("service.append", rank=state.rank, segments=n):
            self.reducer.reduce_frame(
                frame,
                store=state.store,
                into=state.reduced,
                match_counters=self.stats.match,
            )
            state.window.append(state.reduced.exec_chunks[-1])  # the frame's executions
            # Chained after the reduction: a frame the reducer refuses (it
            # checks the whole frame before it steps a row) leaves the
            # digest as it was.
            state.digest = chain_frame(state.digest, frame)
        self.stats.segments += n
        return n

    # -- output ------------------------------------------------------------

    def flush(self) -> ReductionDelta:
        """Emit everything reduced since the previous flush and advance.

        The delta lists, per rank with changes: newly stored representatives,
        previously announced representatives whose state changed (an
        execution matched them — count advanced, and under ``iter_avg`` the
        stored timestamps moved), and the window's execution entries; the
        representatives get rows of their own (releasing their frames).
        """
        with obs.span("service.flush", session=self.name, seq=self.seq):
            rank_deltas: list[RankDelta] = []
            for rank in sorted(self._ranks):
                state = self._ranks[rank]
                reduced = state.reduced
                if not state.window:
                    continue
                first = state.stored_mark
                ids, starts, matched = map(np.concatenate, zip(*state.window))
                updated = np.unique(ids[matched & (ids < first)])
                reduced.own()
                rank_deltas.append(
                    RankDelta(
                        rank=rank,
                        reduced=reduced,
                        new=range(first, reduced.n_stored),
                        updated=updated,
                        counts=reduced.counts[updated],
                        exec_ids=ids,
                        exec_starts=starts,
                    )
                )
                state.stored_mark, state.window = reduced.n_stored, []
            delta = ReductionDelta(
                name=self.name,
                method=self.metric.name,
                threshold=self.metric.threshold,
                seq=self.seq,
                ranks=rank_deltas,
            )
            self.seq += 1
            self.stats.flushes += 1
            if rank_deltas:
                self.stats.deltas_emitted += 1
        return delta

    def result(self) -> ReducedTrace:
        """The complete reduced trace so far (ranks in rank order).

        The returned object shares state with the session: appending after
        taking a result mutates it.  Equals the batch oracle's output once
        the same segments have been fed.
        """
        reduced = ReducedTrace(
            name=self.name, method=self.metric.name, threshold=self.metric.threshold
        )
        for rank in sorted(self._ranks):
            reduced.ranks.append(self._ranks[rank].reduced)
        return reduced

    def finish(self) -> SessionResult:
        """Seal the session: final flush, full result, content digest.

        Raises if a record-fed rank still has a partially open segment (the
        stream ended mid-segment — finishing would silently drop data).
        """
        if self._finished:
            raise RuntimeError(f"session {self.name!r} is already finished")
        for state in self._ranks.values():
            if state.segmenter is not None:
                state.segmenter.finish()
        delta = self.flush()
        self._finished = True
        return SessionResult(
            reduced=self.result(), delta=delta, digest=self.trace_digest()
        )
