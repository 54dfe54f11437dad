"""An independent statement of the paper's algorithm, checked against every pathway.

Every in-tree oracle shares normalisation, structural keys and metric kernels
with its subject, so a common-mode bug is invisible to them.  The reducer
below is written from Section 3.1 (match-or-store, first match wins),
Section 3.2.1 (the five distance methods) and Section 3.2.2 (the two
iteration methods, ``iter_k`` and ``iter_avg``) in plain Python: no NumPy,
no frames, no interning, no class of ``repro.core``.  It reads raw
:class:`TraceRecord` streams and does its own segmentation, normalisation,
structural comparison and distance arithmetic.

Pathways are compared on decisions — per rank ``(stored ids, execs, counts)``
— and on each representative's measurements, not on serialized bytes:
Python and NumPy may sum a norm in a different order, which can move a
distance by an ulp but not a decision on these workloads.  A stored
measurement is a copy, or for ``iter_avg`` a running mean whose every step
is one IEEE operation in either language, so those compare exactly.
"""

import math

import pytest

from repro.core.frames import RankFrame
from repro.core.metrics import DEFAULT_THRESHOLDS, create_metric
from repro.core.reducer import TraceReducer
from repro.experiments.config import SCALES, build_workload
from repro.service.session import ReductionSession, SessionConfig
from repro.pipeline.engine import sweep_pipeline
from repro.sweep.plan import SweepPlan
from repro.trace.events import MpiCallInfo
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.trace import RankTrace, Trace

METHODS = ("relDiff", "absDiff", "manhattan", "euclidean", "chebyshev")
#: The iteration methods and the thresholds they are held to the reference at:
#: the paper's k, and a k small enough that every rank's keys run past it.
ITERATION_THRESHOLDS = {"iter_k": (DEFAULT_THRESHOLDS["iter_k"], 2), "iter_avg": (None,)}


# -- the reference: Section 3.1 + 3.2.1, pure Python ---------------------------


def _segments(records):
    """One rank's flat record stream -> [(context, start, end, [(name, mpi, start, end)])]."""
    segments, context, seg_start, events, entered = [], None, 0.0, [], None
    for record in records:
        if record.kind == RecordKind.SEGMENT_BEGIN:
            context, seg_start, events = record.name, record.timestamp, []
        elif record.kind == RecordKind.ENTER:
            entered = record
        elif record.kind == RecordKind.EXIT:
            events.append((entered.name, entered.mpi, entered.timestamp, record.timestamp))
        else:
            segments.append((context, seg_start, record.timestamp, events))
    return segments


def _similar(method, threshold, new, old):
    """Section 3.2.1 on two normalised segments (duration, [(start, end), ...])."""
    pairs = [(a, b) for (x, y) in zip(new[1], old[1]) for (a, b) in zip(x, y)]
    pairs.append((new[0], old[0]))
    if method == "absDiff":
        return all(abs(a - b) <= threshold for a, b in pairs)
    if method == "relDiff":
        return all(
            abs(a - b) / max(abs(a), abs(b)) <= threshold
            for a, b in pairs
            if max(abs(a), abs(b)) > 0.0
        )
    diffs = [abs(a - b) for a, b in pairs]
    if method == "manhattan":
        distance = sum(diffs)
    elif method == "euclidean":
        distance = math.sqrt(sum(d * d for d in diffs))
    else:  # chebyshev
        distance = max(diffs)
    largest = max(max(abs(a), abs(b)) for a, b in pairs)
    return distance <= threshold * largest


def _chosen(method, threshold, measured, candidates, stored):
    """Which stored segment (by id) a segment matches, or None to store it."""
    if method == "iter_k":
        # Section 3.2.2: keep the first k executions of each segment of code;
        # a later one is recorded against the last copy kept.
        return candidates[-1] if len(candidates) >= threshold else None
    if method == "iter_avg":
        # Section 3.2.2: one copy per segment of code, holding the average.
        return candidates[0] if candidates else None
    for i in candidates:
        if _similar(method, threshold, measured, stored[i][1]):
            return i
    return None


def _averaged(mean, measured, count):
    """``mean`` of ``count - 1`` executions with ``measured`` folded in: m + (x - m) / count."""

    def fold(m, x):
        return m + (x - m) / count

    return (
        fold(mean[0], measured[0]),
        [(fold(a, x), fold(b, y)) for (a, b), (x, y) in zip(mean[1], measured[1])],
    )


def reference_reduce(records, method, threshold):
    """The paper's per-rank loop; returns (stored ids, execs, counts, possible,
    matches, each stored segment's measurements as ``[start, end, ..., duration]``)."""
    stored = []  # [structure, normalised measurements, count], id = position
    execs, possible, matches = [], 0, 0
    for context, start, end, events in _segments(records):
        structure = (context, [(name, mpi) for name, mpi, _, _ in events])
        measured = (end - start, [(s - start, e - start) for _, _, s, e in events])
        candidates = [i for i, entry in enumerate(stored) if entry[0] == structure]
        possible += bool(candidates)
        i = _chosen(method, threshold, measured, candidates, stored)
        if i is None:
            execs.append((len(stored), start))
            stored.append([structure, measured, 1])
            continue
        stored[i][2] += 1
        if method == "iter_avg":
            stored[i][1] = _averaged(stored[i][1], measured, stored[i][2])
        execs.append((i, start))
        matches += 1
    measurements = [
        [*(t for pair in pairs for t in pair), duration] for _, (duration, pairs), _ in stored
    ]
    return (
        list(range(len(stored))),
        execs,
        [entry[2] for entry in stored],
        possible,
        matches,
        measurements,
    )


# -- the pathways under test -----------------------------------------------------


def _decisions(reduced_rank):
    return (
        list(range(reduced_rank.n_stored)),
        reduced_rank.execs,
        reduced_rank.counts.tolist(),
        reduced_rank.n_possible_matches,
        reduced_rank.n_matches,
        [segment.timestamps() for segment in reduced_rank.segments()],
    )


def _via_reduce_segments(trace, method, threshold):
    reducer = TraceReducer(create_metric(method, threshold))
    return [
        reducer.reduce_segments(rank.segments, rank=rank.rank)
        for rank in trace.segmented().ranks
    ]


def _via_reduce_frame(trace, method, threshold):
    reducer = TraceReducer(create_metric(method, threshold))
    return [
        reducer.reduce_frame(RankFrame.from_segments(rank.rank, rank.segments))
        for rank in trace.segmented().ranks
    ]


def _via_sweep(trace, method, threshold):
    result = sweep_pipeline(trace.segmented(), SweepPlan.single(method, threshold))
    return result.outcomes[0].reduced.ranks


def _via_session(trace, method, threshold):
    session = ReductionSession(trace.name, SessionConfig(method, threshold))
    cursors = {rank.rank: 0 for rank in trace.ranks}
    size = 1
    while cursors:  # ragged rank-interleaved chunks of 1, 2, ..., 7 records
        for rank in trace.ranks:
            at = cursors.get(rank.rank)
            if at is None:
                continue
            session.append_records(rank.rank, rank.records[at : at + size])
            cursors[rank.rank] = at + size
            if at + size >= len(rank.records):
                del cursors[rank.rank]
            size = size % 7 + 1
    return session.finish().reduced.ranks


PATHWAYS = {
    "reduce_segments": _via_reduce_segments,
    "reduce_frame": _via_reduce_frame,
    "sweep": _via_sweep,
    "session": _via_session,
}


@pytest.fixture(scope="module", params=["sweep3d_8p", "late_sender"])
def smoke_trace(request):
    return build_workload(request.param, SCALES["smoke"]).run()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pathway", PATHWAYS)
def test_pathway_agrees_with_reference(smoke_trace, method, pathway):
    for threshold in (DEFAULT_THRESHOLDS[method], DEFAULT_THRESHOLDS[method] / 50):
        expected = [reference_reduce(r.records, method, threshold) for r in smoke_trace.ranks]
        got = [_decisions(r) for r in PATHWAYS[pathway](smoke_trace, method, threshold)]
        assert got == expected, f"{pathway} diverged from the reference at {method}({threshold})"
        assert any(matches for *_, matches, _ in expected)  # both branches ran


@pytest.mark.parametrize("method", ITERATION_THRESHOLDS)
@pytest.mark.parametrize("pathway", PATHWAYS)
def test_iteration_pathway_agrees_with_reference(smoke_trace, method, pathway):
    for threshold in ITERATION_THRESHOLDS[method]:
        expected = [reference_reduce(r.records, method, threshold) for r in smoke_trace.ranks]
        got = [_decisions(r) for r in PATHWAYS[pathway](smoke_trace, method, threshold)]
        assert got == expected, f"{pathway} diverged from the reference at {method}({threshold})"
    # The smallest threshold both stores and matches on every rank.
    assert all(stored[1:] and matches for stored, _, _, _, matches, _ in expected)


# -- a hand-written example --------------------------------------------------------


def _hand_written_rank():
    """Six segments; absDiff(10) must decide exactly as spelled out in the test."""
    gather = MpiCallInfo(op="allgather", nbytes=1024)
    gather_2k = MpiCallInfo(op="allgather", nbytes=2048)
    shapes = [  # (absolute start, do_work end, allgather start/end, segment end, allgather params)
        (100.0, 20.0, 21.0, 49.0, 50.0, gather),
        (200.0, 30.0, 31.0, 49.0, 50.0, gather),
        (300.0, 40.0, 41.0, 50.0, 51.0, gather),
        (400.0, 17.0, 18.0, 48.0, 49.0, gather),
        (500.0, 50.0, 51.0, 60.0, 61.0, gather),
        (600.0, 20.0, 21.0, 49.0, 50.0, gather_2k),
    ]
    records = []
    for t, work_end, ag_start, ag_end, end, mpi in shapes:
        records += [
            TraceRecord(RecordKind.SEGMENT_BEGIN, 0, t, "main.1"),
            TraceRecord(RecordKind.ENTER, 0, t + 1.0, "do_work"),
            TraceRecord(RecordKind.EXIT, 0, t + work_end, "do_work"),
            TraceRecord(RecordKind.ENTER, 0, t + ag_start, "MPI_Allgather", mpi=mpi),
            TraceRecord(RecordKind.EXIT, 0, t + ag_end, "MPI_Allgather"),
            TraceRecord(RecordKind.SEGMENT_END, 0, t + end, "main.1"),
        ]
    return Trace(name="hand", ranks=[RankTrace(rank=0, records=records)])


#: absDiff, threshold 10 µs, segment by segment:
#: 1. nothing stored                                         -> store as id 0
#: 2. vs 0: 30 vs 20 and 31 vs 21 differ by exactly 10        -> match 0 (bound is inclusive)
#: 3. vs 0: do_work end 40 vs 20 differs by 20 > 10           -> store as id 1
#: 4. vs 0: largest difference 3 (17 vs 20)                   -> match 0 (first match wins)
#: 5. vs 0: 50 vs 20 differs by 30; vs 1: all exactly 10      -> match 1 (inclusive, 2 rows)
#: 6. same events, other Allgather size: no candidate at all  -> store as id 2
HAND_EXPECTED = (
    [0, 1, 2],
    [(0, 100.0), (0, 200.0), (1, 300.0), (0, 400.0), (1, 500.0), (2, 600.0)],
    [3, 2, 1],
    4,  # segments 2, 3, 4 and 5 had a candidate
    3,
)


def test_reference_reproduces_the_hand_written_example():
    (rank,) = _hand_written_rank().ranks
    assert reference_reduce(rank.records, "absDiff", 10.0)[:5] == HAND_EXPECTED


@pytest.mark.parametrize("pathway", PATHWAYS)
def test_pathway_reproduces_the_hand_written_example(pathway):
    (reduced,) = PATHWAYS[pathway](_hand_written_rank(), "absDiff", 10.0)
    assert _decisions(reduced)[:5] == HAND_EXPECTED


# -- a hand-written example with two interleaved structures ------------------------


def _interleaved_rank():
    """Eight segments alternating ``main.1`` and ``solve.1``; absDiff(10) again."""
    gather = MpiCallInfo(op="allgather", nbytes=1024)
    records = []
    for i, length in enumerate([20.0, 30.0, 40.0, 35.0, 30.0, 60.0, 45.0, 52.0]):
        t = 100.0 * (i + 1)
        if i % 2 == 0:  # main.1: do_work ends at `length`, Allgather fills the rest
            records += [
                TraceRecord(RecordKind.SEGMENT_BEGIN, 0, t, "main.1"),
                TraceRecord(RecordKind.ENTER, 0, t + 1.0, "do_work"),
                TraceRecord(RecordKind.EXIT, 0, t + length, "do_work"),
                TraceRecord(RecordKind.ENTER, 0, t + length + 1.0, "MPI_Allgather", mpi=gather),
                TraceRecord(RecordKind.EXIT, 0, t + 49.0, "MPI_Allgather"),
                TraceRecord(RecordKind.SEGMENT_END, 0, t + 50.0, "main.1"),
            ]
        else:  # solve.1: one event that ends at `length`
            records += [
                TraceRecord(RecordKind.SEGMENT_BEGIN, 0, t, "solve.1"),
                TraceRecord(RecordKind.ENTER, 0, t + 1.0, "solve"),
                TraceRecord(RecordKind.EXIT, 0, t + length, "solve"),
                TraceRecord(RecordKind.SEGMENT_END, 0, t + length + 1.0, "solve.1"),
            ]
    return Trace(name="interleaved", ranks=[RankTrace(rank=0, records=records)])


#: absDiff, threshold 10 µs.  Ids follow *segment* order across the two
#: structures, which a reducer that resolves one structure at a time has to
#: get right: main.1 owns ids 0 and 2, solve.1 ids 1 and 3.
#: 1. main.1  work 20: nothing stored                         -> store as id 0
#: 2. solve.1 30: nothing stored under this structure         -> store as id 1
#: 3. main.1  work 40: vs 0 differs by 20                     -> store as id 2
#: 4. solve.1 35: vs 1 differs by 5                           -> match 1
#: 5. main.1  work 30: vs 0 exactly 10, vs 2 exactly 10       -> match 0 (first match wins)
#: 6. solve.1 60: vs 1 differs by 30                          -> store as id 3
#: 7. main.1  work 45: vs 0 differs by 25; vs 2 by 5          -> match 2
#: 8. solve.1 52: vs 1 differs by 22; vs 3 by 8               -> match 3
INTERLEAVED_EXPECTED = (
    [0, 1, 2, 3],
    [(0, 100.0), (1, 200.0), (2, 300.0), (1, 400.0),
     (0, 500.0), (3, 600.0), (2, 700.0), (3, 800.0)],
    [2, 2, 2, 2],
    6,  # every segment but the first of each structure had a candidate
    4,
)


def test_reference_reproduces_the_interleaved_example():
    (rank,) = _interleaved_rank().ranks
    assert reference_reduce(rank.records, "absDiff", 10.0)[:5] == INTERLEAVED_EXPECTED


@pytest.mark.parametrize("pathway", PATHWAYS)
def test_pathway_reproduces_the_interleaved_example(pathway):
    (reduced,) = PATHWAYS[pathway](_interleaved_rank(), "absDiff", 10.0)
    assert _decisions(reduced)[:5] == INTERLEAVED_EXPECTED
