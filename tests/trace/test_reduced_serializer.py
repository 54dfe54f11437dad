"""The columnar reduced-trace serializer against the per-object one.

``iter_reduced_rank_chunks`` writes every representative — a row of the
frame it was booked from, or of a frame of its own — from the frame's
relative columns, through one ``str.format`` template per structure;
``serialize_segment`` over the materialized object — the loop it replaced —
is the reference it must equal byte for byte, whatever the names, MPI
parameters and timestamps are.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reduced import ReducedRankTrace, ReducedTrace
from repro.core.reducer import TraceReducer
from repro.pipeline.engine import PipelineConfig, ReductionPipeline
from repro.trace import binio
from repro.trace import io as textio
from repro.trace.events import ALL_OPS, MpiCallInfo
from repro.trace.io import (
    iter_reduced_rank_chunks,
    serialize_exec_entry,
    serialize_reduced_trace,
    serialize_segment,
    write_trace,
)

from tests.properties.strategies import interleaved_segments

#: ``inf - inf`` while normalising a drawn frame is the point, not a defect.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

#: Names the whitespace-delimited format accepts and ``str.format`` could trip on.
names = st.sampled_from(
    ["f", "main.1", "{", "}", "{}", "{0}", "a{b}c", "}x{", "{{}}", "100%", "%s%d%%", "αβγ", "计算{0}", "🚀"]
)
optional_ints = st.one_of(st.none(), st.sampled_from([0, -1, 7, 10**12]))
mpi_infos = st.builds(
    MpiCallInfo,
    op=st.sampled_from(sorted(ALL_OPS)),
    root=optional_ints,
    peer=optional_ints,
    source=optional_ints,
    tag=optional_ints,
    nbytes=st.sampled_from([0, 0, 1, 4096, 2**63 - 1]),
    comm=st.sampled_from(["world", "world", "row", "列{0}"]),
)
#: Whatever a float64 column can hold, and where ``{:.2f}`` changes length or sign.
times = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 0.004999999999999999, 0.005, 9.995, 1e15, math.nextafter(1e15, 0.0), 1e16]
        + [1e300, -1e300, math.inf, -math.inf, math.nan]
    ),
)


def ordered(a: float, b: float) -> tuple[float, float]:
    """``(a, b)`` or ``(b, a)``: no pair a constructor would reject (NaN goes anywhere)."""
    return (b, a) if b < a else (a, b)


@st.composite
def frames(draw, rank=0, min_segments=1):
    """A frame built straight from drawn columns: zero-event segments, shared and
    distinct structures, MPI parameters in every combination, a drawn ``indices``
    column, any timestamps whose rows can still be materialized."""
    strings, mpi_table = [], []

    def string_id(value: str) -> int:
        if value not in strings:
            strings.append(value)
        return strings.index(value)

    contexts, starts, ends, offsets, ev = [], [], [], [0], ([], [], [], [])
    for _ in range(draw(st.integers(min_value=min_segments, max_value=6))):
        contexts.append(string_id(draw(names)))
        start, end = ordered(draw(times), draw(times))
        starts.append(start)
        ends.append(end)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            ev_start, ev_end = ordered(draw(times), draw(times))
            mpi = draw(st.one_of(st.none(), mpi_infos))
            if mpi is not None and mpi not in mpi_table:
                mpi_table.append(mpi)
            for column, value in zip(
                ev,
                (string_id(draw(names)), ev_start, ev_end, -1 if mpi is None else mpi_table.index(mpi)),
            ):
                column.append(value)
        offsets.append(len(ev[0]))
    indices = draw(st.one_of(st.none(), st.permutations(range(5, 5 + len(starts)))))
    return RankFrame(
        rank=rank,
        contexts=np.array(contexts, dtype=np.int64),
        starts=np.array(starts, dtype=float),
        ends=np.array(ends, dtype=float),
        ev_offsets=np.array(offsets, dtype=np.int64),
        ev_names=np.array(ev[0], dtype=np.int64),
        ev_starts=np.array(ev[1], dtype=float),
        ev_ends=np.array(ev[2], dtype=float),
        ev_mpi=np.array(ev[3], dtype=np.int64),
        strings=strings,
        mpi_table=mpi_table,
        indices=None if indices is None else np.array(indices, dtype=np.int64),
    )


def chunks(rank: ReducedRankTrace) -> bytes:
    return b"".join(iter_reduced_rank_chunks(rank))


def booked(rank: int, *pieces, execs=()) -> ReducedRankTrace:
    """A reduced rank of ``(frame, rows)`` chunks, each representative counted once."""
    ids, starts = (list(column) for column in zip(*execs)) if execs else ([], [])
    return ReducedRankTrace(
        rank=rank,
        chunks=[(frame, np.asarray(rows, dtype=np.int64)) for frame, rows in pieces],
        counts=np.ones(sum(len(rows) for _, rows in pieces), dtype=np.int64),
        exec_chunks=[(np.array(ids, dtype=np.int64), np.array(starts), np.zeros(len(ids), bool))],
    )


@settings(max_examples=300, deadline=None)
@given(frames(), st.integers(min_value=0, max_value=10**6))
def test_every_row_is_written_as_its_object_is(frame, first_id):
    textio._SEGMENT_TEMPLATES.clear()
    rows = np.arange(frame.n_segments)
    texts = textio._stored_texts([(frame, rows, first_id + rows)])
    assert "".join(texts).encode() == b"".join(
        serialize_segment(frame.segment(i), segment_id=first_id + i)
        for i in range(frame.n_segments)
    )
    rank = booked(0, (frame, rows))
    assert chunks(rank) == b"".join(
        serialize_segment(frame.segment(i), segment_id=i) for i in range(frame.n_segments)
    )
    assert rank.size_bytes() == len(chunks(rank))


@settings(max_examples=200, deadline=None)
@given(frames(min_segments=2), frames(), st.lists(st.tuples(st.integers(0, 99), times), max_size=5))
def test_a_mixed_run_is_the_per_object_concatenation(first, second, execs):
    """What a session holds mid-way: a chunk it owns already (a flush gave its rows
    a frame of their own), then rows of the next chunk's frame, in any order."""
    rows = np.arange(second.n_segments)[::-1]
    rank = booked(0, (first, np.arange(first.n_segments)), execs=execs)
    rank.own()
    assert rank.chunks[0][0] is not first
    rank.chunks.append((second, rows))
    rank.counts = np.ones(first.n_segments + second.n_segments, dtype=np.int64)
    expected = [serialize_segment(first.segment(i), segment_id=i) for i in range(first.n_segments)]
    expected += [
        serialize_segment(second.segment(row), segment_id=first.n_segments + j)
        for j, row in enumerate(rows.tolist())
    ]
    expected += [serialize_exec_entry(sid, start) for sid, start in execs]
    assert chunks(rank) == b"".join(expected)


@pytest.mark.parametrize("method", METRIC_NAMES)
@settings(max_examples=25, deadline=None)
@given(segments=interleaved_segments())
def test_size_bytes_is_the_length_of_the_serialization(method, segments):
    metric = create_metric(method, None if method.startswith("iter") else 0.02)
    reduced = ReducedTrace(
        name="t",
        method=metric.name,
        threshold=metric.threshold,
        ranks=[TraceReducer(metric).reduce_frame(RankFrame.from_segments(0, segments))],
    )
    size = reduced.size_bytes()
    data = serialize_reduced_trace(reduced)
    assert size == len(data) == reduced.ranks[0].size_bytes()
    reference = TraceReducer(create_metric(method, metric.threshold)).reduce_segments(segments)
    assert data == chunks(reference)


def test_templates_are_built_once_per_structure_not_once_per_rank(tmp_path, monkeypatch):
    """The serializer's fixed cost stays flat as ranks are added: over a 16-rank
    run ``_format_mpi`` runs at most once per event of each *distinct* structure,
    however many ranks repeat the structure."""
    path = tmp_path / "trace.rpb"
    write_trace(late_sender(nprocs=16, iterations=6, seed=3).run(), path)
    per_rank = [
        {key.value for key in binio.rank_frame(path, rank).structural_keys()}
        for rank in binio.rank_ids(path)
    ]
    distinct_events = sum(len(events) for _, events in set().union(*per_rank))
    assert distinct_events < sum(len(events) for keys in per_rank for _, events in keys)

    calls = []
    format_mpi = textio._format_mpi
    monkeypatch.setattr(textio, "_format_mpi", lambda mpi: calls.append(mpi) or format_mpi(mpi))
    textio._SEGMENT_TEMPLATES.clear()
    # Strict enough that every rank stores every structure it has.
    pipeline = ReductionPipeline(create_metric("euclidean", 0.0), PipelineConfig())
    written, stats = pipeline.write(path, tmp_path / "reduced.txt")
    assert stats.segments_materialized == 0 and stats.n_stored >= sum(map(len, per_rank))
    assert 0 < len(calls) <= distinct_events
    assert len(textio._SEGMENT_TEMPLATES) == len(set().union(*per_rank))


def test_the_template_memo_is_bounded(monkeypatch):
    """The memo lives as long as the process (the service is long-lived): it is
    emptied when full, and what it then rebuilds is the same text."""
    monkeypatch.setattr(textio, "_SEGMENT_TEMPLATES_CAP", 2)
    textio._SEGMENT_TEMPLATES.clear()
    segments = late_sender(nprocs=2, iterations=3, seed=1).run().segmented().ranks[1].segments
    frame = RankFrame.from_segments(1, segments)
    assert len(set(frame.structural_keys())) > 2
    data = chunks(booked(1, (frame, np.arange(frame.n_segments))))
    assert len(textio._SEGMENT_TEMPLATES) <= 2
    assert data == b"".join(
        serialize_segment(frame.segment(i), segment_id=i) for i in range(frame.n_segments)
    )
