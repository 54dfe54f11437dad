"""The service ingests frames: one digest over columns, no ``Segment`` on its path.

A session is fed a rank's frame as row views (``RankFrame.chunks``), and
its digest chains one link per row over the frame's columns, so:

* ``source_digest`` of a trace is one value whatever form the trace takes
  (in memory, text, ``.rpb``) and however a session was fed it;
* it still sees a time moved below text precision;
* a dense method's ``.rpb`` session and ``submit`` build no ``Segment``
  through their deltas, their result and its bytes.
"""

import asyncio
import copy

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.pipeline.stream import rank_frame_streams
from repro.service import (
    ReductionService,
    ReductionSession,
    SessionConfig,
    session_state,
    source_digest,
)
from repro.trace.formats import convert_trace
from repro.trace.io import read_trace, serialize_delta, serialize_reduced_trace, write_trace

from tests.conftest import stored_view
from tests.support import reference_reduce

DENSE_METHODS = [name for name in METRIC_NAMES if name not in ("iter_k", "iter_avg")]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("frame_ingest")
    text, rpb = root / "trace.txt", root / "trace.rpb"
    write_trace(late_sender(nprocs=4, iterations=6, seed=3).run(), text)
    convert_trace(text, rpb)
    return {"text": text, "rpb": rpb}


def _fed(source, method, size=None, deltas=None):
    """A finished session fed ``source``'s ranks ``size`` rows at a time (None: whole).

    With ``deltas``, every fourth append is followed by a flush, whose bytes
    are appended to it.
    """
    session = ReductionSession("t", SessionConfig(method))
    appends = 0
    for _, frame in rank_frame_streams(source):
        for piece in [frame] if size is None else frame.chunks(size):
            session.append(piece)
            appends += 1
            if deltas is not None and appends % 4 == 0:
                deltas.append(serialize_delta(session.flush()))
    return session.finish()


def test_one_trace_has_one_digest_in_every_form(files):
    """In memory (records or segments), text and ``.rpb`` — one value, the text's values."""
    in_memory = read_trace(files["text"])
    digests = {
        source_digest(in_memory),
        source_digest(in_memory.segmented()),
        source_digest(files["text"]),
        source_digest(files["rpb"]),
    }
    assert len(digests) == 1


@pytest.mark.parametrize("size", [1, 7, 256, None], ids=["1", "7", "256", "whole"])
def test_a_session_digests_to_its_source_however_it_is_fed(files, size):
    assert _fed(files["rpb"], "relDiff", size).digest == source_digest(files["rpb"])


def test_the_digest_sees_a_nanosecond():
    trace = late_sender(nprocs=2, iterations=3, seed=5).run().segmented()
    moved = copy.deepcopy(trace)
    moved.ranks[1].segments[2].events[0].end += 1e-9
    assert source_digest(moved) != source_digest(trace)


def test_a_chunk_keeps_its_rows_indices(files):
    """A chunk at ``lo`` keeps the rank's indices: its row ``i`` is segment ``lo + i``."""
    _, frame = next(iter(rank_frame_streams(files["rpb"])))
    pieces = list(frame.chunks(5))
    assert [p.segment(0).index for p in pieces] == list(range(0, frame.n_segments, 5))
    session = ReductionSession("t", SessionConfig("euclidean", 0.001))
    for piece in pieces:
        session.append(piece)
    session_state(session)  # gives every representative rows of its own
    metric = create_metric("euclidean", 0.001)
    reference = reference_reduce(metric, read_trace(files["rpb"]).segmented())
    assert stored_view(session.result().ranks[0]) == stored_view(reference.ranks[0])


@pytest.fixture
def segments_built(monkeypatch):
    """How many times ``RankFrame.segment`` ran."""
    calls = []
    build = RankFrame.segment

    def counted(frame, i):
        calls.append(i)
        return build(frame, i)

    monkeypatch.setattr(RankFrame, "segment", counted)
    return calls


@pytest.mark.parametrize("method", DENSE_METHODS)
def test_a_dense_session_builds_no_segment(files, method, segments_built):
    deltas = []
    result = _fed(files["rpb"], method, size=8, deltas=deltas)
    deltas.append(serialize_delta(result.delta))
    payload = serialize_reduced_trace(result.reduced)
    assert segments_built == []
    reference = reference_reduce(create_metric(method), read_trace(files["rpb"]).segmented())
    assert payload == serialize_reduced_trace(reference)


@pytest.mark.parametrize("method", DENSE_METHODS)
def test_a_dense_submit_builds_no_segment(files, method, segments_built):
    async def submit():
        service = ReductionService()
        try:
            return await service.submit("t", files["rpb"], SessionConfig(method), chunk=8)
        finally:
            await service.close()

    result = asyncio.run(submit())
    assert segments_built == []
    reference = reference_reduce(create_metric(method), read_trace(files["rpb"]).segmented())
    assert result.payload == serialize_reduced_trace(reference)
    assert result.digest == source_digest(files["rpb"])


def test_an_empty_rank_is_appended_and_digested_too():
    """``chunks`` gives an empty rank one empty piece, so the session knows the rank."""
    from repro.trace.trace import SegmentedRankTrace, SegmentedTrace

    full = late_sender(nprocs=2, iterations=3, seed=5).run().segmented()
    trace = SegmentedTrace("t", [full.ranks[0], SegmentedRankTrace(1, [])])
    result = _fed(trace, "relDiff", size=4)
    assert [rank.rank for rank in result.reduced.ranks] == [0, 1]
    assert result.digest == source_digest(trace)
