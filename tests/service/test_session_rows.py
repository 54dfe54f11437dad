"""A session's representatives stop pinning their chunk frames at the next flush or checkpoint.

A session books a new representative as a row of the chunk frame it came
from.  A flush and a checkpoint read those rows (a delta writes its ``SEG``
blocks, a checkpoint pickles them) and give the reduced rank rows of its own
(``ReducedRankTrace.own``), so the chunk frames — and through their row
views the rank's whole decoded frame — are released then, not when the
session is dropped.  The result is still the scalar reference's.
"""

import gc
import weakref

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.core.reduced import ReducedTrace
from repro.core.reducer import TraceReducer
from repro.service import ReductionSession, SessionConfig, save_checkpoint, session_state
from repro.trace.io import serialize_delta, serialize_reduced_trace

from tests.conftest import stored_view


@pytest.fixture(scope="module")
def segments():
    return late_sender(nprocs=2, iterations=8, seed=3).run().segmented().ranks[1].segments


def fed(segments, cut, method="euclidean", threshold=0.001):
    """A session fed two chunks; weak references to the frames its representatives are rows of."""
    session = ReductionSession("t", SessionConfig(method, threshold))
    session.append(RankFrame.from_segments(1, segments[:cut]))
    session.append(RankFrame.from_segments(1, segments[cut:]))
    chunks = session.result().ranks[0].chunks
    frames = {id(frame): weakref.ref(frame) for frame, _ in chunks}
    assert len(frames) == 2  # both chunks stored something
    return session, list(frames.values())


def alive(frames) -> int:
    gc.collect()
    return sum(frame() is not None for frame in frames)


def reference(segments, method="euclidean", threshold=0.001):
    return TraceReducer(create_metric(method, threshold)).reduce_segments(segments, rank=1)


@pytest.mark.parametrize(
    "read",
    [
        lambda session, tmp_path: serialize_delta(session.flush()),
        lambda session, tmp_path: session_state(session),
        lambda session, tmp_path: save_checkpoint(session, tmp_path / "session.ckpt"),
    ],
    ids=["flush", "session_state", "save_checkpoint"],
)
def test_chunk_frames_die_once_their_representatives_are_read(segments, tmp_path, read):
    session, frames = fed(segments, cut=5)
    assert alive(frames) == 2
    read(session, tmp_path)
    assert alive(frames) == 0
    result = session.result().ranks[0]
    assert stored_view(result) == stored_view(reference(segments))


def test_a_delta_and_its_bytes_build_nothing(segments):
    """The delta lists ids and is written from the rows."""
    session, _ = fed(segments, cut=5)
    delta = session.flush()
    serialize_delta(delta)
    rank = session.result().ranks[0]
    assert sum(frame.materialized for frame, _ in rank.chunks) == 0
    assert list(delta.ranks[0].new) == list(range(rank.n_stored))


def test_iter_avg_means_survive_flushes_between_chunks(segments):
    """``iter_avg`` writes its means into rows the rank owns, flushed or not."""
    session = ReductionSession("t", SessionConfig("iter_avg"))
    for lo, hi in ((0, 3), (3, 7), (7, None)):
        session.append(RankFrame.from_segments(1, segments[lo:hi]))
        serialize_delta(session.flush())
    result = session.finish().reduced
    expected = ReducedTrace("t", "iter_avg", None, [reference(segments, "iter_avg", None)])
    assert serialize_reduced_trace(result) == serialize_reduced_trace(expected)
