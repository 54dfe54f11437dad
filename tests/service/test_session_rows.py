"""A session's representatives stay rows of their chunk frame until someone reads them.

A dense session books a new representative as ``(chunk frame, row)``.  A
delta lists it and writes its ``SEG`` block from the frame's columns; a
checkpoint is what builds the ``Segment`` (it pickles objects), with the
same object as the result the scalar reference stores.  Reading drops the
origin, so a checkpointed chunk's frame lives no longer than that.
"""

import gc
import weakref

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.service import ReductionSession, SessionConfig, save_checkpoint, session_state
from repro.trace.io import serialize_delta


@pytest.fixture(scope="module")
def segments():
    return late_sender(nprocs=2, iterations=8, seed=3).run().segmented().ranks[1].segments


def fed(segments, cut):
    """A euclidean session fed two chunks; the frames its representatives are rows of."""
    session = ReductionSession("t", SessionConfig("euclidean", 0.001))
    session.append(RankFrame.from_segments(1, segments[:cut]))
    session.append(RankFrame.from_segments(1, segments[cut:]))
    stored = session.result().ranks[0].stored
    assert stored and all(representative.origin is not None for representative in stored)
    frames = {id(r.origin[0]): weakref.ref(r.origin[0]) for r in stored}
    assert len(frames) == 2  # both chunks stored something
    return session, list(frames.values())


def alive(frames) -> int:
    gc.collect()
    return sum(frame() is not None for frame in frames)


@pytest.mark.parametrize(
    "read",
    [
        lambda session, tmp_path: session_state(session),
        lambda session, tmp_path: save_checkpoint(session, tmp_path / "session.ckpt"),
    ],
    ids=["session_state", "save_checkpoint"],
)
def test_chunk_frames_die_once_their_representatives_are_read(segments, tmp_path, read):
    session, frames = fed(segments, cut=5)
    assert alive(frames) == 2
    read(session, tmp_path)
    assert alive(frames) == 0
    stored = session.result().ranks[0].stored
    assert all(representative.origin is None for representative in stored)
    reference = TraceReducer(create_metric("euclidean", 0.001)).reduce_segments(segments, rank=1)
    assert stored == reference.stored


def test_a_delta_and_its_bytes_build_nothing(segments):
    """The delta lists the representatives and is written from their rows."""
    session, frames = fed(segments, cut=5)
    delta = session.flush()
    serialize_delta(delta)
    assert alive(frames) == 2
    assert all(r.origin is not None for rank in delta.ranks for r in rank.new)
