"""Unit tests for the columnar per-rank frame (``repro.core.frames``).

The frame is the ingest-to-match hot path's data model: these tests pin its
contract — bitwise-identical normalisation and materialization versus the
per-segment ``relative_to_start()`` path, interned structural keys that group
exactly as ``Segment.structure()`` equality does, and lazy ``Segment``
construction that is counted honestly.
"""

import math
import pickle

import numpy as np
import pytest

from repro.core.frames import InternedKey, RankFrame, pyramid_rows
from repro.core.metrics import create_metric
from repro.core.metrics.wavelet import average_transform, haar_transform
from repro.trace.events import Event, MpiCallInfo
from repro.trace.segments import Segment

DISTANCE_METHODS = [
    "relDiff",
    "absDiff",
    "manhattan",
    "euclidean",
    "chebyshev",
    "avgWave",
    "haarWave",
]


@pytest.fixture(scope="module")
def frames(small_late_sender_trace):
    return [
        (rank_trace.segments, RankFrame.from_segments(rank_trace.rank, rank_trace.segments))
        for rank_trace in small_late_sender_trace.ranks
    ]


def _hex(value: float) -> str:
    return float(value).hex()


class TestMaterialization:
    def test_segments_bitwise_equal_relative_to_start(self, frames):
        for segments, frame in frames:
            assert frame.n_segments == len(segments)
            for i, original in enumerate(segments):
                relative = original.relative_to_start()
                built = frame.segment(i)
                assert built.context == relative.context
                assert built.rank == relative.rank
                assert built.index == relative.index
                assert _hex(built.start) == _hex(relative.start)
                assert _hex(built.end) == _hex(relative.end)
                assert len(built.events) == len(relative.events)
                for be, re_ in zip(built.events, relative.events):
                    assert be.name == re_.name
                    assert _hex(be.start) == _hex(re_.start)
                    assert _hex(be.end) == _hex(re_.end)
                    assert be.mpi == re_.mpi

    def test_materialized_counter(self, small_late_sender_trace):
        rank_trace = small_late_sender_trace.ranks[0]
        frame = RankFrame.from_segments(rank_trace.rank, rank_trace.segments)
        assert frame.materialized == 0
        frame.segment(0)
        assert frame.materialized == 1
        frame.segment(0)  # every call builds a fresh object and is counted
        assert frame.materialized == 2
        list(frame.segments())
        assert frame.materialized == 2 + frame.n_segments

    def test_bulk_passes_do_not_materialize(self, small_late_sender_trace):
        rank_trace = small_late_sender_trace.ranks[0]
        frame = RankFrame.from_segments(rank_trace.rank, rank_trace.segments)
        frame.structural_keys()
        frame.pairwise_vectors()
        frame.minkowski_vectors()
        frame.wavelet_vectors(scale=0.5)
        assert frame.materialized == 0

    def test_take_is_the_normalised_rows_as_a_frame(self, small_late_sender_trace):
        """``take(rows)`` gathers what ``from_segments`` makes of the materialized rows,
        bit for bit, keeps their keys and emission indices, and builds no object."""
        rank_trace = small_late_sender_trace.ranks[1]
        frame = RankFrame.from_segments(rank_trace.rank, rank_trace.segments[::-1])  # indices descend
        keys = frame.structural_keys()
        rows = np.array([4, 0, 4, frame.n_segments - 1])
        taken = frame.take(rows)
        assert frame.materialized == taken.materialized == 0
        adapted = RankFrame.from_segments(frame.rank, [frame.segment(row) for row in rows])
        for column in ("starts", "ends", "ev_offsets", "ev_starts", "ev_ends", "indices"):
            assert getattr(taken, column).tobytes() == getattr(adapted, column).tobytes(), column
        assert taken.segments() == adapted.segments()
        assert [key.value for key in taken.structural_keys()] == [keys[row].value for row in rows]
        assert frame.take(np.array([], dtype=np.int64)).n_segments == 0

    def test_lazy_stream_equals_materialized_list(self):
        """Frames built from a forward-only generator match list-built ones.

        Lazy sources drop each segment as soon as it is consumed, so a new
        ``MpiCallInfo`` can be allocated at a dead one's address; the intern
        memo must not let such id() reuse merge distinct MPI signatures.
        """

        def make_segment(i: int) -> Segment:
            events = [
                Event(
                    name="MPI_Send",
                    start=float(i) + 0.1,
                    end=float(i) + 0.2,
                    rank=0,
                    mpi=MpiCallInfo(op="send", peer=i % 7, tag=i % 5, nbytes=32 * i),
                )
                for _ in range(3)
            ]
            return Segment(
                context="main.1",
                rank=0,
                start=float(i),
                end=float(i) + 1.0,
                events=events,
                index=i,
            )

        def lazy():
            for i in range(64):
                yield make_segment(i)  # no reference kept past the yield

        from_stream = RankFrame.from_segments(0, lazy())
        from_list = RankFrame.from_segments(0, [make_segment(i) for i in range(64)])
        assert from_stream.mpi_table == from_list.mpi_table
        assert from_stream.ev_mpi.tobytes() == from_list.ev_mpi.tobytes()

    def test_mpi_info_preserved(self):
        info = MpiCallInfo(op="send", peer=3, tag=7, nbytes=4096)
        segment = Segment(
            context="main.1",
            rank=0,
            start=10.0,
            end=20.0,
            events=[
                Event(name="work", start=11.0, end=12.0, rank=0),
                Event(name="MPI_Send", start=13.0, end=14.0, rank=0, mpi=info),
            ],
            index=0,
        )
        frame = RankFrame.from_segments(0, [segment])
        built = frame.segment(0)
        assert built.events[0].mpi is None
        assert built.events[1].mpi == info


class TestStructuralKeys:
    def test_keys_are_interned(self, frames):
        for segments, frame in frames:
            keys = frame.structural_keys()
            assert keys is frame.structural_keys()  # memoized
            by_structure: dict = {}
            for original, key in zip(segments, keys):
                assert isinstance(key, InternedKey)
                # identical structure -> the very same wrapper object
                assert by_structure.setdefault(original.structure(), key) is key

    def test_keys_group_exactly_as_structure(self, frames):
        for segments, frame in frames:
            keys = frame.structural_keys()
            structures = [s.structure() for s in segments]
            for i in range(len(segments)):
                for j in range(i + 1, len(segments)):
                    assert (keys[i] is keys[j]) == (structures[i] == structures[j])

    def test_interned_key_semantics(self):
        a = InternedKey(("main.1", ("f", "g")))
        b = InternedKey(("main.1", ("f", "g")))
        c = InternedKey(("main.2", ("f",)))
        assert a == b and hash(a) == hash(b)
        assert a != c
        # deliberately not equal to the raw tuple: stores must be keyed
        # consistently with interned keys only
        assert (a == ("main.1", ("f", "g"))) is False


class TestVectors:
    @pytest.mark.parametrize("method", DISTANCE_METHODS)
    def test_frame_vectors_bitwise_equal_per_segment(self, frames, method):
        metric = create_metric(method)
        for segments, frame in frames:
            rows = metric.frame_vectors(frame)
            assert len(rows) == len(segments)
            for original, row in zip(segments, rows):
                expected = metric.build_vector(original.relative_to_start())
                assert row.dtype == expected.dtype
                assert row.shape == expected.shape
                assert row.tobytes() == expected.tobytes()

    def test_pyramid_rows_matches_scalar_transform(self):
        rng = np.random.default_rng(7)
        for scale, transform in ((0.5, average_transform), (1.0 / math.sqrt(2.0), haar_transform)):
            for width in (2, 4, 8, 16):
                matrix = rng.normal(size=(5, width))
                batched = pyramid_rows(matrix.copy(), scale)
                for row, out in zip(matrix, batched):
                    expected = transform(row.copy())
                    assert out.tobytes() == expected.tobytes()


class TestSerialization:
    def test_pickle_round_trip_drops_caches(self, small_late_sender_trace):
        rank_trace = small_late_sender_trace.ranks[1]
        frame = RankFrame.from_segments(rank_trace.rank, rank_trace.segments)
        frame.structural_keys()
        frame.pairwise_vectors()
        frame.segment(0)
        frame.text_bytes = 4096  # what a decoder sized: not derivable, so shipped
        clone = pickle.loads(pickle.dumps(frame))
        assert clone.rank == frame.rank
        assert clone.text_bytes == 4096
        assert clone.n_segments == frame.n_segments
        assert clone.materialized == 0  # derived state is not shipped
        assert clone.starts.tobytes() == frame.starts.tobytes()
        assert clone.ev_starts.tobytes() == frame.ev_starts.tobytes()
        # and the clone rebuilds identical vectors and segments
        for a, b in zip(clone.pairwise_vectors(), frame.pairwise_vectors()):
            assert a.tobytes() == b.tobytes()
        assert clone.segment(3).events[0].name == frame.segment(3).events[0].name

    def test_empty_rank(self):
        frame = RankFrame.from_segments(0, [])
        assert frame.n_segments == 0
        assert frame.structural_keys() == []
        assert frame.pairwise_vectors() == []
        assert list(frame.segments()) == []
