"""Columnar-vs-serial equivalence: the acceptance suite of the frame path.

The columnar ingest-to-match path (``RankFrame`` + ``reduce_frame`` + the
frame-fed sweep) must be invisible in the output: for every one of the
nine similarity metrics, over every source kind (in-memory, text file,
``.rpb`` file) and every dispatch mode (serial inline, sharded pool), the
reduced trace must serialize byte-identical to the segment-at-a-time
:class:`~repro.core.reducer.TraceReducer` oracle run over the *same* source.

Oracles are matched to the source deliberately: text files quantize
timestamps to two decimals, so a file's oracle legitimately differs from the
in-memory trace it was written from.
"""

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reduced import ReducedTrace
from repro.core.reducer import TraceReducer
from repro.pipeline.engine import (
    PipelineConfig,
    ReductionPipeline,
    reduce_pipeline,
    sweep_pipeline,
)
from repro.pipeline.stream import rank_frame_streams, rank_segment_streams
from repro.sweep.plan import SweepConfig
from repro.trace.formats import convert_trace
from repro.trace.io import serialize_reduced_trace, write_trace

from tests.conftest import stored_view

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
def raw_trace():
    return late_sender(nprocs=4, iterations=6, seed=3).run()


@pytest.fixture(scope="module")
def text_path(raw_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("columnar") / "trace.txt"
    write_trace(raw_trace, path)
    return path


@pytest.fixture(scope="module")
def rpb_path(text_path, tmp_path_factory):
    # text -> rpb so both files hold the same (quantized) values and share
    # one oracle per metric
    path = tmp_path_factory.mktemp("columnar") / "trace.rpb"
    convert_trace(text_path, path)
    return path


def _oracle(source, metric_name: str, name: str = "trace") -> bytes:
    reducer = TraceReducer(create_metric(metric_name))
    return serialize_reduced_trace(
        reducer.reduce_streams(name, rank_segment_streams(source))
    )


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
class TestReduceFrame:
    def test_matches_reduce_segments(self, small_late_sender_trace, metric_name):
        """reduce_frame over adapter frames == reduce_segments, per rank."""
        frame_reducer = TraceReducer(create_metric(metric_name))
        oracle_reducer = TraceReducer(create_metric(metric_name))
        framed = ReducedTrace(name="t", method=frame_reducer.metric.name,
                              threshold=frame_reducer.metric.threshold)
        oracle = ReducedTrace(name="t", method=framed.method, threshold=framed.threshold)
        for rank, frame in rank_frame_streams(small_late_sender_trace):
            framed.ranks.append(frame_reducer.reduce_frame(frame))
        for rank, segments in rank_segment_streams(small_late_sender_trace):
            oracle.ranks.append(oracle_reducer.reduce_segments(segments, rank=rank))
        assert serialize_reduced_trace(framed) == serialize_reduced_trace(oracle)


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
class TestPipelineByteIdentity:
    def test_serial_in_memory(self, small_late_sender_trace, metric_name):
        result = reduce_pipeline(
            small_late_sender_trace,
            create_metric(metric_name),
            PipelineConfig(executor="serial"),
        )
        assert serialize_reduced_trace(result.reduced) == _oracle(
            small_late_sender_trace, metric_name, small_late_sender_trace.name
        )

    def test_serial_text_file(self, text_path, metric_name):
        result = reduce_pipeline(
            str(text_path), create_metric(metric_name), PipelineConfig(executor="serial")
        )
        assert serialize_reduced_trace(result.reduced) == _oracle(
            str(text_path), metric_name, text_path.stem
        )

    def test_serial_rpb_file(self, rpb_path, metric_name):
        result = reduce_pipeline(
            str(rpb_path), create_metric(metric_name), PipelineConfig(executor="serial")
        )
        assert serialize_reduced_trace(result.reduced) == _oracle(
            str(rpb_path), metric_name, rpb_path.stem
        )

    def test_sharded_rpb_file(self, rpb_path, metric_name):
        result = reduce_pipeline(
            str(rpb_path),
            create_metric(metric_name),
            PipelineConfig(executor="thread", workers=2),
        )
        assert result.stats.dispatch == "shard"
        assert serialize_reduced_trace(result.reduced) == _oracle(
            str(rpb_path), metric_name, rpb_path.stem
        )


class TestSweepByteIdentity:
    PLAN = [SweepConfig(m, create_metric(m).threshold) for m in METRIC_NAMES]

    def _check(self, result, source):
        for outcome in result.outcomes:
            assert serialize_reduced_trace(outcome.reduced) == _oracle(
                source, outcome.config.method, result.name
            )

    def test_inline_in_memory(self, small_late_sender_trace):
        self._check(
            sweep_pipeline(small_late_sender_trace, self.PLAN), small_late_sender_trace
        )

    def test_inline_text_file(self, text_path):
        self._check(sweep_pipeline(str(text_path), self.PLAN), str(text_path))

    def test_inline_rpb_file(self, rpb_path):
        self._check(sweep_pipeline(str(rpb_path), self.PLAN), str(rpb_path))

    def test_sharded_rpb_file(self, rpb_path):
        result = sweep_pipeline(
            str(rpb_path), self.PLAN, PipelineConfig(executor="thread", workers=2)
        )
        assert result.stats.dispatch == "shard"
        self._check(result, str(rpb_path))


class TestLazyStreamFrames:
    @pytest.fixture(scope="class")
    def sweep3d_text(self, tmp_path_factory):
        """A trace with many MPI signatures (sweep3d, 32 ranks); late_sender has too few."""
        from repro.experiments.config import build_workload, get_scale

        path = tmp_path_factory.mktemp("lazy") / "sweep3d.txt"
        write_trace(build_workload("sweep3d_32p", get_scale("smoke")).run(), path)
        return str(path)

    def test_text_stream_frames_equal_list_built_frames(self, sweep3d_text):
        """Frames read from a text file hold the segments the record route reads.

        The column reader interns strings in record order, as the ``.rpb``
        encoder does, so the tables are compared by the names and MPI
        parameters the rows resolve to, not by position.
        """
        stream_frames = dict(rank_frame_streams(sweep3d_text))
        for rank, segments in rank_segment_streams(sweep3d_text):
            frame = stream_frames.pop(rank)
            rows = [frame.segment(i) for i in range(frame.n_segments)]
            assert rows == [segment.relative_to_start() for segment in segments]
        assert not stream_frames

    def test_adapter_on_a_lazy_stream_equals_list_built_frames(self, sweep3d_text):
        """Regression: the adapter's by-object MPI intern memo was keyed on
        ``id()`` without pinning the object, so on lazy streams — where each
        segment dies as soon as it is consumed — a fresh ``MpiCallInfo``
        allocated at a dead one's address inherited the wrong table index,
        silently merging distinct MPI signatures.
        """
        from repro.core.frames import RankFrame

        for (rank, lazy), (_, listed) in zip(
            rank_segment_streams(sweep3d_text), rank_segment_streams(sweep3d_text)
        ):
            from_stream = RankFrame.from_segments(rank, lazy)
            from_list = RankFrame.from_segments(rank, list(listed))
            assert from_list.mpi_table == from_stream.mpi_table
            assert from_list.ev_mpi.tobytes() == from_stream.ev_mpi.tobytes()
            assert from_list.ev_starts.tobytes() == from_stream.ev_starts.tobytes()
            assert from_list.strings == from_stream.strings


def _averaged(reduced):
    """Representatives ``iter_avg`` matched at least once: each had a mean written."""
    return sum(int((rank.counts > 1).sum()) for rank in reduced.ranks)


class TestLazyMaterializationStats:
    @pytest.mark.parametrize("method", DISTANCE_METHODS)
    def test_dense_method_materializes_nothing(self, rpb_path, tmp_path, method):
        """A dense reduction builds no ``Segment``, through ``reduce()`` and ``write()``
        alike; a representative read afterwards is the scalar reference's object."""
        config = PipelineConfig(executor="serial")
        result = reduce_pipeline(str(rpb_path), create_metric(method), config)
        _, written = ReductionPipeline(create_metric(method), config).write(
            str(rpb_path), tmp_path / "reduced.txt"
        )
        assert result.stats.segments_materialized == written.segments_materialized == 0
        assert 0 < result.stats.n_stored == written.n_stored < result.stats.n_segments
        assert result.reduced.size_bytes() == (tmp_path / "reduced.txt").stat().st_size
        reference = TraceReducer(create_metric(method)).reduce_streams(
            "trace", rank_segment_streams(str(rpb_path))
        )
        for rank, expected in zip(result.reduced.ranks, reference.ranks):
            assert sum(frame.materialized for frame, _ in rank.chunks) == 0  # sizing built none
            assert stored_view(rank) == stored_view(expected)

    def test_iteration_methods_materialize_nothing(self, rpb_path):
        """``iter_avg`` writes its means into rows of its own, not into objects."""
        config = PipelineConfig(executor="serial")
        result = reduce_pipeline(str(rpb_path), create_metric("iter_k"), config)
        assert result.stats.segments_materialized == 0
        result = reduce_pipeline(str(rpb_path), create_metric("iter_avg"), config)
        assert result.stats.segments_materialized == 0 < _averaged(result.reduced)

    def test_stats_rows_and_registry(self, rpb_path):
        from repro import obs

        recorder = obs.Recorder(label="test")
        with obs.local_recording(recorder):
            result = reduce_pipeline(
                str(rpb_path), create_metric("relDiff"), PipelineConfig(executor="serial")
            )
        labels = [row[0] for row in result.stats.rows()]
        assert "segments materialized (lazy)" in labels
        counter = recorder.registry.counter("pipeline.segments_materialized")
        assert counter.get() == result.stats.segments_materialized

    def test_sweep_stats_rows_and_registry(self, rpb_path):
        from repro import obs

        plan = [SweepConfig("relDiff", create_metric("relDiff").threshold)]
        recorder = obs.Recorder(label="test")
        with obs.local_recording(recorder):
            result = sweep_pipeline(str(rpb_path), plan)
        stats = result.stats
        labels = [row[0] for row in stats.rows()]
        assert "segments materialized (lazy)" in labels
        assert stats.segments_materialized == 0 < stats.n_segments
        assert recorder.registry.counter("sweep.segments_materialized").get() == 0

    def test_sweep_materializes_nothing(self, rpb_path):
        """No config builds a ``Segment``, beside an averaging one neither."""
        dense = [SweepConfig(name, create_metric(name).threshold) for name in DISTANCE_METHODS]
        result = sweep_pipeline(str(rpb_path), dense + [SweepConfig("iter_k", 10)])
        assert result.stats.segments_materialized == 0
        result = sweep_pipeline(str(rpb_path), dense + [SweepConfig("iter_avg")])
        assert result.stats.segments_materialized == 0 < _averaged(result.outcomes[-1].reduced)
