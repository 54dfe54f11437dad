"""Ingestion equivalence: identical reduction from memory, text, and binary.

The acceptance bar for the columnar binary format: for every similarity
method, the pipeline's reduced-trace serialization must be byte-identical
whether it ingests

* the in-memory trace,
* the text file written from it, or
* the binary (``.rpb``) file converted from that text file,

and binary file sources must reach pool workers as ``(path, ranks)`` shard
tasks, never as pickled rank payloads.

Two reference chains are used because the text format quantizes timestamps
to two decimals: the *lossless* chain compares the raw in-memory trace
against the binary file written directly from it (exact float64 round trip),
and the *quantized* chain compares the text file, the binary file converted
from it, and the read-back in-memory trace against each other.
"""

from pathlib import Path

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.pipeline.engine import PipelineConfig, reduce_pipeline
from repro.trace import binio
from repro.trace.formats import convert_trace
from repro.trace.io import read_trace, serialize_reduced_trace, write_trace


@pytest.fixture(scope="module")
def trace():
    return late_sender(nprocs=4, iterations=6, seed=3).run()


@pytest.fixture(scope="module")
def trace_files(trace, tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest")
    text = root / "trace.txt"
    rpb_exact = root / "exact.rpb"
    rpb_converted = root / "converted.rpb"
    write_trace(trace, text)
    write_trace(trace, rpb_exact)
    convert_trace(text, rpb_converted)
    return {"text": text, "rpb_exact": rpb_exact, "rpb_converted": rpb_converted}


def _reduce_bytes(source, metric_name, config=None):
    result = reduce_pipeline(
        source, create_metric(metric_name), config or PipelineConfig(executor="serial")
    )
    return serialize_reduced_trace(result.reduced), result.stats


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
class TestEveryMetricEverySource:
    def test_binary_file_matches_in_memory_exactly(self, trace, trace_files, metric_name):
        # Lossless chain: .rpb written straight from the raw trace preserves
        # float64 timestamps, so its reduction matches the in-memory one.
        reference, _ = _reduce_bytes(trace, metric_name)
        from_file, _ = _reduce_bytes(trace_files["rpb_exact"], metric_name)
        assert from_file == reference

    def test_text_and_converted_binary_match(self, trace_files, metric_name):
        # Quantized chain: the text file and the binary converted from it
        # hold the same (two-decimal) values, as does the read-back trace.
        in_memory, _ = _reduce_bytes(read_trace(trace_files["text"]), metric_name)
        from_text, _ = _reduce_bytes(trace_files["text"], metric_name)
        from_rpb, _ = _reduce_bytes(trace_files["rpb_converted"], metric_name)
        assert from_text == in_memory
        assert from_rpb == in_memory


class TestShardDispatch:
    def test_binary_process_pool_uses_shards(self, trace, trace_files):
        reference, _ = _reduce_bytes(trace, "relDiff")
        got, stats = _reduce_bytes(
            trace_files["rpb_exact"],
            "relDiff",
            PipelineConfig(executor="process", workers=2),
        )
        assert got == reference
        assert stats.dispatch == "shard"
        assert stats.executor == "process"

    def test_binary_thread_pool_uses_shards(self, trace, trace_files):
        reference, _ = _reduce_bytes(trace, "relDiff")
        got, stats = _reduce_bytes(
            trace_files["rpb_exact"],
            "relDiff",
            PipelineConfig(executor="thread", workers=2),
        )
        assert got == reference
        assert stats.dispatch == "shard"

    def test_text_pool_still_pickles_payloads(self, trace_files):
        _, stats = _reduce_bytes(
            trace_files["text"],
            "relDiff",
            PipelineConfig(executor="thread", workers=2),
        )
        assert stats.dispatch == "payload"

    def test_serial_binary_is_inline(self, trace_files):
        _, stats = _reduce_bytes(trace_files["rpb_exact"], "relDiff")
        assert stats.dispatch == "inline"

    def test_single_rank_binary_downgrades_to_serial(self, tmp_path):
        from repro.trace.trace import Trace

        pair = late_sender(nprocs=2, iterations=3, seed=5).run()
        single = Trace(name="one_rank", ranks=pair.ranks[:1])
        path = tmp_path / "one.rpb"
        write_trace(single, path)
        _, stats = _reduce_bytes(
            path, "relDiff", PipelineConfig(executor="process", workers=4)
        )
        # The footer index reveals the single rank up front, so the engine
        # skips the pool entirely (text files can't know this in advance).
        assert stats.executor == "serial"
        assert stats.dispatch == "inline"
        assert stats.downgraded


SOURCE_KINDS = ("segmented", "trace", "frames", "text", "rpb")


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("kind", SOURCE_KINDS)
class TestEverySourceEveryExecutor:
    """Source kind × executor: the bytes are the segment-at-a-time oracle's,
    and each source takes the one dispatch shape its kind forces."""

    # iter_avg mutates its stored representatives, so it would also catch a
    # pooled path that lets two ranks share one.
    @pytest.mark.parametrize("metric_name", ["euclidean", "iter_avg"])
    def test_bytes_and_dispatch(self, trace, trace_files, kind, executor, metric_name):
        from repro.core.frametrace import FrameTrace
        from repro.core.reducer import TraceReducer
        from repro.pipeline.stream import rank_segment_streams

        source = {
            "segmented": lambda: trace.segmented(),
            "trace": lambda: trace,
            "frames": lambda: FrameTrace.from_file(trace_files["rpb_exact"], name=trace.name),
            "text": lambda: trace_files["text"],
            "rpb": lambda: trace_files["rpb_exact"],
        }[kind]()
        # The text file quantizes timestamps, so its oracle reads the file.
        oracle_source = trace_files["text"] if kind == "text" else trace
        oracle = TraceReducer(create_metric(metric_name)).reduce_streams(
            "t", rank_segment_streams(oracle_source)
        )
        result = reduce_pipeline(
            source,
            create_metric(metric_name),
            PipelineConfig(executor=executor, workers=2),
            name="t",
        )
        assert serialize_reduced_trace(result.reduced) == serialize_reduced_trace(oracle)
        if executor == "serial":
            assert result.stats.dispatch == "inline"
        else:
            assert result.stats.dispatch == ("shard" if kind == "rpb" else "payload")
        # The records are sized where their columns were at hand, whatever
        # carried the frames to the task that reduced them: every source but
        # an already segmented one reaches the frames as record columns.
        sized = binio.text_bytes(trace_files["rpb_exact"])
        assert sized == Path(trace_files["text"]).stat().st_size
        assert result.stats.text_bytes == (0 if kind == "segmented" else sized)


class TestEvaluationFromFiles:
    def test_criteria_identical_across_formats(self, trace, trace_files):
        from repro.evaluation.runner import PreparedWorkload, evaluate_method

        prepared_text = PreparedWorkload.from_file(trace_files["text"])
        prepared_rpb = PreparedWorkload.from_file(
            trace_files["rpb_converted"], name=prepared_text.name
        )
        assert prepared_text.full_bytes == prepared_rpb.full_bytes
        metric = create_metric("euclidean")
        a = evaluate_method(prepared_text, metric, keep_comparison=False)
        b = evaluate_method(prepared_rpb, metric, keep_comparison=False)
        assert (a.pct_file_size, a.degree_of_matching, a.approx_distance_us) == (
            b.pct_file_size,
            b.degree_of_matching,
            b.approx_distance_us,
        )
        # The whole evaluation ran on the columns: preparation (analysis +
        # full size), the dense reduction, and the four criteria built no
        # segment at all.
        for prepared, result in ((prepared_text, a), (prepared_rpb, b)):
            assert 0 < result.n_stored < prepared.segmented.num_segments
            assert prepared.segmented.materialized == 0

    def test_sharded_pipeline_reduction_gives_the_same_criteria(self, trace_files):
        from repro.evaluation.runner import (
            PreparedWorkload,
            evaluate_method,
            result_from_reduced,
        )
        from repro.pipeline.engine import ReductionPipeline

        prepared = PreparedWorkload.from_file(trace_files["rpb_converted"])
        serial = evaluate_method(prepared, create_metric("relDiff"), keep_comparison=False)
        pipeline = ReductionPipeline(
            create_metric("relDiff"), PipelineConfig(executor="process", workers=2)
        )
        sharded = result_from_reduced(
            prepared,
            pipeline.reduce(trace_files["rpb_converted"]).reduced,
            keep_comparison=False,
        )
        assert sharded.pct_file_size == serial.pct_file_size
        assert sharded.degree_of_matching == serial.degree_of_matching
        assert sharded.reduced_bytes == serial.reduced_bytes
