"""Tests for the parallel reduction engine and its instrumentation."""

import pytest

from repro import obs
from repro.core.candidates import MatchCounters
from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.pipeline import engine
from repro.pipeline.engine import PipelineConfig, ReductionPipeline, reduce_pipeline
from repro.pipeline.stats import StageClock
from repro.trace.io import serialize_reduced_trace, write_trace

from tests.support import reference_reduce


@pytest.fixture(params=["serial", "thread", "process"])
def executor(request):
    return request.param


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.executor == "serial"
        assert not config.merge

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            PipelineConfig(executor="gpu")

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            PipelineConfig(workers=0)

    def test_serial_resolves_one_worker(self):
        assert PipelineConfig(executor="serial", workers=8).resolved_workers() == 1

    def test_metric_type_checked(self):
        with pytest.raises(TypeError, match="SimilarityMetric"):
            ReductionPipeline(object())


class TestEngineOutput:
    def test_identical_to_serial_reducer(self, small_late_sender_trace, executor):
        metric_name = "euclidean"
        serial = reference_reduce(create_metric(metric_name), small_late_sender_trace)
        result = reduce_pipeline(
            small_late_sender_trace,
            create_metric(metric_name),
            PipelineConfig(executor=executor, workers=2),
        )
        assert serialize_reduced_trace(result.reduced) == serialize_reduced_trace(serial)
        assert result.reduced.name == small_late_sender_trace.name
        assert result.reduced.method == metric_name

    def test_rank_order_is_deterministic(self, small_dynlb_trace, executor, monkeypatch):
        # A 2-task window over 4 ranks: the loop must collect the oldest
        # result before it submits the third task, and still return rank order.
        monkeypatch.setattr(engine, "_IN_FLIGHT_PER_WORKER", 1)
        result = reduce_pipeline(
            small_dynlb_trace,
            create_metric("relDiff"),
            PipelineConfig(executor=executor, workers=2),
        )
        assert [r.rank for r in result.reduced.ranks] == [0, 1, 2, 3]

    def test_reduces_straight_from_file(self, tmp_path, small_late_sender_trace):
        from repro.benchmarks_ats import late_sender

        workload = late_sender(nprocs=4, iterations=6, seed=3)
        raw = workload.run()
        path = tmp_path / "trace.txt"
        write_trace(raw, path)
        from_file = reduce_pipeline(
            path, create_metric("relDiff"), PipelineConfig(executor="serial")
        )
        in_memory = TraceReducer(create_metric("relDiff")).reduce(raw.segmented())
        # File timestamps are rounded to two decimals, so compare shape only.
        assert from_file.reduced.nprocs == in_memory.nprocs
        assert from_file.reduced.n_segments == in_memory.n_segments
        assert from_file.reduced.name == "trace"

    def test_pickling_pool_path_matches_serial_on_files(self, tmp_path):
        """A forward-only text file reaches process workers as pickled frames."""
        from repro.benchmarks_ats import late_sender

        raw = late_sender(nprocs=4, iterations=6, seed=3).run()
        path = tmp_path / "trace.txt"
        write_trace(raw, path)
        serial = reduce_pipeline(
            path, create_metric("relDiff"), PipelineConfig(executor="serial")
        )
        pooled = reduce_pipeline(
            path, create_metric("relDiff"), PipelineConfig(executor="process", workers=2)
        )
        assert pooled.stats.dispatch == "payload"
        assert serialize_reduced_trace(pooled.reduced) == serialize_reduced_trace(serial.reduced)

    @pytest.mark.parametrize("pooled", ["thread", "process"])
    def test_pooled_frame_trace_ships_its_frames(self, tmp_path, pooled):
        """A ``FrameTrace`` goes to the pool as the frames it already holds:
        neither dispatch nor the dense reduction materializes a segment."""
        from repro.benchmarks_ats import late_sender
        from repro.core.frametrace import FrameTrace

        path = tmp_path / "trace.rpb"
        write_trace(late_sender(nprocs=4, iterations=6, seed=3).run(), path)
        serial = reduce_pipeline(
            FrameTrace.from_file(path), create_metric("relDiff"), PipelineConfig(executor="serial")
        )
        source = FrameTrace.from_file(path)
        result = reduce_pipeline(
            source, create_metric("relDiff"), PipelineConfig(executor=pooled, workers=2)
        )
        assert result.stats.dispatch == "payload"
        assert serialize_reduced_trace(result.reduced) == serialize_reduced_trace(serial.reduced)
        # relDiff is dense: no worker built a segment to reduce, and the source's
        # frames were neither rebuilt from segments nor materialized.
        assert result.stats.segments_materialized == serial.stats.segments_materialized == 0
        assert 0 < result.reduced.n_stored < source.num_segments
        assert source.materialized == 0
        # A process worker's representatives come back as rows of their own
        # (pickling owns them on the worker's copy); a thread's are still rows
        # of the frames it reduced.
        owned = {rank.owned == len(rank.chunks) for rank in result.reduced.ranks if rank.chunks}
        assert owned == {pooled == "process"}

    def test_merge_stage(self, small_late_sender_trace):
        result = reduce_pipeline(
            small_late_sender_trace,
            create_metric("relDiff"),
            PipelineConfig(executor="serial", merge=True),
        )
        assert result.merged is not None
        assert result.merged.n_stored + result.merged.n_duplicates == result.reduced.n_stored
        assert result.stats.merged_stored == result.merged.n_stored
        assert "merge" in result.stats.stage_seconds

    def test_no_merge_by_default(self, small_late_sender_trace):
        result = reduce_pipeline(
            small_late_sender_trace, create_metric("relDiff"), PipelineConfig(executor="serial")
        )
        assert result.merged is None


class TestAutoDowngrade:
    """A pooled executor with one effective worker is pure IPC overhead, so
    the engine silently runs the serial path instead (output unchanged)."""

    @pytest.mark.parametrize("pooled", ["thread", "process"])
    def test_one_worker_pool_downgrades_to_serial(self, small_late_sender_trace, pooled):
        result = reduce_pipeline(
            small_late_sender_trace,
            create_metric("relDiff"),
            PipelineConfig(executor=pooled, workers=1),
        )
        assert result.stats.executor == "serial"
        assert result.stats.requested_executor == pooled
        assert result.stats.downgraded

    def test_downgraded_output_identical(self, small_late_sender_trace):
        serial = reduce_pipeline(
            small_late_sender_trace, create_metric("euclidean"), PipelineConfig(executor="serial")
        )
        downgraded = reduce_pipeline(
            small_late_sender_trace,
            create_metric("euclidean"),
            PipelineConfig(executor="process", workers=1),
        )
        assert serialize_reduced_trace(downgraded.reduced) == serialize_reduced_trace(
            serial.reduced
        )

    def test_single_rank_trace_downgrades_even_with_many_workers(self, small_late_sender_trace):
        from repro.trace.trace import SegmentedTrace

        one_rank = SegmentedTrace(
            name="one_rank", ranks=[small_late_sender_trace.ranks[0]]
        )
        result = reduce_pipeline(
            one_rank, create_metric("relDiff"), PipelineConfig(executor="process", workers=4)
        )
        assert result.stats.executor == "serial"
        assert result.stats.downgraded

    def test_multi_worker_pool_not_downgraded(self, small_late_sender_trace):
        result = reduce_pipeline(
            small_late_sender_trace,
            create_metric("relDiff"),
            PipelineConfig(executor="thread", workers=2),
        )
        assert result.stats.executor == "thread"
        assert not result.stats.downgraded

    def test_serial_is_never_marked_downgraded(self, small_late_sender_trace):
        result = reduce_pipeline(
            small_late_sender_trace, create_metric("relDiff"), PipelineConfig(executor="serial")
        )
        assert result.stats.executor == "serial"
        assert not result.stats.downgraded

    def test_downgrade_noted_in_stats_rows(self, small_late_sender_trace):
        result = reduce_pipeline(
            small_late_sender_trace,
            create_metric("relDiff"),
            PipelineConfig(executor="process", workers=1),
        )
        executor_row = next(row for row in result.stats.rows() if row[0] == "executor")
        assert "auto-downgraded" in executor_row[1]


class TestStats:
    def test_counters_filled(self, small_late_sender_trace, executor):
        result = reduce_pipeline(
            small_late_sender_trace,
            create_metric("relDiff"),
            PipelineConfig(executor=executor, workers=2),
        )
        stats = result.stats
        assert stats.nprocs == 4
        assert stats.n_segments == result.reduced.n_segments
        assert stats.n_stored == result.reduced.n_stored
        assert stats.total_seconds > 0.0
        assert stats.segments_per_second > 0.0
        assert stats.store.lookups == stats.n_segments
        assert stats.store.hits == stats.n_possible_matches
        assert stats.stage_seconds.get("reduce", 0.0) >= 0.0
        # Kernel invocations, not segments: the batch step makes at most one
        # call per (rank, key) group plus one per new representative, over no
        # more pairs than the scalar reference's scan evaluates on the same input.
        groups = {
            (rank.rank, segment.relative_to_start().structure())
            for rank in small_late_sender_trace.ranks
            for segment in rank.segments
        }
        assert 0 < stats.match.calls <= stats.n_stored + len(groups)
        scan = MatchCounters()
        scanned = reference_reduce(create_metric("relDiff"), small_late_sender_trace, scan)
        assert scan.calls == scanned.n_possible_matches == stats.n_possible_matches
        assert stats.match.calls <= stats.match.rows_compared <= scan.rows_compared
        assert stats.match.seconds >= 0.0

    def test_match_rate_matches_degree_of_matching(self, small_late_sender_trace):
        result = reduce_pipeline(
            small_late_sender_trace, create_metric("relDiff"), PipelineConfig(executor="serial")
        )
        assert result.stats.match_rate == result.reduced.degree_of_matching()

    def test_rows_render(self, small_late_sender_trace):
        result = reduce_pipeline(
            small_late_sender_trace, create_metric("relDiff"), PipelineConfig(executor="serial")
        )
        rows = result.stats.rows()
        assert ["ranks", 4] in rows
        assert any(row[0] == "segments / second" for row in rows)

    def test_stage_seconds_are_the_recorded_spans(self, small_late_sender_trace):
        """Each reported stage has one clock: the span the run recorded for it."""
        # A pooled in-memory run with --merge goes through every stage.
        config = PipelineConfig(executor="thread", workers=2, merge=True)
        with obs.recording("test") as recorder:
            stats = reduce_pipeline(
                small_late_sender_trace, create_metric("relDiff"), config
            ).stats
        spans: dict = {}
        for record in recorder.spans:
            spans[record.name] = spans.get(record.name, 0.0) + record.duration_ns / 1e9
        assert list(stats.stage_seconds) == ["ingest", "reduce", "merge"]
        assert stats.total_seconds == pytest.approx(spans["pipeline.run"])
        assert stats.stage_seconds["merge"] == pytest.approx(spans["pipeline.merge"])
        assert stats.stage_seconds["ingest"] == pytest.approx(spans["pipeline.ingest"])
        # Payload frames are built inside the reduce stage; the two are
        # reported disjointly.
        assert stats.stage_seconds["reduce"] == pytest.approx(
            spans["pipeline.reduce"] - spans["pipeline.ingest"]
        )

    def test_stage_clock_reads_only_the_spans_it_opened(self):
        with obs.recording("test") as recorder:
            clock = StageClock("pipeline")
            with clock.span("run"):
                # Someone else's span on the same recorder, named like a stage.
                with recorder.span("pipeline.reduce"):
                    pass
                for _ in range(2):
                    with clock.span("ingest"):
                        pass
        ingest = [s.duration_ns for s in recorder.spans if s.name == "pipeline.ingest"]
        seconds = clock.seconds()
        assert list(seconds) == ["ingest", "run"]
        assert len(ingest) == 2 and seconds["ingest"] == pytest.approx(sum(ingest) / 1e9)

    def test_stage_seconds_populated_with_telemetry_off(self, small_late_sender_trace):
        assert not obs.enabled()
        stats = reduce_pipeline(
            small_late_sender_trace,
            create_metric("relDiff"),
            PipelineConfig(executor="serial", merge=True),
        ).stats
        assert list(stats.stage_seconds) == ["reduce", "merge"]
        assert 0.0 < stats.stage_seconds["reduce"] <= stats.total_seconds

    def test_empty_run(self):
        from repro.trace.trace import SegmentedTrace

        result = reduce_pipeline(
            SegmentedTrace(name="empty"), create_metric("relDiff"),
            PipelineConfig(executor="serial"),
        )
        assert result.reduced.nprocs == 0
        assert result.stats.match_rate == 1.0
        assert result.stats.segments_per_second >= 0.0
