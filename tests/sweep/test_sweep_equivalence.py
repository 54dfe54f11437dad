"""Sweep-vs-serial equivalence: every metric, every source, every dispatch.

The acceptance bar for a sweep: for each config of a grid, the reduced trace
must serialize **byte-identical** to running that config alone through the
scalar reference reducer (``tests.support.reference_reduce``) — whether the
grid is swept inline over an in-memory trace or an indexed ``.rpb`` file, as
``.rpb`` shard batches on a pool, or as pickled frames of an in-memory or
text source on a pool (``payload``) — and the evaluation rows must equal the
serial path field for field.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import reducer as reducer_module
from repro.core.candidates import MatchCounters, RepresentativeStore
from repro.core.frames import RankFrame
from repro.core.metrics import DEFAULT_THRESHOLDS, METRIC_NAMES, THRESHOLD_STUDY, create_metric
from repro.core.reduced import ReducedRankTrace, ReducedTrace
from repro.core.reducer import ReductionState, TraceReducer, step_families
from repro.evaluation.runner import evaluate_grid, evaluate_method, result_from_reduced
from repro.fuzz.executor import plan_cases
from repro.fuzz.generators import generate_case
from repro.pipeline.engine import PipelineConfig, sweep_pipeline
from repro.sweep import SweepPlan
from repro.trace.io import read_trace, serialize_reduced_trace, write_trace
from repro.trace.trace import SegmentedRankTrace, SegmentedTrace

from tests.conftest import make_segment
from tests.support import RESULT_FIELDS, led_by_a_stranger, reference_reduce


#: Every metric with a small threshold grid: two thresholds per threshold
#: method (strict + loose, from the paper's study values) plus iter_avg.
def _full_grid() -> SweepPlan:
    specs = []
    for method in METRIC_NAMES:
        if method == "iter_avg":
            specs.append(method)
        else:
            values = THRESHOLD_STUDY[method]
            specs.append((method, float(values[0])))
            specs.append((method, float(values[-2])))
    return SweepPlan(specs)


@pytest.fixture(scope="module")
def raw_trace():
    from repro.benchmarks_ats import late_sender

    return late_sender(nprocs=4, iterations=6, seed=3).run()


@pytest.fixture(scope="module")
def segmented(raw_trace):
    return raw_trace.segmented()


@pytest.fixture(scope="module")
def rpb_file(raw_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "trace.rpb"
    write_trace(raw_trace, path)
    return path


@pytest.fixture(scope="module")
def text_file(raw_trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "trace.txt"
    write_trace(raw_trace, path)
    return path


@pytest.fixture(scope="module")
def plan():
    return _full_grid()


def _oracle_bytes(segmented, config):
    return serialize_reduced_trace(reference_reduce(config.create(), segmented))


class TestInMemoryEquivalence:
    def test_every_config_byte_identical(self, segmented, plan):
        result = sweep_pipeline(segmented, plan)
        assert result.stats.dispatch == "inline"
        assert len(result) == plan.n_configs
        for outcome in result:
            assert serialize_reduced_trace(outcome.reduced) == _oracle_bytes(
                segmented, outcome.config
            ), f"sweep diverged from serial oracle for {outcome.config.describe()}"

    def test_outcomes_in_plan_order(self, segmented, plan):
        result = sweep_pipeline(segmented, plan)
        assert [o.config.key for o in result] == [c.key for c in plan.configs]

    def test_segments_streamed_once(self, segmented, plan):
        result = sweep_pipeline(segmented, plan)
        n_segments = sum(len(r.segments) for r in segmented.ranks)
        assert result.stats.n_segments == n_segments
        # Every config still accounts for the full stream in its own output.
        for outcome in result:
            assert outcome.reduced.n_segments == n_segments

    def test_vector_sharing_happened(self, segmented, plan):
        result = sweep_pipeline(segmented, plan)
        assert result.stats.vector_builds_saved > 0
        assert result.stats.sharing_factor > 1.0


class TestFileSourceEquivalence:
    def test_rpb_inline_byte_identical(self, raw_trace, rpb_file, plan):
        segmented = raw_trace.segmented()
        result = sweep_pipeline(rpb_file, plan, PipelineConfig(executor="serial"))
        assert result.stats.dispatch == "inline"
        for outcome in result:
            assert serialize_reduced_trace(outcome.reduced) == _oracle_bytes(
                segmented, outcome.config
            )

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_rpb_sharded_byte_identical(self, raw_trace, rpb_file, plan, executor):
        segmented = raw_trace.segmented()
        result = sweep_pipeline(
            rpb_file, plan, PipelineConfig(executor=executor, workers=2)
        )
        assert result.stats.dispatch == "shard"
        for outcome in result:
            assert serialize_reduced_trace(outcome.reduced) == _oracle_bytes(
                segmented, outcome.config
            )

    def test_sharded_stats_count_segments_once_per_rank(self, rpb_file, segmented, plan):
        result = sweep_pipeline(
            rpb_file, plan, PipelineConfig(executor="thread", workers=2)
        )
        assert result.stats.n_segments == sum(len(r.segments) for r in segmented.ranks)
        assert result.stats.n_ranks == len(segmented.ranks)


class TestPayloadEquivalence:
    """Sources only this process can read reach a pool as pickled frames."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_in_memory_byte_identical(self, segmented, plan, executor):
        result = sweep_pipeline(segmented, plan, PipelineConfig(executor=executor, workers=2))
        assert result.stats.dispatch == "payload"
        for outcome in result:
            assert serialize_reduced_trace(outcome.reduced) == _oracle_bytes(
                segmented, outcome.config
            )

    def test_text_file_byte_identical(self, text_file, plan):
        # The text format keeps two decimals: its reference is the file read back.
        segmented = read_trace(text_file).segmented()
        result = sweep_pipeline(text_file, plan, PipelineConfig(executor="thread", workers=2))
        assert result.stats.dispatch == "payload"
        assert result.stats.n_ranks == len(segmented.ranks)
        for outcome in result:
            assert serialize_reduced_trace(outcome.reduced) == _oracle_bytes(
                segmented, outcome.config
            )


#: Pooled cases -> (source fixture, the dispatch a pool gives it).
POOLED = {
    "payload": ("segmented", "payload"),
    "payload_text": ("text_file", "payload"),
    "shard": ("rpb_file", "shard"),
}


class TestMixedGridEquivalence:
    """Two feature families in one grid: a distance metric and a counting method."""

    PLAN = SweepPlan.from_grid(
        ["euclidean", "iter_k"], thresholds_per_method={"euclidean": (0.1, 0.4), "iter_k": (2,)}
    )

    def _check(self, result, segmented):
        for outcome in result:
            reference = reference_reduce(outcome.config.create(), segmented)
            assert serialize_reduced_trace(outcome.reduced) == serialize_reduced_trace(
                reference
            )

    def test_matches_reference_per_config(self, segmented):
        self._check(sweep_pipeline(segmented, self.PLAN), segmented)

    @pytest.mark.parametrize("case", POOLED)
    def test_pooled_matches_reference_per_config(self, request, raw_trace, case):
        fixture, dispatch = POOLED[case]
        source = request.getfixturevalue(fixture)
        config = PipelineConfig(executor="thread", workers=2)
        result = sweep_pipeline(source, self.PLAN, config)
        assert result.stats.dispatch == dispatch
        # The text format keeps two decimals: its reference is the file read back.
        segmented = read_trace(source) if fixture == "text_file" else raw_trace
        self._check(result, segmented.segmented())


#: The seven distance methods: manhattan, euclidean and chebyshev are three
#: kernels of one feature family, relDiff and absDiff two of another.
DISTANCE_NAMES = [name for name in METRIC_NAMES if name not in ("iter_k", "iter_avg")]

#: From strict (every leader round of a key empty: the all-pairs resolve
#: fires) to loose (the first leader takes its key), times each default.
SCALES = (1e-4, 1 / 50, 1.0, 4.0)


def _segments(rank, times_of_rows, context):
    """One segment per row of event (start, end) pairs and an end, back to back."""
    segments, clock = [], 0.0
    for times in times_of_rows:
        pairs = [(f"f{e}", times[2 * e], times[2 * e + 1]) for e in range(len(times) // 2)]
        segment = make_segment(context, pairs, end=times[-1], rank=rank)
        segments.append(segment.shifted(clock))
        clock += float(np.ceil(times[-1])) + 5.0
    return segments


def _jittered_key(rng, rank, context, events, n):
    """A key of ``n`` rows behind a stranger: exact repeats and rows jittered
    from 1e-5 to 2x, so every threshold of :data:`SCALES` cuts it elsewhere."""
    steps = rng.integers(5, 60, size=2 * events + 1).astype(float)
    rows = [np.cumsum(steps * 1e3)]
    for _ in range(n):
        jitter = rng.choice([0.0, 0.0, 1e-5, 1e-3, 2e-2, 0.1, 0.5, 2.0])
        rows.append(np.cumsum(steps * (1.0 + jitter * rng.random(steps.size))))
    return _segments(rank, rows, context)


def _interleaved(rng, keys):
    """The keys' segments in one rank, each key's in order, the keys shuffled together."""
    order = rng.permutation(np.repeat(np.arange(len(keys)), [len(k) for k in keys]))
    heads = [iter(key) for key in keys]
    out, clock = [], 0.0
    for k in order.tolist():
        segment = next(heads[k])
        shifted = segment.shifted(clock - segment.start)
        out.append(dataclasses.replace(shifted, index=len(out)))
        clock = float(np.ceil(shifted.end)) + 5.0
    return out


@pytest.fixture(scope="module")
def shared_rows_trace():
    """Three ranks that reach every branch of the shared leader rows:

    * rank 0: three jittered keys of 31 rows, interleaved;
    * rank 1: keys 127 to 141 wide, past NumPy's pairwise-summation block
      of 128 (the wavelets pad them to 256);
    * rank 2: one key of 400 rows — more pairs than one :class:`LeaderRows`
      may hold — of four shapes, each row an exact repeat of one.
    """
    rng = np.random.default_rng(32)
    keys = [_jittered_key(rng, 0, f"c{k}", events, 30) for k, events in enumerate((1, 2, 4))]
    wide = [_jittered_key(rng, 1, f"w{events}", events, 13) for events in (63, 64, 65, 70)]
    shapes = [np.cumsum(rng.integers(5, 60, size=5).astype(float)) * 3.0**k for k in range(4)]
    deep = _segments(2, [shapes[i % 4] for i in range(400)], "deep")
    ranks = [
        SegmentedRankTrace(0, _interleaved(rng, keys)),
        SegmentedRankTrace(1, _interleaved(rng, wide)),
        SegmentedRankTrace(2, _interleaved(rng, [deep])),
    ]
    return SegmentedTrace("shared-rows", ranks)


def _assert_each_config_is_the_reference(result, segmented):
    for outcome in result:
        want = serialize_reduced_trace(reference_reduce(outcome.config.create(), segmented))
        assert serialize_reduced_trace(outcome.reduced) == want, outcome.config.describe()


@pytest.fixture
def shared_keys(monkeypatch):
    """The depth of every key a :class:`LeaderRows` was built for that keeps its rows."""
    depths = []

    class Counted(reducer_module.LeaderRows):
        __slots__ = ()

        def __init__(self, metric, rows, probes, shared):
            if shared:
                depths.append(len(rows))
            super().__init__(metric, rows, probes, shared)

    monkeypatch.setattr(reducer_module, "LeaderRows", Counted)
    return depths


class TestSharedLeaderRows:
    """Configs of one kernel share its rows: every config stays the reference's."""

    PLAN = SweepPlan(
        [(name, DEFAULT_THRESHOLDS[name] * scale) for name in DISTANCE_NAMES for scale in SCALES]
    )

    def test_every_distance_config_is_the_reference(self, shared_rows_trace, shared_keys):
        result = sweep_pipeline(shared_rows_trace, self.PLAN)
        assert result.stats.n_families == 4
        _assert_each_config_is_the_reference(result, shared_rows_trace)
        # Each of the seven kernels shared every key but the deep one.
        assert sorted(set(shared_keys)) == [14, 31]
        assert len(shared_keys) == 7 * (3 + 4)

    def test_a_smaller_bound_falls_back_key_by_key(
        self, shared_rows_trace, shared_keys, monkeypatch
    ):
        # One pair short of a 31-row key: rank 0's keys resolve on their own
        # in the same grid whose 14-row keys share.
        monkeypatch.setattr(reducer_module, "_SHARED_PAIRS", 31 * 30 // 2 - 1)
        result = sweep_pipeline(shared_rows_trace, self.PLAN)
        _assert_each_config_is_the_reference(result, shared_rows_trace)
        assert shared_keys == [14] * (7 * 4)
        # On ranks 0 and 2, whose keys share nothing, each config pays what it pays alone.
        for rank in (shared_rows_trace.ranks[0], shared_rows_trace.ranks[2]):
            frame = RankFrame.from_segments(rank.rank, rank.segments)
            grid = [
                [
                    ReductionState(
                        config.create(),
                        ReducedRankTrace(rank.rank),
                        RepresentativeStore(),
                        MatchCounters(),
                    )
                    for config in family.configs
                ]
                for family in self.PLAN.families
            ]
            step_families(frame, grid)
            for state in (state for family in grid for state in family):
                solo = MatchCounters()
                TraceReducer(state.metric).reduce_frame(frame, match_counters=solo)
                counts = (state.counters.calls, state.counters.rows_compared)
                assert counts == (solo.calls, solo.rows_compared), state.metric

    @pytest.mark.parametrize("seed", [11, 0, 1])
    def test_threshold_edge_cases(self, seed):
        # Each case sits a probe on its (method, threshold)'s boundary, and a
        # stranger leads each key so the first config's rounds stop paying.
        for case in plan_cases(seed, 8, families=["threshold_edge"]):
            method, threshold = case.config.method, case.config.threshold
            specs = [
                (name, DEFAULT_THRESHOLDS[name] * scale)
                for name in DISTANCE_NAMES
                for scale in (1 / 50, 4.0)
            ]
            # The case's own threshold and the doubles either side of it.
            edges = (threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, np.inf))
            specs += [(method, t) for t in edges]
            for rank in generate_case(case.spec).segmented().ranks:
                segments = led_by_a_stranger(rank.segments)
                trace = SegmentedTrace("edge", [SegmentedRankTrace(0, segments)])
                _assert_each_config_is_the_reference(sweep_pipeline(trace, SweepPlan(specs)), trace)

    def test_a_duplicated_threshold_reads_the_rows_the_first_filled(self, shared_rows_trace):
        # A plan drops a repeated config; a state list may hold one.  At a
        # strict threshold the first state's resolve fills every row of each
        # key, so its twin makes no kernel call, and both keep the bytes.
        metrics = [create_metric("euclidean", 1e-4) for _ in range(2)]
        metrics.append(create_metric("manhattan", 1e-4))
        for rank in shared_rows_trace.ranks[:2]:
            solo_calls = 0
            frame = RankFrame.from_segments(rank.rank, rank.segments)
            states = [
                ReductionState(
                    metric, ReducedRankTrace(rank.rank), RepresentativeStore(), MatchCounters()
                )
                for metric in metrics
            ]
            step_families(frame, [states])
            for state in states:
                counters = MatchCounters()
                solo = TraceReducer(state.metric).reduce_frame(frame, match_counters=counters)
                solo_calls += counters.calls
                scanned = TraceReducer(state.metric).reduce_segments(rank.segments, rank=rank.rank)
                got, want = (
                    serialize_reduced_trace(ReducedTrace("t", "m", None, [reduced]))
                    for reduced in (state.reduced, scanned)
                )
                assert got == want
            first, twin, other = (state.counters.calls for state in states)
            assert first > 0 and twin == 0 and other > 0
            assert first + twin + other < solo_calls


class TestEvaluationRows:
    @pytest.fixture(scope="class")
    def prepared(self, small_late_sender_prepared):
        return small_late_sender_prepared  # of the same workload as ``raw_trace``

    def test_grid_rows_equal_reference_rows(self, prepared, segmented, plan):
        """Sweep rows == per-config loop rows == criteria of the reference's bytes."""
        sweep_rows = evaluate_grid(prepared, plan, backend="sweep")
        serial_rows = evaluate_grid(prepared, plan, backend="serial")
        assert len(sweep_rows) == len(serial_rows) == plan.n_configs
        for config, swept, serial in zip(plan.configs, sweep_rows, serial_rows):
            want = result_from_reduced(
                prepared, reference_reduce(config.create(), segmented), keep_comparison=False
            )
            for name in RESULT_FIELDS:
                assert getattr(swept, name) == getattr(want, name), (config.key, name)
                assert getattr(serial, name) == getattr(want, name), (config.key, name)

    def test_grid_rows_from_rpb_shards_equal_serial_rows(
        self, prepared, rpb_file, plan
    ):
        sweep_rows = sweep_pipeline(
            rpb_file, plan, PipelineConfig(executor="process", workers=2), name=prepared.name
        ).evaluation_results(prepared)
        serial_rows = evaluate_grid(prepared, plan, backend="serial")
        for got, want in zip(sweep_rows, serial_rows):
            assert got.pct_file_size == want.pct_file_size
            assert got.approx_distance_us == want.approx_distance_us

    def test_unknown_backend_rejected(self, prepared, plan):
        with pytest.raises(ValueError, match="backend"):
            evaluate_grid(prepared, plan, backend="quantum")


class TestStudies:
    """The experiment drivers' shared pass equals one independent pass per config."""

    def test_threshold_study_agrees_with_the_per_config_loop(self):
        from repro.experiments.config import prepared_workload
        from repro.experiments.thresholds import threshold_study

        thresholds = (10.0, 1e4)
        swept = threshold_study(
            "absDiff", workloads=("late_sender",), thresholds=thresholds, scale="smoke"
        )
        serial = evaluate_grid(
            prepared_workload("late_sender", "smoke"),
            [("absDiff", t) for t in thresholds],
            backend="serial",
        )
        for got, want in zip(swept["late_sender"], serial, strict=True):
            assert got.threshold == want.threshold
            assert got.pct_file_size == want.pct_file_size
            assert got.approx_distance_us == want.approx_distance_us

    def test_threshold_study_keeps_duplicate_thresholds(self):
        """Repeated thresholds still yield one row per requested value."""
        from repro.experiments.thresholds import threshold_study

        study = threshold_study(
            "absDiff",
            workloads=("late_sender",),
            thresholds=(10.0, 10.0, 1e3),
            scale="smoke",
        )
        rows = study["late_sender"]
        assert [r.threshold for r in rows] == [10.0, 10.0, 1e3]
        assert rows[0].pct_file_size == rows[1].pct_file_size

    def test_comparative_study_keeps_duplicate_methods(self):
        from repro.experiments.comparative import comparative_study

        results = comparative_study(
            ("late_sender",), ("relDiff", "relDiff", "iter_avg"), scale="smoke"
        )
        assert [r.method for r in results] == ["relDiff", "relDiff", "iter_avg"]

    def test_comparative_study_agrees_with_the_per_method_loop(self):
        from repro.experiments.comparative import comparative_study
        from repro.experiments.config import prepared_workload

        methods = ("relDiff", "euclidean", "iter_avg")
        swept = comparative_study(("late_sender",), methods, scale="smoke")
        prepared = prepared_workload("late_sender", "smoke")
        serial = [evaluate_method(prepared, create_metric(method)) for method in methods]
        assert [r.method for r in swept] == list(methods)
        for got, want in zip(swept, serial, strict=True):
            assert got.method == want.method
            assert got.pct_file_size == want.pct_file_size
            assert got.degree_of_matching == want.degree_of_matching
            assert got.trends_retained == want.trends_retained
