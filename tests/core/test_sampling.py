"""Tests for the trace-sampling extension (paper future work): the
strategies' scalar statement, and the core's step held to it on every
pathway that reduces frames."""

import pytest

from repro.core.frames import RankFrame
from repro.core.reconstruct import reconstruct_rank
from repro.core.reduced import ReducedTrace
from repro.core.reducer import TraceReducer, reduce_trace
from repro.core.sampling import PeriodicSampling, RandomSampling
from repro.pipeline.engine import PipelineConfig, ReductionPipeline, sweep_pipeline
from repro.service.checkpoint import restore_state, session_state
from repro.service.session import ReductionSession, SessionConfig
from repro.sweep.plan import SweepConfig, SweepPlan
from repro.trace.io import serialize_reduced_trace
from repro.util.rng import rng_for

from tests.core.test_reducer import _iteration_segments


class TestPeriodicSampling:
    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSampling(0)

    def test_period_one_keeps_everything(self):
        segments = _iteration_segments([50.0] * 8)
        reduced = TraceReducer(PeriodicSampling(1)).reduce_segments(segments)
        assert reduced.n_stored == 8
        assert reduced.n_matches == 0

    def test_period_keeps_every_nth(self):
        segments = _iteration_segments([50.0] * 10)
        reduced = TraceReducer(PeriodicSampling(4)).reduce_segments(segments)
        # executions 0, 4, 8 are kept
        assert reduced.n_stored == 3
        assert reduced.n_matches == 7

    def test_first_execution_always_kept(self):
        segments = _iteration_segments([50.0])
        reduced = TraceReducer(PeriodicSampling(100)).reduce_segments(segments)
        assert reduced.n_stored == 1

    def test_reconstruction_fills_with_latest_sample(self):
        segments = _iteration_segments([10.0, 20.0, 30.0, 40.0])
        reduced = TraceReducer(PeriodicSampling(2)).reduce_segments(segments)
        rebuilt = reconstruct_rank(reduced)
        # execution 3 (value 40) is filled with the latest kept sample (value 30)
        assert rebuilt.segments[3].events[0].end == pytest.approx(
            rebuilt.segments[3].start + 30.0
        )

    def test_describe(self):
        assert PeriodicSampling(10).describe() == "sample_period(10)"


class TestRandomSampling:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            RandomSampling(1.5)

    def test_rate_one_keeps_everything(self):
        segments = _iteration_segments([50.0] * 10)
        reduced = TraceReducer(RandomSampling(1.0, seed=1)).reduce_segments(segments)
        assert reduced.n_stored == 10

    def test_rate_zero_keeps_only_first(self):
        segments = _iteration_segments([50.0] * 10)
        reduced = TraceReducer(RandomSampling(0.0, seed=1)).reduce_segments(segments)
        assert reduced.n_stored == 1

    def test_intermediate_rate_keeps_roughly_that_fraction(self):
        segments = _iteration_segments([50.0] * 200)
        reduced = TraceReducer(RandomSampling(0.25, seed=3)).reduce_segments(segments)
        kept = reduced.n_stored
        assert 20 <= kept <= 80  # 200 × 0.25 = 50 expected, generous bounds

    def test_deterministic_for_seed(self):
        segments = _iteration_segments([50.0] * 30)
        a = TraceReducer(RandomSampling(0.3, seed=9)).reduce_segments(segments)
        b = TraceReducer(RandomSampling(0.3, seed=9)).reduce_segments(segments)
        assert list(range(a.n_stored)) == list(range(b.n_stored))


class TestSamplingOnWorkloads:
    def test_pipeline_compatible(self, small_dynlb_trace):
        from repro.core.reconstruct import reconstruct
        from repro.evaluation.approximation import approximation_distance

        reduced = reduce_trace(small_dynlb_trace, PeriodicSampling(5))
        rebuilt = reconstruct(reduced)
        assert rebuilt.num_events == small_dynlb_trace.num_events
        assert approximation_distance(small_dynlb_trace, rebuilt) >= 0.0

    def test_coarser_sampling_smaller_files(self, small_dynlb_trace):
        fine = reduce_trace(small_dynlb_trace, PeriodicSampling(2))
        coarse = reduce_trace(small_dynlb_trace, PeriodicSampling(8))
        assert coarse.size_bytes() < fine.size_bytes()


# -- the core's step for the sampling strategies -------------------------------


def _fresh(name):
    """A new instance of each strategy, seeded alike: every side draws the same stream."""
    return {"period": lambda: PeriodicSampling(3), "random": lambda: RandomSampling(0.3, seed=7)}[
        name
    ]()


STRATEGIES = ("period", "random")


@pytest.fixture(scope="module")
def workload():
    from repro.experiments.config import SCALES, build_workload

    return build_workload("sweep3d_8p", SCALES["smoke"]).run_segmented()


def _reference(name, trace):
    """The scalar reference's bytes: one instance over the ranks in order, so
    ``RandomSampling`` draws one stream across them, as every serial pathway does."""
    streams = ((rank.rank, rank.segments) for rank in trace.ranks)
    return serialize_reduced_trace(TraceReducer(_fresh(name)).reduce_streams(trace.name, streams))


def _ragged(segments):
    """``segments`` cut into chunks of 1, 2, ..., 7 rows, cycling."""
    chunks, at, size = [], 0, 1
    while at < len(segments):
        chunks.append(segments[at : at + size])
        at, size = at + size, size % 7 + 1
    return chunks


class TestTheCoreStep:
    def test_one_random_call_draws_what_scalar_calls_draw(self):
        # The step draws a frame's doubles with one random(n) call; the
        # reference draws them one at a time, also across frames.
        batched, scalar = rng_for(7, "draws"), rng_for(7, "draws")
        drawn = [value for n in (3, 0, 5) for value in batched.random(n).tolist()]
        assert drawn == [scalar.random() for _ in range(8)]

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_reduce_frame_is_the_reference(self, workload, name):
        reducer = TraceReducer(_fresh(name))
        reduced = ReducedTrace(workload.name, reducer.metric.name, reducer.metric.threshold)
        for rank in workload.ranks:
            frame = RankFrame.from_segments(rank.rank, rank.segments)
            reduced.ranks.append(reducer.reduce_frame(frame))
            assert frame.materialized == 0
        assert serialize_reduced_trace(reduced) == _reference(name, workload)
        assert 0 < reduced.n_matches < reduced.n_segments

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_one_config_sweep_is_the_reference(self, workload, name, monkeypatch):
        # A sweep config names a registered method; the sampling strategies are
        # not registered, so the one config's factory builds the strategy.
        monkeypatch.setattr(SweepConfig, "create", lambda self: _fresh(name))
        result = sweep_pipeline(workload, SweepPlan([SweepConfig("iter_k", 3)]))
        (outcome,) = result.outcomes
        assert serialize_reduced_trace(outcome.reduced) == _reference(name, workload)

    @pytest.mark.parametrize(
        "executor, workers", [("serial", None), ("thread", 2), ("process", 2)]
    )
    @pytest.mark.parametrize("name", STRATEGIES)
    def test_every_executor_is_the_reference(self, workload, name, executor, workers):
        # A pickled task would restart RandomSampling's stream and threads
        # would interleave its draws: a run under it takes its ranks inline,
        # in order, whichever executor was asked for.
        config = PipelineConfig(executor=executor, workers=workers)
        result = ReductionPipeline(_fresh(name), config).reduce(workload)
        assert serialize_reduced_trace(result.reduced) == _reference(name, workload)
        assert result.stats.requested_executor == executor
        assert result.stats.executor == ("serial" if name == "random" else executor)

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_ragged_session_with_a_checkpoint_is_the_reference(self, workload, name):
        def run(reset_at_restore):
            session = ReductionSession(workload.name, SessionConfig("iter_k", 3))
            # A session config names a registered method too; its metric is swapped.
            session.metric = _fresh(name)
            session.reducer = TraceReducer(session.metric)
            for rank in workload.ranks:
                chunks = _ragged(rank.segments)
                for i, chunk in enumerate(chunks):
                    session.append(RankFrame.from_segments(rank.rank, chunk))
                    if i == len(chunks) // 2:
                        session = restore_state(session_state(session))
                        if reset_at_restore:
                            session.metric = _fresh(name)
                            session.reducer = TraceReducer(session.metric)
            reduced = session.finish().reduced
            reduced.name = workload.name
            return serialize_reduced_trace(reduced)

        keys_per_chunk = [
            {segment.relative_to_start().structure() for segment in chunk}
            for chunk in _ragged(workload.ranks[0].segments)
        ]
        # A chunk boundary falls inside a key's run of executions.
        assert any(a & b for a, b in zip(keys_per_chunk, keys_per_chunk[1:]))
        assert run(reset_at_restore=False) == _reference(name, workload)
        if name == "random":
            # The generator's state is what the checkpoint carried: a restore
            # that starts the stream over draws other samples.
            assert run(reset_at_restore=True) != _reference(name, workload)
