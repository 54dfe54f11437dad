"""A sweep of one config is the pipeline.

``sweep_pipeline`` runs the pipeline's dispatch, batches and task with one
metric per config, so a one-config plan must come out as
``ReductionPipeline(metric, config).reduce`` does: the same bytes, the same
dispatch, and the same :class:`~repro.pipeline.stats.RankCounts` published
under the same names — for every method and every dispatch.
"""

import pytest

from repro import obs
from repro.benchmarks_ats import late_sender
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.pipeline.engine import PipelineConfig, ReductionPipeline, sweep_pipeline
from repro.sweep import SweepPlan
from repro.trace.io import serialize_reduced_trace, write_trace

POOL = PipelineConfig(executor="thread", workers=2)

#: dispatch -> (source kind, the config that gives it).
DISPATCHES = {
    "inline": ("rpb", PipelineConfig()),
    "shard": ("rpb", POOL),
    "payload": ("memory", POOL),
}


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    trace = late_sender(nprocs=6, iterations=4, seed=5).run()
    path = tmp_path_factory.mktemp("sweep_is_pipeline") / "trace.rpb"
    write_trace(trace, path)
    return {"rpb": path, "memory": trace.segmented()}


def _recorded(run):
    """``run()`` under a recorder: its result and the ``pipeline.*`` counts it
    published, without the clocks."""
    with obs.recording("test") as recorder:
        result = run()
    counts = {
        name: value.value
        for name, value in recorder.registry.snapshot().values.items()
        if name.startswith("pipeline.")
        and value.kind == "counter"
        and not name.endswith("seconds")
    }
    return result, counts


def _check(source, method, config, dispatch):
    threshold = create_metric(method).threshold
    piped, piped_counts = _recorded(
        lambda: ReductionPipeline(create_metric(method), config).reduce(source)
    )
    swept, swept_counts = _recorded(
        lambda: sweep_pipeline(source, SweepPlan.single(method, threshold), config)
    )
    (outcome,) = swept.outcomes
    assert serialize_reduced_trace(outcome.reduced) == serialize_reduced_trace(piped.reduced)
    assert swept.stats.dispatch == piped.stats.dispatch == dispatch
    assert swept_counts == piped_counts
    assert "pipeline.n_stored" in swept_counts and "pipeline.match_calls" in swept_counts
    assert (swept.stats.n_ranks, swept.stats.n_segments, swept.stats.segments_materialized) == (
        piped.stats.nprocs, piped.stats.n_segments, piped.stats.segments_materialized
    )


@pytest.mark.parametrize("dispatch", DISPATCHES)
@pytest.mark.parametrize("method", METRIC_NAMES)
def test_one_config_sweep_is_the_pipeline(sources, method, dispatch):
    kind, config = DISPATCHES[dispatch]
    _check(sources[kind], method, config, dispatch)


@pytest.mark.parametrize("method", ["euclidean", "iter_avg"])
def test_one_config_sweep_is_the_pipeline_on_a_process_pool(sources, method):
    _check(sources["rpb"], method, PipelineConfig(executor="process", workers=2), "shard")
