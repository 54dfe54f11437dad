"""Pipeline-vs-serial equivalence: every metric, every criterion.

The acceptance bar for the pipeline: for each similarity method the parallel
path must produce a byte-identical reduced-trace serialization and identical
values for all four evaluation criteria (file size %, degree of matching,
approximation distance, retention of trends).
"""

import pytest

from repro.core.metrics import METRIC_NAMES, create_metric
from repro.evaluation.runner import evaluate_method, result_from_reduced
from repro.pipeline.engine import PipelineConfig, ReductionPipeline, reduce_pipeline
from repro.trace.io import serialize_reduced_trace

from tests.support import RESULT_FIELDS, reference_reduce


@pytest.fixture(scope="module")
def prepared(small_late_sender_prepared):
    return small_late_sender_prepared


def _pipeline_criteria(prepared, metric_name, executor):
    pipeline = ReductionPipeline(
        create_metric(metric_name), PipelineConfig(executor=executor, workers=2)
    )
    return result_from_reduced(
        prepared, pipeline.reduce(prepared.segmented).reduced, keep_comparison=False
    )


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
class TestEveryMetric:
    def test_serialization_identical(self, small_late_sender_trace, metric_name):
        serial = reference_reduce(create_metric(metric_name), small_late_sender_trace)
        parallel = reduce_pipeline(
            small_late_sender_trace,
            create_metric(metric_name),
            PipelineConfig(executor="thread", workers=2),
        ).reduced
        assert serialize_reduced_trace(parallel) == serialize_reduced_trace(serial)

    def test_all_criteria_identical(self, prepared, small_late_sender_trace, metric_name):
        """Criteria of the reference's reduced trace == evaluate_method's == the pipeline's."""
        expected = result_from_reduced(
            prepared,
            reference_reduce(create_metric(metric_name), small_late_sender_trace),
            keep_comparison=False,
        )
        serial = evaluate_method(prepared, create_metric(metric_name), keep_comparison=False)
        pipeline = _pipeline_criteria(prepared, metric_name, "thread")
        for name in RESULT_FIELDS:
            assert getattr(serial, name) == getattr(expected, name), name
            assert getattr(pipeline, name) == getattr(expected, name), name


class TestProcessPool:
    def test_process_pool_matches_too(self, prepared):
        serial = evaluate_method(prepared, create_metric("relDiff"), keep_comparison=False)
        pipeline = _pipeline_criteria(prepared, "relDiff", "process")
        assert pipeline.pct_file_size == serial.pct_file_size
        assert pipeline.degree_of_matching == serial.degree_of_matching
