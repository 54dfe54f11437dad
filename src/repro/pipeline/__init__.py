"""Streaming parallel reduction pipeline.

The scaling subsystem on top of :mod:`repro.core`: streaming ingestion of
per-rank segment streams (:mod:`repro.pipeline.stream`), a worker-pool
reduction engine with deterministic, serial-identical output
(:mod:`repro.pipeline.engine`), and per-stage instrumentation
(:mod:`repro.pipeline.stats`).

Quick use::

    from repro.core.metrics import create_metric
    from repro.pipeline import PipelineConfig, reduce_pipeline

    result = reduce_pipeline(trace, create_metric("relDiff"),
                             PipelineConfig(executor="process", workers=8))
    result.reduced   # same core, same bytes as TraceReducer(metric).reduce(trace)
    result.stats     # throughput, match rate, per-stage wall time
"""

from repro.pipeline.engine import (
    EXECUTORS,
    PipelineConfig,
    PipelineResult,
    ReductionPipeline,
    reduce_pipeline,
    sweep_pipeline,
)
from repro.pipeline.stats import PipelineStats
from repro.pipeline.stream import rank_segment_streams, source_name

__all__ = [
    "EXECUTORS",
    "PipelineConfig",
    "PipelineResult",
    "ReductionPipeline",
    "reduce_pipeline",
    "sweep_pipeline",
    "PipelineStats",
    "rank_segment_streams",
    "source_name",
]
