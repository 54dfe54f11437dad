"""Study runner: the full evaluation pipeline for one workload.

A :class:`PreparedWorkload` simulates a workload once; ``evaluate_method`` and
``evaluate_grid`` then apply any number of (method, threshold) combinations to
the same trace, producing one :class:`EvaluationResult` per combination with
all four criteria filled in.  The expensive artefacts (the full trace as
columnar frames, its serialized size, and its diagnosis report) are computed
once and shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.analysis.compare import ComparisonOptions, TrendComparison
from repro.analysis.expert import analyze
from repro.analysis.report import DiagnosisReport
from repro.core.frametrace import FrameTrace
from repro.core.metrics.base import SimilarityMetric
from repro.core.reconstruct import reconstruct
from repro.core.reduced import ReducedTrace
from repro.core.reducer import TraceReducer
from repro.evaluation.approximation import approximation_distance
from repro.evaluation.filesize import decoded_trace_bytes, full_trace_bytes
from repro.evaluation.trends import retains_trends
from repro.trace.trace import SegmentedTrace

if TYPE_CHECKING:
    from repro.benchmarks_ats.base import Workload

__all__ = [
    "EvaluationResult",
    "evaluate_method",
    "evaluate_grid",
    "result_from_reduced",
    "PreparedWorkload",
]


@dataclass(slots=True)
class EvaluationResult:
    """All four criteria for one (workload, method, threshold) combination."""

    workload: str
    method: str
    threshold: Optional[float]
    pct_file_size: float
    degree_of_matching: float
    approx_distance_us: float
    trends_retained: bool
    full_bytes: int
    reduced_bytes: int
    n_segments: int
    n_stored: int
    trend_comparison: Optional[TrendComparison] = None

    def as_row(self) -> list:
        """Row used by the benchmark harness tables."""
        return [
            self.workload,
            self.method,
            "-" if self.threshold is None else f"{self.threshold:g}",
            self.pct_file_size,
            self.degree_of_matching,
            self.approx_distance_us,
            self.trends_retained,
        ]


@dataclass(slots=True)
class PreparedWorkload:
    """A workload's shared evaluation artefacts (simulate + segment + analyze once).

    ``segmented`` is the full trace as columnar frames, whichever constructor
    built it: every reduction and every criterion of a study reads the same
    frames, and no segment object is built to reduce them (``iter_avg``
    builds one per representative it averages into).
    """

    name: str
    segmented: FrameTrace
    full_bytes: int
    full_report: DiagnosisReport
    workload: Optional[Workload] = None

    @classmethod
    def from_workload(cls, workload: Workload) -> "PreparedWorkload":
        segmented = workload.run_segmented()
        return cls.from_segmented(workload.name, segmented, workload=workload)

    @classmethod
    def from_segmented(
        cls, name: str, segmented: SegmentedTrace, workload: Optional[Workload] = None
    ) -> "PreparedWorkload":
        """Prepare an in-memory segmented trace, adapted to frames once."""
        trace = FrameTrace.from_segmented(segmented)
        return cls(
            name=name,
            segmented=trace,
            full_bytes=full_trace_bytes(segmented),
            full_report=analyze(trace),
            workload=workload,
        )

    @classmethod
    def from_file(cls, path, name: Optional[str] = None) -> "PreparedWorkload":
        """Prepare a trace file (text or ``.rpb``; dispatched on extension).

        The four criteria are format-independent: ``full_bytes`` is the
        text-equivalent serialization either way, so evaluating a trace and
        evaluating its converted twin produce identical results.

        The file decodes straight into columnar frames
        (:class:`~repro.core.frametrace.FrameTrace`): the full-trace analysis
        and the criteria read the columns directly, the reducers take their
        frame paths, and ``full_bytes`` is what the decoder sized (an ``.rpb``
        file) or the file's own size (text) — no segment object is built
        unless a method probes with it.
        """
        from pathlib import Path

        path = Path(path)
        trace = FrameTrace.from_file(path, name=name)
        return cls(
            name=trace.name,
            segmented=trace,
            full_bytes=decoded_trace_bytes(
                path, sum(rank.frame.text_bytes for rank in trace.ranks)
            ),
            full_report=analyze(trace),
        )


def evaluate_method(
    prepared: PreparedWorkload,
    metric: SimilarityMetric,
    *,
    comparison_options: Optional[ComparisonOptions] = None,
    keep_comparison: bool = True,
) -> EvaluationResult:
    """Run one similarity metric over a prepared workload."""
    with obs.span("evaluate.reduce", method=metric.name):
        reduced: ReducedTrace = TraceReducer(metric).reduce(prepared.segmented)
    return result_from_reduced(
        prepared,
        reduced,
        comparison_options=comparison_options,
        keep_comparison=keep_comparison,
    )


def result_from_reduced(
    prepared: PreparedWorkload,
    reduced: ReducedTrace,
    *,
    comparison_options: Optional[ComparisonOptions] = None,
    keep_comparison: bool = True,
) -> EvaluationResult:
    """All four criteria for one already-computed reduced trace.

    This is the second half of :func:`evaluate_method`; a sweep's result
    calls it per grid config, so a sweep row and a serial row are produced
    by the same code.
    """
    with obs.span("evaluate.criteria", method=reduced.method):
        with obs.span("criteria.reconstruct"):
            reconstructed = reconstruct(reduced)
        with obs.span("criteria.size"):
            reduced_bytes = reduced.size_bytes()
        pct = 100.0 * reduced_bytes / prepared.full_bytes if prepared.full_bytes else 100.0
        with obs.span("criteria.distance"):
            distance = approximation_distance(prepared.segmented, reconstructed)
        with obs.span("criteria.trends"):
            comparison = retains_trends(
                prepared.segmented,
                reconstructed,
                full_report=prepared.full_report,
                options=comparison_options,
            )
    return EvaluationResult(
        workload=prepared.name,
        method=reduced.method,
        threshold=reduced.threshold,
        pct_file_size=pct,
        degree_of_matching=reduced.degree_of_matching(),
        approx_distance_us=distance,
        trends_retained=comparison.retained,
        full_bytes=prepared.full_bytes,
        reduced_bytes=reduced_bytes,
        n_segments=reduced.n_segments,
        n_stored=reduced.n_stored,
        trend_comparison=comparison if keep_comparison else None,
    )


def evaluate_grid(
    prepared: PreparedWorkload,
    plan,
    *,
    comparison_options: Optional[ComparisonOptions] = None,
    keep_comparison: bool = False,
    backend: str = "sweep",
) -> list[EvaluationResult]:
    """Evaluate a whole config grid on one prepared workload.

    ``plan`` is a :class:`~repro.sweep.plan.SweepPlan` (or anything its
    constructor accepts, e.g. a list of ``(method, threshold)`` pairs).

    ``backend="sweep"`` (the default) runs the grid as one sweep
    (:func:`repro.pipeline.engine.sweep_pipeline`, the pipeline's run with one
    metric per config) over the prepared frames, in this process: one pass
    for the entire grid, feature vectors computed once per family (to fan a
    grid out over a pool, call ``sweep_pipeline`` with a pooled config, as
    the CLI does).  ``backend="serial"`` is one independent
    :func:`evaluate_method` pass per config — the per-config loop the sweep
    tests and the benchmark's sweep reference compare the sweep with; no
    command selects it.  Both produce identical rows, in plan order.
    """
    from repro.sweep.plan import SweepPlan

    if not isinstance(plan, SweepPlan):
        plan = SweepPlan(plan)
    if backend == "serial":
        return [
            evaluate_method(
                prepared,
                config.create(),
                comparison_options=comparison_options,
                keep_comparison=keep_comparison,
            )
            for config in plan.configs
        ]
    if backend != "sweep":
        raise ValueError(f"backend must be 'serial' or 'sweep', got {backend!r}")
    from repro.pipeline.engine import sweep_pipeline

    result = sweep_pipeline(prepared.segmented, plan, name=prepared.name)
    return result.evaluation_results(
        prepared,
        comparison_options=comparison_options,
        keep_comparison=keep_comparison,
    )
