"""Sweep results: the per-config grid one sweep run produced.

A :class:`SweepResult` holds one :class:`ConfigOutcome` per config of the
plan, in plan order — the config and its reduced trace (byte-identical to a
solo serial reduction) — and the run's :class:`SweepStats`.  The grid
converts to :class:`~repro.evaluation.runner.EvaluationResult` rows — % file
size, degree of matching, approximation distance, retention of trends — via
:meth:`SweepResult.evaluation_results`, which reuses the exact criteria code
of the serial evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.reduced import ReducedTrace
from repro.obs.metrics import Counts
from repro.sweep.plan import SweepConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation.runner import EvaluationResult, PreparedWorkload

__all__ = ["ConfigOutcome", "SweepStats", "SweepResult"]


@dataclass(slots=True)
class SweepStats(Counts):
    """Instrumentation of one sweep run (whole grid, all ranks)."""

    GAUGES = frozenset({"n_configs", "n_families", "n_ranks"})

    n_configs: int = 0
    n_families: int = 0
    n_ranks: int = 0
    n_segments: int = 0
    #: ``Segment`` objects the sweep built from frame rows: 0 unless the grid
    #: holds ``iter_avg``, which builds one per representative it matched.
    segments_materialized: int = 0
    #: Feature-vector computations actually performed (per segment × family).
    vector_builds: int = 0
    #: Vector computations a per-config serial loop would have performed for
    #: the same stream (per segment × config).
    vector_builds_naive: int = 0
    total_seconds: float = 0.0
    #: How the ranks reached the reduction tasks, as for a pipeline run:
    #: ``inline``, ``shard`` or ``payload``.
    dispatch: str = "inline"

    @property
    def vector_builds_saved(self) -> int:
        """Vector computations avoided by family sharing."""
        return max(0, self.vector_builds_naive - self.vector_builds)

    @property
    def sharing_factor(self) -> float:
        """Naive vector builds per actual build (1.0 = no sharing)."""
        if self.vector_builds == 0:
            return 1.0
        return self.vector_builds_naive / self.vector_builds

    def rows(self) -> list[list]:
        """(property, value) rows for the CLI table."""
        return [
            ["configs", self.n_configs],
            ["feature families", self.n_families],
            ["task dispatch", self.dispatch],
            ["ranks", self.n_ranks],
            ["segments (ingested once)", self.n_segments],
            [
                "segments materialized (lazy)",
                f"{self.segments_materialized} of {self.n_segments} decoded",
            ],
            ["vector builds", self.vector_builds],
            ["vector builds saved", self.vector_builds_saved],
            ["vector sharing factor", f"{self.sharing_factor:.2f}x"],
            ["sweep wall time (s)", f"{self.total_seconds:.4f}"],
        ]


@dataclass(slots=True)
class ConfigOutcome:
    """One config's share of a sweep: the config and its reduced trace."""

    config: SweepConfig
    reduced: ReducedTrace


@dataclass(slots=True)
class SweepResult:
    """The full grid of one sweep run, in plan order."""

    name: str
    outcomes: list[ConfigOutcome]
    stats: SweepStats

    def __iter__(self) -> Iterator[ConfigOutcome]:
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def configs(self) -> list[SweepConfig]:
        return [o.config for o in self.outcomes]

    def evaluation_results(
        self,
        prepared: "PreparedWorkload",
        *,
        comparison_options=None,
        keep_comparison: bool = False,
    ) -> list["EvaluationResult"]:
        """All four criteria for every config, in plan order.

        Reuses the serial path's criteria code on each config's reduced trace,
        so a row here equals the row ``evaluate_method`` would produce for the
        same config (the equivalence tests assert field-for-field equality).
        The configs' file sizes are measured by one
        :class:`~repro.trace.io.ReducedSizer`, so a text the configs share is
        measured once.
        """
        # Imported lazily: the pipeline engine imports this module, and a
        # reduction run must not pull in the evaluation and analysis stack.
        from repro.evaluation.runner import result_from_reduced
        from repro.trace.io import ReducedSizer

        sizer = ReducedSizer()
        return [
            result_from_reduced(
                prepared,
                outcome.reduced,
                comparison_options=comparison_options,
                keep_comparison=keep_comparison,
                sizer=sizer,
            )
            for outcome in self.outcomes
        ]
