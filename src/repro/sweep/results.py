"""Sweep results: the per-config grid one sweep run produced.

A :class:`SweepResult` holds one :class:`ConfigOutcome` per config of the
plan, in plan order: the config and its reduced trace (byte-identical to a
solo serial reduction).  The grid converts to
:class:`~repro.evaluation.runner.EvaluationResult` rows — % file size,
degree of matching, approximation distance, retention of trends — via
:meth:`SweepResult.evaluation_results`, which reuses the exact criteria code
of the serial evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.reduced import ReducedTrace
from repro.sweep.plan import SweepConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation.runner import EvaluationResult, PreparedWorkload
    from repro.sweep.engine import SweepStats

__all__ = ["ConfigOutcome", "SweepResult"]


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
    stats: "SweepStats"

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
        """
        # Imported lazily: evaluation.runner imports the sweep engine for
        # evaluate_grid, so a module-level import here would be circular.
        from repro.evaluation.runner import result_from_reduced

        return [
            result_from_reduced(
                prepared,
                outcome.reduced,
                comparison_options=comparison_options,
                keep_comparison=keep_comparison,
            )
            for outcome in self.outcomes
        ]
