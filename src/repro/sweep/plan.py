"""Sweep plans: expand config grids and group them into feature families.

A :class:`SweepConfig` names one (method, threshold) combination.  A
:class:`SweepPlan` holds an ordered list of distinct configs plus their
grouping into :class:`FeatureFamily`\\ s: configs whose metrics derive the
*same* feature vector from any given segment, so a sweep computes
that vector once per segment per family instead of once per config.

The family key is the metric's ``vector_key()``, the name of its vector
layout, so grouping can never merge configs with different layouts:
relDiff, absDiff and the iteration methods share the canonical pairwise
layout (``iter_k`` and ``iter_avg`` are stepped with its rows, and
``iter_avg`` folds them into its running means), the three Minkowski
variants share the Minkowski layout, and each wavelet transform (and
padding ablation) is its own family because the rows hold transformed
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence, Union

from repro.core.metrics import THRESHOLD_STUDY, create_metric
from repro.core.metrics.base import SimilarityMetric

__all__ = ["SweepConfig", "FeatureFamily", "SweepPlan"]

#: Anything that names one sweep configuration.
ConfigSpec = Union[str, "SweepConfig", SimilarityMetric, tuple]


@dataclass(frozen=True, slots=True)
class SweepConfig:
    """One (method, threshold) combination of a sweep grid.

    Configs are value objects: the metric instance itself is created on
    demand (:meth:`create`), so a config is cheap to hash, compare, and ship
    to pool workers as a task payload.
    """

    method: str
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        # Validate eagerly so a bad grid fails at plan construction, not in
        # the middle of a long sweep (create_metric re-checks on each call).
        create_metric(self.method, self.threshold)

    @property
    def key(self) -> tuple:
        """Identity of the config inside one plan/result grid."""
        return (self.method, self.threshold)

    def create(self) -> SimilarityMetric:
        """Fresh metric instance for this config."""
        return create_metric(self.method, self.threshold)

    def describe(self) -> str:
        return self.create().describe()


@dataclass(frozen=True, slots=True)
class FeatureFamily:
    """Configs whose metrics consume identical per-segment feature vectors.

    ``vector_key`` is the shared :meth:`SimilarityMetric.vector_key` of every
    member: one bulk vector pass per frame serves them all.
    """

    vector_key: Hashable
    configs: tuple[SweepConfig, ...]

    def describe(self) -> str:
        members = ", ".join(c.describe() for c in self.configs)
        return f"[{self.vector_key}] {members}"


def _config_from_spec(spec: ConfigSpec) -> SweepConfig:
    if isinstance(spec, SweepConfig):
        return spec
    if isinstance(spec, str):
        return SweepConfig(spec)
    if isinstance(spec, SimilarityMetric):
        # Registry identity only: constructor extras outside (name, threshold)
        # — e.g. the wavelet padding ablation — are not representable as a
        # grid config, so reject instances that would silently lose them.
        rebuilt = create_metric(spec.name, spec.threshold)
        if type(rebuilt) is not type(spec) or vars(rebuilt) != vars(spec):
            raise ValueError(
                f"metric instance {spec!r} is not equivalent to "
                f"create_metric({spec.name!r}, {spec.threshold!r}); sweep configs "
                "can only carry registry metrics identified by (method, threshold)"
            )
        return SweepConfig(spec.name, spec.threshold)
    if isinstance(spec, tuple) and len(spec) == 2:
        name, threshold = spec
        return SweepConfig(name, threshold)
    raise TypeError(
        "sweep config spec must be a method name, a (name, threshold) pair, a "
        f"SweepConfig, or a registry metric instance; got {spec!r}"
    )


class SweepPlan:
    """An ordered, de-duplicated config grid grouped into feature families."""

    __slots__ = ("configs", "families")

    def __init__(self, specs: Iterable[ConfigSpec]):
        configs: list[SweepConfig] = []
        seen: set[tuple] = set()
        for spec in specs:
            config = _config_from_spec(spec)
            if config.key in seen:
                continue
            seen.add(config.key)
            configs.append(config)
        if not configs:
            raise ValueError("a sweep plan needs at least one configuration")
        self.configs: tuple[SweepConfig, ...] = tuple(configs)
        self.families: tuple[FeatureFamily, ...] = self._group(self.configs)

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_grid(
        cls,
        methods: Sequence[str],
        thresholds: Optional[Sequence[float]] = None,
        *,
        thresholds_per_method: Optional[dict[str, Sequence[float]]] = None,
    ) -> "SweepPlan":
        """Expand a method × threshold grid into a plan.

        ``thresholds`` applies the same values to every method; with neither
        ``thresholds`` nor a per-method entry, a method gets the paper's
        threshold-study values (:data:`~repro.core.metrics.THRESHOLD_STUDY`),
        and ``iter_avg`` — which takes no threshold — contributes its single
        config.
        """
        specs: list[ConfigSpec] = []
        for method in methods:
            if method == "iter_avg":
                specs.append(SweepConfig(method))
                continue
            values: Optional[Sequence[float]] = None
            if thresholds_per_method is not None and method in thresholds_per_method:
                values = thresholds_per_method[method]
            elif thresholds is not None:
                values = thresholds
            elif method in THRESHOLD_STUDY:
                values = THRESHOLD_STUDY[method]
            if values is None:
                raise ValueError(f"no thresholds given for method {method!r}")
            specs.extend(SweepConfig(method, float(v)) for v in values)
        return cls(specs)

    @classmethod
    def single(cls, method: str, threshold: Optional[float] = None) -> "SweepPlan":
        """Degenerate one-config plan (useful as an oracle harness)."""
        return cls([SweepConfig(method, threshold)])

    @staticmethod
    def _group(configs: Sequence[SweepConfig]) -> tuple[FeatureFamily, ...]:
        members: dict[Hashable, list[SweepConfig]] = {}
        for config in configs:
            members.setdefault(config.create().vector_key(), []).append(config)
        return tuple(FeatureFamily(key, tuple(group)) for key, group in members.items())

    # -- introspection ---------------------------------------------------------

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    @property
    def n_families(self) -> int:
        return len(self.families)

    def describe(self) -> str:
        lines = [f"sweep plan: {self.n_configs} configs in {self.n_families} families"]
        lines += [f"  {family.describe()}" for family in self.families]
        return "\n".join(lines)

    def __iter__(self):
        return iter(self.configs)

    def __len__(self) -> int:
        return len(self.configs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepPlan {self.n_configs} configs / {self.n_families} families>"
