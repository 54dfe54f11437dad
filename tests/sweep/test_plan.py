"""Sweep plans: grid expansion, de-duplication, and family grouping.

The load-bearing property is at the bottom: family grouping may only merge
configs whose metrics derive the *same* feature vector from any segment —
merging two layouts would feed one family's shared vector to a metric that
expects another, silently corrupting every decision downstream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import METRIC_NAMES, THRESHOLD_STUDY, create_metric
from repro.core.metrics.wavelet import AvgWave
from repro.sweep.plan import SweepConfig, SweepPlan

from tests.properties.strategies import iteration_segments


class TestSweepConfig:
    def test_key_and_describe(self):
        config = SweepConfig("relDiff", 0.8)
        assert config.key == ("relDiff", 0.8)
        assert config.describe() == "relDiff(0.8)"
        assert config.create().threshold == 0.8

    def test_default_threshold_is_none(self):
        assert SweepConfig("iter_avg").threshold is None

    def test_invalid_method_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SweepConfig("dtw", 0.5)

    def test_iter_avg_threshold_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig("iter_avg", 0.5)


class TestPlanConstruction:
    def test_specs_accept_names_pairs_and_metrics(self):
        plan = SweepPlan(["iter_avg", ("relDiff", 0.8), create_metric("euclidean", 0.2)])
        assert [c.key for c in plan.configs] == [
            ("iter_avg", None),
            ("relDiff", 0.8),
            ("euclidean", 0.2),
        ]

    def test_duplicates_dropped_order_kept(self):
        plan = SweepPlan([("relDiff", 0.8), ("absDiff", 10.0), ("relDiff", 0.8)])
        assert [c.key for c in plan.configs] == [("relDiff", 0.8), ("absDiff", 10.0)]

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SweepPlan([])

    def test_non_registry_metric_instance_rejected(self):
        # The padding ablation is not representable as (method, threshold),
        # so accepting the instance would silently drop pad=False.
        with pytest.raises(ValueError, match="not equivalent"):
            SweepPlan([AvgWave(0.2, pad=False)])

    def test_from_grid_same_thresholds_for_all(self):
        plan = SweepPlan.from_grid(["euclidean", "manhattan"], [0.1, 0.2])
        assert [c.key for c in plan.configs] == [
            ("euclidean", 0.1),
            ("euclidean", 0.2),
            ("manhattan", 0.1),
            ("manhattan", 0.2),
        ]

    def test_from_grid_defaults_to_paper_study_values(self):
        plan = SweepPlan.from_grid(["relDiff"])
        assert [c.threshold for c in plan.configs] == list(THRESHOLD_STUDY["relDiff"])

    def test_from_grid_iter_avg_contributes_single_config(self):
        plan = SweepPlan.from_grid(["iter_avg", "relDiff"], [0.8])
        assert [c.key for c in plan.configs] == [("iter_avg", None), ("relDiff", 0.8)]

    def test_single(self):
        plan = SweepPlan.single("chebyshev", 0.2)
        assert plan.n_configs == 1 and plan.n_families == 1


class TestFamilyGrouping:
    def test_pairwise_methods_share_a_family(self):
        plan = SweepPlan([("relDiff", 0.1), ("absDiff", 10.0), ("relDiff", 0.8)])
        assert plan.n_families == 1
        assert plan.families[0].vector_key == "pairwise"

    def test_minkowski_methods_share_a_family(self):
        plan = SweepPlan.from_grid(["manhattan", "euclidean", "chebyshev"], [0.2, 0.4])
        assert plan.n_families == 1
        assert len(plan.families[0].configs) == 6

    def test_wavelet_transforms_are_distinct_families(self):
        plan = SweepPlan.from_grid(["avgWave", "haarWave"], [0.2])
        assert plan.n_families == 2

    def test_iteration_methods_join_the_pairwise_family(self):
        # They are stepped with pairwise rows, which iter_avg averages.
        plan = SweepPlan.from_grid(["iter_k", "relDiff", "iter_avg"], [1.0, 10.0])
        assert plan.n_families == 1
        assert plan.families[0].vector_key == "pairwise"
        assert len(plan.families[0].configs) == 5  # iter_k(1), iter_k(10), relDiff ×2, iter_avg

    def test_families_partition_the_configs(self):
        plan = SweepPlan.from_grid(
            list(METRIC_NAMES), [0.2, 0.4], thresholds_per_method={"iter_k": (1, 10)}
        )
        from_families = [c for f in plan.families for c in f.configs]
        assert sorted(c.key for c in from_families) == sorted(c.key for c in plan.configs)

    def test_describe_mentions_every_config(self):
        plan = SweepPlan.from_grid(["euclidean"], [0.1, 0.2])
        text = plan.describe()
        assert "euclidean(0.1)" in text and "euclidean(0.2)" in text


# -- the grouping safety property ---------------------------------------------

_threshold_values = st.sampled_from([0.1, 0.2, 0.4, 0.8, 1.0, 10.0, 1000.0])
_grid_methods = st.sampled_from([m for m in METRIC_NAMES if m != "iter_avg"])
_random_configs = st.lists(
    st.tuples(_grid_methods, _threshold_values),
    min_size=2,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(specs=_random_configs, segments=iteration_segments(max_segments=3))
def test_family_grouping_never_merges_different_feature_vectors(specs, segments):
    """Any two configs grouped into one family must build identical vectors.

    This is the invariant the engine's vector sharing rests on: if it holds
    for arbitrary grids and arbitrary segments, a family's single
    ``build_vector`` call is a faithful stand-in for every member config's
    own call.
    """
    # iter_k needs an integral k >= 1; clamp rather than discard the example.
    specs = [(m, max(1.0, t) if m == "iter_k" else t) for m, t in specs]
    plan = SweepPlan(specs)
    relative = segments[0].relative_to_start()
    for family in plan.families:
        metrics = [c.create() for c in family.configs]
        # The family key is by definition the shared cache key...
        assert {m.vector_key() for m in metrics} == {family.vector_key}
        # ...and the vectors it stands for are numerically identical.
        reference = metrics[0].build_vector(relative)
        for metric in metrics[1:]:
            np.testing.assert_array_equal(metric.build_vector(relative), reference)
