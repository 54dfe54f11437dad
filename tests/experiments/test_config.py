"""Tests for the workload registry and scaling profiles."""

import pytest

from repro.benchmarks_ats.base import Workload
from repro.experiments.config import (
    ALL_WORKLOAD_NAMES,
    BENCHMARK_NAMES,
    INTERFERENCE_BENCHMARK_NAMES,
    INTERFERENCE_PATTERN_NAMES,
    REGULAR_BENCHMARK_NAMES,
    SCALES,
    SWEEP3D_NAMES,
    build_workload,
    clear_workload_cache,
    get_scale,
    prepared_cache_size,
    prepared_workload,
)


class TestRegistry:
    def test_eighteen_workloads(self):
        """The paper evaluates 16 benchmarks plus the two sweep3d runs."""
        assert len(ALL_WORKLOAD_NAMES) == 18
        assert len(BENCHMARK_NAMES) == 16
        assert len(SWEEP3D_NAMES) == 2

    def test_paper_names_present(self):
        for name in (
            "dyn_load_balance",
            "late_sender",
            "imbalance_at_mpi_barrier",
            "Nto1_32",
            "1to1r_1024",
            "NtoN_1024",
            "sweep3d_8p",
            "sweep3d_32p",
        ):
            assert name in ALL_WORKLOAD_NAMES

    def test_interference_names_cover_patterns_and_scales(self):
        assert len(INTERFERENCE_BENCHMARK_NAMES) == 10
        assert len(REGULAR_BENCHMARK_NAMES) == 5

    def test_interference_pattern_names_are_the_generators_patterns(self):
        """The registry spells them out so that naming a workload loads no simulator."""
        from repro.benchmarks_ats import INTERFERENCE_PATTERNS

        assert INTERFERENCE_PATTERN_NAMES == tuple(INTERFERENCE_PATTERNS)

    def test_every_workload_buildable_at_smoke_scale(self):
        for name in ALL_WORKLOAD_NAMES:
            workload = build_workload(name, "smoke")
            assert isinstance(workload, Workload)
            assert workload.name == name

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("lulesh", "smoke")


class TestScales:
    def test_profiles_exist(self):
        assert set(SCALES) == {"smoke", "default", "paper"}

    def test_get_scale_by_name(self):
        assert get_scale("smoke").name == "smoke"

    def test_get_scale_unknown(self):
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale().name == "smoke"

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "default"

    def test_paper_scale_matches_paper_parameters(self):
        paper = get_scale("paper")
        assert paper.benchmark_nprocs == 8
        assert paper.interference_nprocs == 32
        assert paper.benchmark_iterations == 100

    def test_scales_ordered_by_size(self):
        smoke, default, paper = (get_scale(n) for n in ("smoke", "default", "paper"))
        assert smoke.benchmark_iterations < default.benchmark_iterations <= paper.benchmark_iterations


class TestPreparedCache:
    def test_cache_returns_same_object(self):
        clear_workload_cache()
        a = prepared_workload("late_sender", "smoke")
        b = prepared_workload("late_sender", "smoke")
        assert a is b

    def test_cache_distinguishes_scales(self):
        clear_workload_cache()
        a = prepared_workload("late_sender", "smoke")
        clear_workload_cache()
        b = prepared_workload("late_sender", "smoke")
        assert a is not b

    def test_cache_keyed_by_full_scale_identity(self):
        """Two custom profiles sharing a *name* must not alias each other."""
        from dataclasses import replace

        clear_workload_cache()
        small = replace(get_scale("smoke"), name="custom")
        big = replace(small, benchmark_iterations=small.benchmark_iterations * 2)
        a = prepared_workload("late_sender", small)
        b = prepared_workload("late_sender", big)
        assert a is not b
        assert b.segmented.ranks[0].segments != a.segmented.ranks[0].segments
        assert prepared_cache_size() == 2
        assert prepared_workload("late_sender", small) is a

    def test_multi_method_study_prepares_each_workload_once(self):
        """A whole grid re-uses one PreparedWorkload per (workload, scale)."""
        from repro.experiments.thresholds import threshold_study

        clear_workload_cache()
        threshold_study(
            "absDiff", workloads=("late_sender",), thresholds=(10.0, 1e3), scale="smoke"
        )
        assert prepared_cache_size() == 1
        cached = prepared_workload("late_sender", "smoke")
        threshold_study(
            "relDiff", workloads=("late_sender",), thresholds=(0.1, 0.8), scale="smoke"
        )
        assert prepared_cache_size() == 1
        assert prepared_workload("late_sender", "smoke") is cached
