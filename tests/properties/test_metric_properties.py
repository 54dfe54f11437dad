"""Property-based tests for the similarity metrics' mathematical invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import create_metric
from repro.core.metrics.distance import relative_differences
from repro.core.metrics.minkowski import minkowski_distance
from repro.core.metrics.vectors import next_power_of_two
from repro.core.metrics.wavelet import average_transform, haar_transform

from tests.properties.strategies import iteration_segments, pow2_vectors

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


def vectors(min_size=1, max_size=16):
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(finite_floats, min_size=n, max_size=n),
            st.lists(finite_floats, min_size=n, max_size=n),
        )
    )


class TestRelativeDifferenceProperties:
    @given(vectors())
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, pair):
        a, b = (np.asarray(v) for v in pair)
        np.testing.assert_allclose(relative_differences(a, b), relative_differences(b, a))

    @given(st.lists(positive_floats, min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_identity_is_zero(self, values):
        a = np.asarray(values)
        np.testing.assert_allclose(relative_differences(a, a), np.zeros_like(a))

    @given(vectors())
    @settings(max_examples=60, deadline=None)
    def test_non_negative_and_bounded_for_same_sign(self, pair):
        a, b = (np.abs(np.asarray(v)) for v in pair)
        rel = relative_differences(a, b)
        assert np.all(rel >= 0.0)
        assert np.all(rel <= 1.0 + 1e-12)

    @given(st.lists(positive_floats, min_size=1, max_size=16), positive_floats)
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, values, scale):
        a = np.asarray(values)
        b = a * 1.1 + 0.01
        np.testing.assert_allclose(
            relative_differences(a, b), relative_differences(a * scale, b * scale), rtol=1e-9
        )


class TestMinkowskiProperties:
    @given(vectors())
    @settings(max_examples=60, deadline=None)
    def test_order_relationship(self, pair):
        a, b = pair
        manhattan = minkowski_distance(a, b, 1)
        euclidean = minkowski_distance(a, b, 2)
        chebyshev = minkowski_distance(a, b, math.inf)
        assert manhattan + 1e-9 >= euclidean >= chebyshev - 1e-9

    @given(vectors(), st.sampled_from([1, 2, math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_identity(self, pair, order):
        a, b = pair
        assert minkowski_distance(a, b, order) == pytest.approx(
            minkowski_distance(b, a, order)
        )
        assert minkowski_distance(a, a, order) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=10).flatmap(
            lambda n: st.tuples(
                *(st.lists(finite_floats, min_size=n, max_size=n) for _ in range(3))
            )
        ),
        st.sampled_from([1, 2, math.inf]),
    )
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, triple, order):
        a, b, c = triple
        ab = minkowski_distance(a, b, order)
        bc = minkowski_distance(b, c, order)
        ac = minkowski_distance(a, c, order)
        assert ac <= ab + bc + 1e-6


class TestWaveletProperties:
    @given(pow2_vectors)
    @settings(max_examples=60, deadline=None)
    def test_haar_preserves_energy(self, values):
        arr = np.asarray(values, dtype=float)
        transformed = haar_transform(arr)
        assert np.sum(transformed**2) == pytest.approx(np.sum(arr**2), rel=1e-6, abs=1e-6)

    @given(pow2_vectors, pow2_vectors)
    @settings(max_examples=60, deadline=None)
    def test_haar_preserves_distance(self, a, b):
        if len(a) != len(b):
            return
        av, bv = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        original = np.linalg.norm(av - bv)
        transformed = np.linalg.norm(haar_transform(av) - haar_transform(bv))
        assert transformed == pytest.approx(original, rel=1e-6, abs=1e-6)

    @given(pow2_vectors)
    @settings(max_examples=60, deadline=None)
    def test_average_transform_dc_is_mean(self, values):
        arr = np.asarray(values, dtype=float)
        assert average_transform(arr)[0] == pytest.approx(arr.mean(), rel=1e-9, abs=1e-6)

    @given(pow2_vectors)
    @settings(max_examples=60, deadline=None)
    def test_transforms_are_linear_in_input(self, values):
        arr = np.asarray(values, dtype=float)
        np.testing.assert_allclose(
            average_transform(2.0 * arr), 2.0 * average_transform(arr), rtol=1e-9, atol=1e-6
        )

    @given(pow2_vectors)
    @settings(max_examples=60, deadline=None)
    def test_length_preserved(self, values):
        arr = np.asarray(values, dtype=float)
        assert average_transform(arr).size == arr.size
        assert haar_transform(arr).size == arr.size


class TestNextPowerOfTwoProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_is_power_of_two_and_bounds(self, n):
        p = next_power_of_two(n)
        assert p >= max(1, n)
        assert p & (p - 1) == 0
        if n > 1:
            assert p < 2 * n


#: Thresholds spanning never-match to always-match regimes.
thresholds = st.floats(min_value=1e-6, max_value=1e5, allow_nan=False, allow_infinity=False)


@st.composite
def probe_and_bucket(draw):
    """A normalised probe plus structurally identical stored segments."""
    segments = [s.relative_to_start() for s in draw(iteration_segments(min_segments=2))]
    return segments[0], segments[1:]


@pytest.mark.parametrize("metric_name", ["relDiff", "absDiff"])
class TestDepthOneBucket:
    @given(data=probe_and_bucket(), threshold=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_dense_kernel_on_one_row_matches_scan_decision(self, metric_name, data, threshold):
        # A one-representative bucket takes the dense kernel like any other;
        # its (1, n) reduction must decide exactly as the scan's ``similar``.
        probe, stored = data
        metric = create_metric(metric_name, threshold)
        vector = metric.build_vector(probe)
        for segment in stored:
            row = metric.build_vector(segment)
            stat, base = metric.match_stats(vector, row[np.newaxis, :])
            dense = bool(stat[0] <= (threshold if base is None else threshold * base[0]))
            assert metric.similar(vector, row, probe, segment) == dense
