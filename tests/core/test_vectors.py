"""Tests for the measurement-vector layouts."""

import numpy as np
import pytest

from repro.core.metrics import create_metric
from repro.core.metrics.vectors import minkowski_vector, next_power_of_two, wavelet_vector

from tests.conftest import make_segment


class TestNextPowerOfTwo:
    @pytest.mark.parametrize(
        "n,expected", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8), (9, 16), (1000, 1024)]
    )
    def test_values(self, n, expected):
        assert next_power_of_two(n) == expected


class TestPaperLayouts:
    def test_minkowski_vector_matches_paper(self, paper_segments):
        """Section 3.2.1: s2 -> (49, 1, 17, 18, 48), s1 -> (51, 1, 40, 41, 50)."""
        np.testing.assert_allclose(minkowski_vector(paper_segments["s2"]), [49, 1, 17, 18, 48])
        np.testing.assert_allclose(minkowski_vector(paper_segments["s1"]), [51, 1, 40, 41, 50])
        np.testing.assert_allclose(minkowski_vector(paper_segments["s0"]), [50, 1, 20, 21, 49])

    def test_wavelet_vector_matches_paper(self, paper_segments):
        """Figure 3: s0 -> (0, 1, 20, 21, 49, 50, 0, 0) after zero padding."""
        np.testing.assert_allclose(
            wavelet_vector(paper_segments["s0"]), [0, 1, 20, 21, 49, 50, 0, 0]
        )
        np.testing.assert_allclose(
            wavelet_vector(paper_segments["s2"]), [0, 1, 17, 18, 48, 49, 0, 0]
        )

    def test_pairwise_layout(self, paper_segments):
        """The default ``build_vector``: event (start, end) pairs, then the end."""
        vector = create_metric("relDiff").build_vector(paper_segments["s2"])
        np.testing.assert_allclose(vector, [1, 17, 18, 48, 49])


class TestEdgeCases:
    def test_empty_segment_vectors(self):
        seg = make_segment("c", [], start=0.0, end=5.0)
        np.testing.assert_allclose(minkowski_vector(seg), [5.0])
        np.testing.assert_allclose(wavelet_vector(seg), [0.0, 5.0])
        np.testing.assert_allclose(create_metric("relDiff").build_vector(seg), [5.0])

    def test_wavelet_padding_to_power_of_two(self):
        seg = make_segment("c", [("a", 1.0, 2.0), ("b", 3.0, 4.0)], end=5.0)
        vec = wavelet_vector(seg)
        assert vec.size == 8  # 6 raw values padded to 8
        assert vec[-2:].tolist() == [0.0, 0.0]

    def test_wavelet_no_padding_option(self):
        seg = make_segment("c", [("a", 1.0, 2.0), ("b", 3.0, 4.0)], end=5.0)
        vec = wavelet_vector(seg, pad=False)
        assert vec.size == 6

    def test_already_power_of_two_not_padded(self):
        seg = make_segment("c", [("a", 1.0, 2.0)], end=3.0)
        vec = wavelet_vector(seg)
        assert vec.size == 4

    def test_absolute_segment_uses_duration(self):
        """Vectors of an unnormalised segment use times relative to its span."""
        rel = make_segment("c", [("a", 1.0, 2.0)], start=0.0, end=3.0)
        assert minkowski_vector(rel)[0] == 3.0


class TestDurationIsUnconditional:
    """Regression: the leading/trailing element is always ``end - start``.

    An earlier revision selected ``end - start`` vs. ``end`` on the
    *truthiness* of ``start``, treating ``start == 0.0`` as a special case;
    the duration must be computed unconditionally for any start offset.
    """

    def test_minkowski_vector_nonzero_start(self):
        seg = make_segment("c", [("a", 6.0, 7.0)], start=5.0, end=9.0)
        np.testing.assert_allclose(minkowski_vector(seg), [4.0, 6.0, 7.0])

    def test_minkowski_vector_negative_start(self):
        seg = make_segment("c", [("a", -1.0, 1.0)], start=-2.0, end=2.0)
        np.testing.assert_allclose(minkowski_vector(seg), [4.0, -1.0, 1.0])

    def test_minkowski_vector_zero_start(self):
        seg = make_segment("c", [("a", 1.0, 2.0)], start=0.0, end=3.0)
        np.testing.assert_allclose(minkowski_vector(seg), [3.0, 1.0, 2.0])

    def test_wavelet_vector_nonzero_start(self):
        seg = make_segment("c", [("a", 6.0, 7.0)], start=5.0, end=9.0)
        np.testing.assert_allclose(wavelet_vector(seg), [0.0, 6.0, 7.0, 4.0])

    def test_wavelet_vector_negative_start(self):
        seg = make_segment("c", [("a", -1.0, 1.0)], start=-2.0, end=2.0)
        np.testing.assert_allclose(wavelet_vector(seg), [0.0, -1.0, 1.0, 4.0])
