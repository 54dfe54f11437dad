"""Unit tests for relDiff / absDiff beyond the paper's worked example."""

import numpy as np
import pytest

from repro.core.metrics.distance import AbsDiff, RelDiff, relative_differences
from repro.core.reduced import StoredSegment

from tests.conftest import make_segment


def _stored(segment, sid=0):
    return StoredSegment(segment_id=sid, segment=segment)


def _seg(*event_times, end):
    events = [(f"f{i}", s, e) for i, (s, e) in enumerate(event_times)]
    return make_segment("c", events, end=end)


class TestRelativeDifferences:
    def test_identical_is_zero(self):
        np.testing.assert_allclose(relative_differences([1.0, 2.0], [1.0, 2.0]), [0.0, 0.0])

    def test_both_zero_is_zero(self):
        np.testing.assert_allclose(relative_differences([0.0], [0.0]), [0.0])

    def test_one_zero_is_one(self):
        np.testing.assert_allclose(relative_differences([0.0], [5.0]), [1.0])

    def test_symmetric(self):
        a = np.array([1.0, 10.0, 100.0])
        b = np.array([2.0, 9.0, 150.0])
        np.testing.assert_allclose(relative_differences(a, b), relative_differences(b, a))

    def test_scale_invariant(self):
        a = np.array([1.0, 2.0])
        b = np.array([2.0, 3.0])
        np.testing.assert_allclose(
            relative_differences(a, b), relative_differences(a * 1000, b * 1000)
        )

    def test_paper_timestamp_series_bias(self):
        """The paper's remark: events at 1 and 2 differ by 0.5 relative, while
        events at 100 and 125 differ by only 0.2 despite a 25-unit gap."""
        early = relative_differences([1.0], [2.0])[0]
        late = relative_differences([100.0], [125.0])[0]
        assert early == pytest.approx(0.5)
        assert late == pytest.approx(0.2)
        assert early > late


class TestRelDiff:
    def test_exact_match(self):
        seg = _seg((1.0, 5.0), end=6.0)
        assert RelDiff(0.0).match(seg, [_stored(seg)]) is not None

    def test_threshold_zero_rejects_any_difference(self):
        a = _seg((1.0, 5.0), end=6.0)
        b = _seg((1.0, 5.1), end=6.0)
        assert RelDiff(0.0).match(a, [_stored(b)]) is None

    def test_monotone_in_threshold(self):
        a = _seg((1.0, 5.0), end=6.0)
        b = _seg((1.0, 8.0), end=9.0)
        assert RelDiff(0.1).match(a, [_stored(b)]) is None
        assert RelDiff(0.9).match(a, [_stored(b)]) is not None

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            RelDiff(-0.1)

    def test_name_and_describe(self):
        metric = RelDiff(0.8)
        assert metric.name == "relDiff"
        assert metric.describe() == "relDiff(0.8)"

    def test_no_candidates_returns_none(self):
        assert RelDiff(1.0).match(_seg((1.0, 2.0), end=3.0), []) is None


class TestAbsDiff:
    def test_threshold_in_microseconds(self):
        a = _seg((1000.0, 2000.0), end=2100.0)
        b = _seg((1000.0, 2900.0), end=3000.0)
        assert AbsDiff(500.0).match(a, [_stored(b)]) is None
        assert AbsDiff(1000.0).match(a, [_stored(b)]) is not None

    def test_no_bias_towards_late_events(self):
        """Unlike relDiff, a 10 µs difference is judged the same at t=10 and t=10000."""
        early_a, early_b = _seg((0.0, 10.0), end=20.0), _seg((0.0, 20.0), end=30.0)
        late_a, late_b = _seg((0.0, 10000.0), end=10010.0), _seg((0.0, 10010.0), end=10020.0)
        for threshold in (5.0, 15.0):
            metric = AbsDiff(threshold)
            assert (metric.match(early_a, [_stored(early_b)]) is None) == (
                metric.match(late_a, [_stored(late_b)]) is None
            )

    def test_on_match_increments_count(self):
        seg = _seg((1.0, 2.0), end=3.0)
        stored = _stored(seg)
        metric = AbsDiff(10.0)
        chosen = metric.match(seg, [stored])
        metric.on_match(np.asarray(seg.timestamps()), chosen)
        assert stored.count == 2
