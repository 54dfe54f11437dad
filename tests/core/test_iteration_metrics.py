"""Unit tests for the iteration-based methods (iter_k, iter_avg)."""

import numpy as np
import pytest

from repro.core.metrics.iteration import IterAvg, IterK
from repro.core.reduced import StoredSegment

from tests.conftest import make_segment


def _seg(value, end=None):
    return make_segment("c", [("f", 1.0, value)], end=end if end is not None else value + 1.0)


def _stored(segment, sid=0):
    return StoredSegment(segment_id=sid, segment=segment)


class TestIterK:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            IterK(0)

    def test_no_match_until_k_copies_stored(self):
        metric = IterK(3)
        stored = [_stored(_seg(10.0), 0), _stored(_seg(11.0), 1)]
        assert metric.match(_seg(12.0), stored) is None

    def test_match_once_k_copies_stored(self):
        metric = IterK(2)
        stored = [_stored(_seg(10.0), 0), _stored(_seg(11.0), 1)]
        chosen = metric.match(_seg(12.0), stored)
        assert chosen is stored[-1], "fills in with the last collected copy"

    def test_k_one_matches_immediately(self):
        metric = IterK(1)
        stored = [_stored(_seg(10.0), 0)]
        assert metric.match(_seg(99.0), stored) is not None

    def test_threshold_reports_k(self):
        assert IterK(10).threshold == 10.0

    def test_measurements_ignored(self):
        """iter_k never looks at the measurements, only at the copy count."""
        metric = IterK(1)
        wildly_different = _seg(1e9)
        assert metric.match(wildly_different, [_stored(_seg(1.0))]) is not None


class TestIterAvg:
    def test_always_matches_first_stored(self):
        metric = IterAvg()
        stored = [_stored(_seg(10.0), 0)]
        assert metric.match(_seg(1e6, end=2e6), stored) is stored[0]

    def test_no_stored_no_match(self):
        assert IterAvg().match(_seg(1.0), []) is None

    def test_on_match_updates_running_mean(self):
        stored = _stored(_seg(10.0, end=20.0))
        metric = IterAvg()
        metric.on_match(np.asarray(_seg(20.0, end=40.0).timestamps()), stored)
        # mean of (10, 20) for the event end, (20, 40) for the segment end
        assert stored.segment.events[0].end == pytest.approx(15.0)
        assert stored.segment.end == pytest.approx(30.0)
        assert stored.count == 2

    def test_incremental_mean_matches_batch_mean(self):
        stored = _stored(_seg(10.0, end=20.0))
        metric = IterAvg()
        values = [20.0, 30.0, 60.0]
        for v in values:
            metric.on_match(np.asarray(_seg(v, end=2 * v).timestamps()), stored)
        expected_event_end = np.mean([10.0] + values)
        assert stored.segment.events[0].end == pytest.approx(expected_event_end)
        assert stored.count == 4

    def test_mismatched_structure_rejected(self):
        stored = _stored(_seg(10.0))
        other = make_segment("c", [("f", 1.0, 2.0), ("g", 3.0, 4.0)], end=5.0)
        with pytest.raises(ValueError):
            stored.update_mean(np.asarray(other.timestamps()))

    def test_threshold_is_none(self):
        assert IterAvg().threshold is None
        assert IterAvg().describe() == "iter_avg"
