"""Tests for pattern severity definitions."""

import pytest

from repro.analysis.patterns import (
    EARLY_GATHER,
    LATE_BROADCAST,
    LATE_RECEIVER,
    LATE_SENDER,
    METRIC_ABBREVIATIONS,
    WAIT_AT_BARRIER,
    WAIT_AT_NXN,
    WAIT_METRICS,
)

from tests.criteria_reference import (
    PatternContribution,
    early_gather_contribution,
    late_broadcast_contribution,
    late_receiver_contribution,
    late_sender_contribution,
    nxn_wait_contribution,
)


class TestPatternContribution:
    def test_from_signed_clamps_waiting(self):
        c = PatternContribution.from_signed("m", "loc", 0, -5.0)
        assert c.waiting == 0.0
        assert c.signed == -5.0

    def test_positive_signed_preserved(self):
        c = PatternContribution.from_signed("m", "loc", 0, 7.0)
        assert c.waiting == 7.0 == c.signed


class TestContributionFormulas:
    def test_late_sender(self):
        c = late_sender_contribution("MPI_Recv", 1, recv_enter=100.0, send_enter=350.0)
        assert c.metric == LATE_SENDER
        assert c.rank == 1
        assert c.waiting == pytest.approx(250.0)

    def test_late_sender_negative_when_sender_early(self):
        c = late_sender_contribution("MPI_Recv", 1, recv_enter=400.0, send_enter=350.0)
        assert c.waiting == 0.0
        assert c.signed == pytest.approx(-50.0)

    def test_late_receiver(self):
        c = late_receiver_contribution("MPI_Ssend", 0, send_enter=10.0, recv_enter=200.0)
        assert c.metric == LATE_RECEIVER
        assert c.waiting == pytest.approx(190.0)

    def test_late_broadcast(self):
        c = late_broadcast_contribution("MPI_Bcast", 3, receiver_enter=50.0, root_enter=500.0)
        assert c.metric == LATE_BROADCAST
        assert c.waiting == pytest.approx(450.0)

    def test_early_gather(self):
        c = early_gather_contribution("MPI_Gather", 0, root_enter=10.0, last_sender_enter=600.0)
        assert c.metric == EARLY_GATHER
        assert c.waiting == pytest.approx(590.0)

    def test_nxn_wait(self):
        c = nxn_wait_contribution(WAIT_AT_NXN, "MPI_Alltoall", 2, own_enter=100.0, last_other_enter=900.0)
        assert c.waiting == pytest.approx(800.0)

    def test_nxn_last_arriver_has_negative_signed(self):
        c = nxn_wait_contribution(WAIT_AT_BARRIER, "MPI_Barrier", 2, own_enter=900.0, last_other_enter=100.0)
        assert c.waiting == 0.0
        assert c.signed == pytest.approx(-800.0)


class TestMetricSets:
    def test_wait_metrics_exclude_execution_time(self):
        assert "Execution Time" not in WAIT_METRICS
        assert LATE_SENDER in WAIT_METRICS

    def test_every_metric_has_abbreviation(self):
        for metric in WAIT_METRICS:
            assert metric in METRIC_ABBREVIATIONS
