"""The columnar EXPERT analyzer against the event walk it replaced.

``repro.analysis.expert.analyze`` sums frame columns; ``reference_analyze``
in ``tests/criteria_reference.py`` walks ``Event`` objects and adds one
contribution at a time.  They share no code.  Every comparison is exact: the
same report keys in the same order and ``array_equal`` cells (so the
``compare_diagnoses`` verdicts, violation and warning order included, are
equal too) — never a tolerance.
"""

import math
import random

import numpy as np
import pytest

from repro.analysis.compare import compare_diagnoses
from repro.analysis.expert import AnalysisError, analyze
from repro.analysis.patterns import LATE_RECEIVER, LATE_SENDER, WAIT_AT_BARRIER
from repro.core.frametrace import FrameTrace
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reconstruct import reconstruct
from repro.core.reducer import reduce_trace
from repro.experiments.config import ALL_WORKLOAD_NAMES, build_workload
from repro.trace.events import Event, MpiCallInfo
from repro.trace.segments import Segment
from repro.trace.trace import SegmentedRankTrace, SegmentedTrace

from tests.criteria_reference import reference_analyze, reference_reconstruct

NAN = float("nan")
INF = float("inf")


def assert_same_report(report, reference) -> None:
    assert report.name == reference.name
    assert report.nprocs == reference.nprocs
    assert report.wall_time == reference.wall_time
    assert list(report.severities) == list(reference.severities)
    assert list(report.signed) == list(reference.signed)
    for key, cells in reference.severities.items():
        assert np.array_equal(report.severities[key], cells, equal_nan=True), key
        assert np.array_equal(report.signed[key], reference.signed[key], equal_nan=True), key


def check(trace: SegmentedTrace):
    """Both entry forms of ``analyze`` against the walk; returns the report."""
    reference = reference_analyze(trace)
    report = analyze(trace)
    assert_same_report(report, reference)
    frames = FrameTrace.from_segmented(trace)
    assert_same_report(analyze(frames), reference)
    assert frames.materialized == 0
    return report


def check_error(trace: SegmentedTrace, message: str) -> None:
    with pytest.raises(AnalysisError) as reference_error:
        reference_analyze(trace)
    with pytest.raises(AnalysisError) as error:
        analyze(trace)
    assert str(error.value) == str(reference_error.value) == message


# -- whole workloads ---------------------------------------------------------------


@pytest.mark.parametrize("workload", ALL_WORKLOAD_NAMES)
def test_every_workload_method_and_fill_policy(workload):
    trace = build_workload(workload, "smoke").run_segmented()
    full = check(trace)
    for method in METRIC_NAMES:
        reduced = reduce_trace(trace, create_metric(method))
        for fill in ("last", "mean"):
            report = analyze(reconstruct(reduced, iter_k_fill=fill))
            reference = reference_analyze(reference_reconstruct(reduced, iter_k_fill=fill))
            assert_same_report(report, reference)
            assert compare_diagnoses(full, report) == compare_diagnoses(full, reference)


# -- hand-built traces ---------------------------------------------------------------


def call(name: str, start: float, mpi: MpiCallInfo | None = None, length: float = 1.0) -> Event:
    return Event(name=name, start=start, end=start + length, mpi=mpi)


def trace_of(*ranks: list[Event], ids=None) -> SegmentedTrace:
    """One segment per rank holding ``ranks[i]``'s events; rank ids default to ``0..n-1``."""
    ids = range(len(ranks)) if ids is None else ids
    return SegmentedTrace(
        name="hand",
        ranks=[
            SegmentedRankTrace(
                rank=rank,
                segments=[Segment(context="c", rank=rank, start=0.0, end=1000.0, events=events)],
            )
            for rank, events in zip(ids, ranks)
        ],
    )


def send(peer, tag=0, op="send"):
    return MpiCallInfo(op=op, peer=peer, tag=tag, nbytes=8)


def recv(peer, tag=0):
    return MpiCallInfo(op="recv", peer=peer, tag=tag, nbytes=8)


BARRIER = MpiCallInfo(op="barrier")


class TestPointToPoint:
    def test_ssend_adds_late_receiver(self):
        report = check(
            trace_of(
                [call("MPI_Ssend", 50.0, send(1, op="ssend")), call("MPI_Send", 60.0, send(1))],
                [call("MPI_Recv", 400.0, recv(0)), call("MPI_Recv", 30.0, recv(0))],
            )
        )
        assert report.per_rank(LATE_RECEIVER, "MPI_Ssend").tolist() == [350.0, 0.0]
        assert report.per_rank(LATE_SENDER, "MPI_Recv").tolist() == [0.0, 30.0]
        assert report.per_rank_signed(LATE_SENDER, "MPI_Recv").tolist() == [0.0, -320.0]

    def test_sendrecv_with_source_is_a_ring(self):
        def exchange(rank, start):
            info = MpiCallInfo(
                op="sendrecv", peer=(rank + 1) % 3, source=(rank - 1) % 3, tag=4, nbytes=8
            )
            return [call("f", 1.0), call("MPI_Sendrecv", start, info)]

        report = check(trace_of(exchange(0, 10.0), exchange(1, 70.0), exchange(2, 30.0)))
        # Each rank waits for its left neighbour's enter.
        assert report.per_rank_signed(LATE_SENDER, "MPI_Sendrecv").tolist() == [20.0, -60.0, 40.0]

    def test_sendrecv_without_source_receives_from_its_peer(self):
        swap = [MpiCallInfo(op="sendrecv", peer=1 - rank, tag=None, nbytes=8) for rank in (0, 1)]
        report = check(
            trace_of([call("MPI_Sendrecv", 5.0, swap[0])], [call("MPI_Sendrecv", 9.0, swap[1])])
        )
        assert report.per_rank_signed(LATE_SENDER, "MPI_Sendrecv").tolist() == [4.0, -4.0]

    def test_unmatched_sends_and_receives_stay_unpaired(self):
        report = check(
            trace_of(
                # three sends to rank 1 (one receive there), one to rank 2 (none there)
                [call("MPI_Send", t, send(1)) for t in (10.0, 20.0, 30.0)]
                + [call("MPI_Send", 40.0, send(2))],
                # one receive from rank 0, three from rank 2 (one send there)
                [call("MPI_Recv", 5.0, recv(0))]
                + [call("MPI_Recv_b", t, recv(2, tag=7)) for t in (6.0, 7.0, 8.0)],
                [call("MPI_Send", 100.0, send(1, tag=7)), call("MPI_Recv", 1.0, recv(1, tag=9))],
            )
        )
        assert report.per_rank(LATE_SENDER, "MPI_Recv").tolist() == [0.0, 5.0, 0.0]
        assert report.per_rank(LATE_SENDER, "MPI_Recv_b").tolist() == [0.0, 94.0, 0.0]

    def test_missing_tag_pairs_with_tag_zero(self):
        report = check(
            trace_of(
                [call("MPI_Send", 80.0, send(1, tag=None)), call("MPI_Recv", 2.0, recv(1, tag=0))],
                [call("MPI_Recv", 10.0, recv(0, tag=0)), call("MPI_Send", 1.0, send(0, tag=None))],
            )
        )
        assert report.per_rank_signed(LATE_SENDER, "MPI_Recv").tolist() == [-1.0, 70.0]

    def test_receive_keys_interleave_and_share_cells(self):
        """Several keys feed one cell: the sum follows first-receive order, then FIFO."""
        receives = [
            call("MPI_Recv", 0.1 * i, recv(source, tag))
            for i, (source, tag) in enumerate([(1, 0), (2, 0), (1, 1), (2, 0), (1, 0), (1, 1)])
        ]
        check(
            trace_of(
                receives,
                [call("MPI_Send", t, send(0, tag)) for t, tag in ((1e-3, 1), (1e16, 0), (0.3, 0))],
                [call("MPI_Ssend", t, send(0, op="ssend")) for t in (1.0 / 3.0, 2e15)],
            )
        )

    def test_nan_infinite_and_negative_zero_waits(self):
        report = check(
            trace_of(
                [
                    call("MPI_Send", NAN, send(1)),
                    call("MPI_Send", INF, send(1)),
                    call("MPI_Ssend", -0.0, send(1, tag=1, op="ssend")),
                ],
                [
                    call("MPI_Recv", 1.0, recv(0)),  # NaN - 1.0
                    call("MPI_Recv", INF, recv(0)),  # inf - inf
                    call("MPI_Recv_z", 0.0, recv(0, tag=1)),  # -0.0 - 0.0 = -0.0
                ],
            )
        )
        assert math.isnan(report.per_rank_signed(LATE_SENDER, "MPI_Recv")[1])
        assert report.per_rank(LATE_SENDER, "MPI_Recv").tolist() == [0.0, 0.0]
        assert report.per_rank_signed(LATE_SENDER, "MPI_Recv_z").tolist() == [0.0, 0.0]
        assert report.per_rank_signed(LATE_RECEIVER, "MPI_Ssend").tolist() == [0.0, 0.0]


class TestCollectives:
    def test_tied_enter_times(self):
        report = check(
            trace_of(*[[call("MPI_Barrier", t, BARRIER)] for t in (400.0, 100.0, 400.0, 250.0)])
        )
        assert report.per_rank(WAIT_AT_BARRIER, "MPI_Barrier").tolist() == [0.0, 300.0, 0.0, 150.0]
        check(trace_of(*[[call("MPI_Barrier", 7.0, BARRIER)] for _ in range(3)]))

    @pytest.mark.parametrize("op", ["barrier", "alltoall", "bcast", "scatter", "gather", "reduce"])
    @pytest.mark.parametrize(
        "enters",
        [
            (NAN, 5.0, 3.0),
            (5.0, NAN, 3.0),
            (5.0, 3.0, NAN),
            (NAN, NAN, 1.0),
            (NAN, NAN, NAN),
            (INF, INF, -INF),
            (-0.0, 0.0, -0.0),
        ],
    )
    def test_non_finite_and_signed_zero_enters(self, op, enters):
        """Python's ``max`` keeps a leading NaN and never lets a later one win."""
        info = MpiCallInfo(op=op, root=1 if op in ("bcast", "scatter", "gather", "reduce") else None)
        check(trace_of(*[[call("coll", t, info, length=0.0)] for t in enters]))

    def test_every_shape_in_one_sequence(self):
        ops = ["barrier", "bcast", "allreduce", "gather", "scatter", "reduce", "allgather",
               "alltoall", "barrier", "bcast"]
        rng = random.Random(5)

        def rank_events():
            events = []
            for seq, op in enumerate(ops):
                root = seq % 3 if op in ("bcast", "scatter", "gather", "reduce") else None
                events.append(call("work", rng.random()))
                events.append(call(f"MPI_{op}", rng.choice([1.0, 2.0, 3.0, rng.random()]),
                                   MpiCallInfo(op=op, root=root)))
            return events

        check(trace_of(rank_events(), rank_events(), rank_events()))

    def test_the_first_rank_names_the_instance(self):
        """Ranks may log one collective under different names and roots; rank 0's count."""
        check(
            trace_of(
                [call("bcast_a", 9.0, MpiCallInfo(op="bcast", root=1))],
                [call("bcast_b", 3.0, MpiCallInfo(op="bcast", root=0))],
                [call("bcast_c", 1.0, MpiCallInfo(op="bcast", root=None))],
            )
        )


class TestShapes:
    def test_single_rank_trace(self):
        report = check(
            trace_of(
                [
                    call("f", 1.0),
                    call("MPI_Barrier", 2.0, BARRIER),
                    call("MPI_Bcast", 3.0, MpiCallInfo(op="bcast", root=0)),
                    call("MPI_Gather", 4.0, MpiCallInfo(op="gather", root=0)),
                    call("MPI_Send", 5.0, send(0)),
                    call("MPI_Recv", 6.0, recv(0)),
                ]
            )
        )
        assert [metric for metric, _ in report.severities if metric != "Execution Time"] == [
            LATE_SENDER
        ]

    def test_rank_with_zero_events_and_rank_with_zero_segments(self):
        trace = trace_of([call("f", 1.0), call("MPI_Send", 2.0, send(2))], [], [call("g", 1.0)])
        trace.ranks[2].segments.clear()
        report = check(trace)
        assert list(report.severities) == [("Execution Time", "f"), ("Execution Time", "MPI_Send")]

    def test_no_ranks(self):
        report = check(SegmentedTrace(name="empty"))
        assert report.nprocs == 0 and report.severities == {}

    def test_rank_order_need_not_be_sorted(self):
        check(
            trace_of(
                [call("MPI_Bcast", 9.0, MpiCallInfo(op="bcast", root=2)), call("MPI_Recv", 1.0, recv(0))],
                [call("MPI_Bcast", 4.0, MpiCallInfo(op="bcast", root=2)), call("MPI_Send", 5.0, send(2))],
                [call("MPI_Bcast", 1.0, MpiCallInfo(op="bcast", root=2))],
                ids=[2, 0, 1],
            )
        )

    def test_seeded_random_traces(self):
        rng = random.Random(18)
        for _ in range(60):
            nprocs = rng.randint(1, 5)
            n_collectives = rng.randint(0, 4)
            plan = [
                (op, rng.randrange(nprocs))
                for op in rng.choices(["barrier", "allreduce", "bcast", "reduce"], k=n_collectives)
            ]
            ranks = []
            for rank in range(nprocs):
                slots = [("coll", entry) for entry in plan]
                slots += [("p2p", None)] * rng.randint(0, 8)
                slots += [("work", None)] * rng.randint(0, 3)
                collectives = iter(plan)
                events = []
                # Shuffle everything but keep the collectives in plan order.
                for kind, _ in rng.sample(slots, len(slots)):
                    start = rng.choice([0.0, 1.0, 2.5, rng.uniform(0.0, 10.0)])
                    if kind == "coll":
                        op, root = next(collectives)
                        rooted = op in ("bcast", "reduce")
                        info = MpiCallInfo(op=op, root=root if rooted else None)
                        events.append(call(f"MPI_{op}", start, info))
                    elif kind == "p2p":
                        op = rng.choice(["send", "ssend", "recv", "sendrecv"])
                        info = MpiCallInfo(
                            op=op,
                            peer=rng.randrange(nprocs),
                            source=rng.choice([None, rng.randrange(nprocs)]) if op == "sendrecv" else None,
                            tag=rng.choice([None, 0, 1]),
                        )
                        events.append(call(rng.choice(["p2p_a", "p2p_b"]), start, info))
                    else:
                        events.append(call(rng.choice(["f", "g"]), start))
                ranks.append(events)
            check(trace_of(*ranks))


class TestErrors:
    def test_participant_count(self):
        check_error(
            trace_of(
                [call("MPI_Barrier", 1.0, BARRIER), call("MPI_Barrier", 2.0, BARRIER)],
                [call("MPI_Barrier", 1.0, BARRIER)],
                [call("MPI_Barrier", 1.0, BARRIER), call("MPI_Barrier", 2.0, BARRIER)],
            ),
            "collective #1 has 2 participants, expected 3; "
            "the trace's collective sequence is inconsistent across ranks",
        )
        check_error(
            trace_of([call("MPI_Barrier", 1.0, BARRIER)], []),
            "collective #0 has 1 participants, expected 2; "
            "the trace's collective sequence is inconsistent across ranks",
        )

    def test_mixed_operations(self):
        check_error(
            trace_of(
                [call("c", 1.0, BARRIER), call("c", 2.0, MpiCallInfo(op="reduce", root=0))],
                [call("c", 1.0, BARRIER), call("c", 2.0, MpiCallInfo(op="alltoall"))],
                [call("c", 1.0, BARRIER), call("c", 2.0, BARRIER)],
            ),
            "collective #1 mixes operations ['alltoall', 'barrier', 'reduce']; "
            "ranks disagree on the collective call sequence",
        )

    def test_roots(self):
        check_error(
            trace_of(*[[call("MPI_Bcast", 1.0, MpiCallInfo(op="bcast"))] for _ in range(2)]),
            "fan-out collective #0 has no valid root",
        )
        check_error(
            trace_of(*[[call("MPI_Gather", 1.0, MpiCallInfo(op="gather", root=2))] for _ in range(2)]),
            "fan-in collective #0 has no valid root",
        )
        check_error(
            trace_of([call("MPI_Scatter", 1.0, MpiCallInfo(op="scatter", root=-1))]),
            "fan-out collective #0 has no valid root",
        )

    def test_the_lowest_sequence_number_reports_first(self):
        bad_root = MpiCallInfo(op="reduce", root=9)
        # #1 has a bad root, #2 mixes operations, rank 1 stops after #3.
        check_error(
            trace_of(
                [call("c", 1.0, BARRIER), call("c", 2.0, bad_root), call("c", 3.0, BARRIER),
                 call("c", 4.0, BARRIER), call("c", 5.0, BARRIER)],
                [call("c", 1.0, BARRIER), call("c", 2.0, bad_root),
                 call("c", 3.0, MpiCallInfo(op="alltoall")), call("c", 4.0, BARRIER)],
            ),
            "fan-in collective #1 has no valid root",
        )
        # One instance that both mixes operations and has no root: the mix is found first.
        check_error(
            trace_of([call("c", 1.0, MpiCallInfo(op="bcast"))], [call("c", 1.0, BARRIER)]),
            "collective #0 mixes operations ['barrier', 'bcast']; "
            "ranks disagree on the collective call sequence",
        )
        # A mix ahead of the point where a rank runs out of collectives.
        check_error(
            trace_of(
                [call("c", 1.0, BARRIER), call("c", 2.0, BARRIER)],
                [call("c", 1.0, MpiCallInfo(op="allgather"))],
            ),
            "collective #0 mixes operations ['allgather', 'barrier']; "
            "ranks disagree on the collective call sequence",
        )


class TestRankIds:
    """Rank ids index the report's cells: they must be ``0..nprocs-1``, each once.

    The walk indexed ``np.zeros(nprocs)`` with whatever id it met (a bare
    ``IndexError`` for a sparse id) and keyed its enter times by id (two rank
    traces with one id silently merged).
    """

    def test_sparse_ids(self):
        trace = trace_of([call("f", 1.0)], [call("f", 2.0)], [call("f", 3.0)], ids=[0, 2, 5])
        with pytest.raises(IndexError):
            reference_analyze(trace)
        with pytest.raises(AnalysisError, match=r"exactly 0\.\.2.*offending rank ids: \[5\]"):
            analyze(trace)
        with pytest.raises(AnalysisError, match=r"offending rank ids: \[5\]"):
            analyze(FrameTrace.from_segmented(trace))

    def test_duplicate_ids(self):
        trace = trace_of(
            [call("MPI_Barrier", 1.0, BARRIER)],
            [call("MPI_Barrier", 5.0, BARRIER)],
            [call("MPI_Barrier", 9.0, BARRIER)],
            ids=[0, 1, 1],
        )
        reference_analyze(trace)  # merges the two rank-1 traces without a word
        with pytest.raises(AnalysisError, match=r"exactly 0\.\.2.*offending rank ids: \[1\]"):
            analyze(trace)

    def test_error_precedes_any_other_check(self):
        trace = trace_of([call("MPI_Barrier", 1.0, BARRIER)], [], ids=[-1, 7])
        with pytest.raises(AnalysisError, match=r"offending rank ids: \[-1, 7\]"):
            analyze(trace)
