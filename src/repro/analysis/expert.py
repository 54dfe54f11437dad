"""EXPERT-style trace analyzer.

The analyzer reads a segmented application trace (full or reconstructed) as
columnar frames, pairs matching MPI events across ranks, and accumulates
wait-state severities into a :class:`~repro.analysis.report.DiagnosisReport`.
A :class:`~repro.trace.trace.SegmentedTrace` is adapted to frames at the door.

Event pairing uses MPI ordering semantics only — no hidden metadata — so it
works identically on reconstructed traces:

* collectives are paired by their per-rank collective-call sequence number
  (MPI requires every rank to issue collectives on a communicator in the same
  order);
* point-to-point messages are paired FIFO per ``(source, destination, tag)``
  (MPI's non-overtaking rule).

Accumulation-order contract
---------------------------
The report is defined by an event walk: visit the ranks in trace order and
add every event's duration to ``(Execution Time, name)[rank]``; then visit
the collectives by sequence number, ranks in trace order within one; then the
point-to-point pairs, receive keys in order of first appearance, FIFO within
a key, the Late Sender contribution of a pair before its Late Receiver one.
Each contribution is ``cell += value`` on a cell that starts at ``0.0``, and
a report key is created by its first contribution.

The columnar form builds that same contribution stream as arrays, in that
order, and sums it with ``np.bincount(cells, weights=...)``, which adds one
weight at a time in stream order to a zero-initialised output — the walk's
additions, so every cell is bit-equal to it, not merely close (a pairwise
``np.sum`` would not be).  ``waiting`` is ``np.where(signed > 0.0, signed,
0.0)``, which is ``max(0.0, signed)`` for every float including NaN and
``-0.0``; the "last other rank" of a collective follows Python's ``max`` (a
leading NaN is kept, later ones never win); report keys are inserted in order
of first appearance in the stream.  ``tests/criteria_reference.py`` keeps the
walk, and ``tests/analysis/test_columnar_expert.py`` holds this module to it.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.patterns import (
    EARLY_GATHER,
    EXECUTION_TIME,
    LATE_BROADCAST,
    LATE_RECEIVER,
    LATE_SENDER,
    WAIT_AT_BARRIER,
    WAIT_AT_NXN,
)
from repro.analysis.report import DiagnosisReport
from repro.core.frames import RankFrame
from repro.core.frametrace import FrameTrace

__all__ = ["analyze", "AnalysisError"]


class AnalysisError(RuntimeError):
    """Raised when the trace cannot be analyzed (inconsistent communication)."""


#: A report key travels through the stream as ``name id * len(_METRICS) + metric id``.
_METRICS = (
    EXECUTION_TIME,
    WAIT_AT_BARRIER,
    WAIT_AT_NXN,
    LATE_BROADCAST,
    EARLY_GATHER,
    LATE_SENDER,
    LATE_RECEIVER,
)
_METRIC_ID = {metric: ident for ident, metric in enumerate(_METRICS)}

#: What each collective operation is: who waits for whom, and under which metric.
_NXN, _FAN_OUT, _FAN_IN = 0, 1, 2
_COLLECTIVE = {
    "barrier": (_NXN, WAIT_AT_BARRIER),
    "allreduce": (_NXN, WAIT_AT_NXN),
    "allgather": (_NXN, WAIT_AT_NXN),
    "alltoall": (_NXN, WAIT_AT_NXN),
    "bcast": (_FAN_OUT, LATE_BROADCAST),
    "scatter": (_FAN_OUT, LATE_BROADCAST),
    "gather": (_FAN_IN, EARLY_GATHER),
    "reduce": (_FAN_IN, EARLY_GATHER),
}
#: The same table as arrays indexed by op code (an op's position in it).
_COLLECTIVES = tuple(_COLLECTIVE)
_OP_CODE = {op: code for code, op in enumerate(_COLLECTIVES)}
_SHAPE = np.array([shape for shape, _ in _COLLECTIVE.values()])
_COLLECTIVE_METRIC = np.array([_METRIC_ID[metric] for _, metric in _COLLECTIVE.values()])


@np.errstate(invalid="ignore")  # inf - inf is a quiet NaN, as it is for the floats of a walk
def analyze(trace) -> DiagnosisReport:
    """Analyze a segmented (or frame-backed) trace and return its diagnosis report."""
    if not isinstance(trace, FrameTrace):
        trace = FrameTrace.from_segmented(trace)
    frames = [rank.frame for rank in trace.ranks]
    nprocs = len(frames)
    report = DiagnosisReport(name=trace.name, nprocs=nprocs, wall_time=trace.duration())
    rank_ids = [frame.rank for frame in frames]
    if sorted(rank_ids) != list(range(nprocs)):
        offending = sorted(
            {rank for rank in rank_ids if not 0 <= rank < nprocs or rank_ids.count(rank) > 1}
        )
        raise AnalysisError(
            f"rank ids must be exactly 0..{nprocs - 1}, one rank trace each; "
            f"offending rank ids: {offending}"
        )

    if not frames:
        return report
    names: dict[str, int] = {}  # event name -> id, shared by all ranks
    key_ids, ranks, waiting, signed = _contribution_stream(
        frames, np.asarray(rank_ids, dtype=np.int64), names
    )

    # One sequential accumulation per cell, in stream order (see module docstring).
    present, first, dense = np.unique(key_ids, return_index=True, return_inverse=True)
    cells = dense * nprocs + ranks
    shape = (len(present), nprocs)
    severities = np.bincount(cells, weights=waiting, minlength=len(present) * nprocs).reshape(shape)
    signed_sums = np.bincount(cells, weights=signed, minlength=len(present) * nprocs).reshape(shape)
    locations = list(names)
    for row in np.argsort(first, kind="stable").tolist():
        name_id, metric_id = divmod(int(present[row]), len(_METRICS))
        key = (_METRICS[metric_id], locations[name_id])
        report.severities[key] = severities[row]
        report.signed[key] = signed_sums[row]
    return report


def _contribution_stream(
    frames: list[RankFrame], rank_ids: np.ndarray, names: dict[str, int]
) -> list[np.ndarray]:
    """Every contribution of the trace, in walk order: key ids, ranks, waiting, signed.

    Event names are interned into ``names`` (name -> id, shared by all ranks)
    as they are met.
    """
    p2p_keys: dict[tuple, int] = {}  # (source, destination, tag) -> id
    events = []  # per rank: name id, enter, exit, then its MPI call's classification
    for frame in frames:
        name_ids = np.fromiter(
            (names.setdefault(name, len(names)) for name in frame.strings),
            dtype=np.int64,
            count=len(frame.strings),
        )
        events.append(
            (
                name_ids[frame.ev_names],
                frame.ev_starts,
                frame.ev_ends,
                *(entry[frame.ev_mpi] for entry in _classify_calls(frame, p2p_keys)),
            )
        )
    rank = np.repeat(rank_ids, [frame.n_events for frame in frames])
    # All ranks' columns end to end; op and root (3, 4) are only read rank by rank.
    name, enter, exit_, send_key, recv_key, synchronous = (
        np.concatenate([columns[at] for columns in events]) for at in (0, 1, 2, 5, 6, 7)
    )
    durations = exit_ - enter
    stream = [(name * len(_METRICS) + _METRIC_ID[EXECUTION_TIME], rank, durations, durations)]
    for key_ids, ranks, signed in (
        _collective_contributions(events, rank_ids),
        _p2p_contributions(name, rank, enter, send_key, recv_key, synchronous, len(p2p_keys)),
    ):
        stream.append((key_ids, ranks, np.where(signed > 0.0, signed, 0.0), signed))
    return [np.concatenate(column) for column in zip(*stream)]


def _classify_calls(frame: RankFrame, p2p_keys: dict[tuple, int]) -> tuple[np.ndarray, ...]:
    """Classify each entry of one rank's MPI table, once.

    Returns five arrays indexed by MPI-table id, each one slot longer than the
    table so that ``-1`` ("no MPI call") reads the trailing "nothing" slot:
    collective op code, collective root (``-1`` = none), interned send key,
    interned receive key (``-1`` = not that kind of call), and whether the
    call is a synchronous send.  A ``sendrecv`` is both a send and a receive.
    """
    size = len(frame.mpi_table) + 1
    op_of = np.full(size, -1, dtype=np.int32)  # narrow: these fan out to one value per event
    root_of = np.full(size, -1, dtype=np.int64)  # a file may name any root
    send_of = np.full(size, -1, dtype=np.int32)
    recv_of = np.full(size, -1, dtype=np.int32)
    ssend_of = np.zeros(size, dtype=bool)
    rank = frame.rank
    for ident, info in enumerate(frame.mpi_table):
        op = info.op
        if info.is_collective:
            op_of[ident] = _OP_CODE[op]
            if info.root is not None:
                root_of[ident] = info.root
            continue
        tag = info.tag or 0
        if op != "recv":
            send_of[ident] = p2p_keys.setdefault((rank, info.peer, tag), len(p2p_keys))
            ssend_of[ident] = op == "ssend"
        if op == "recv" or op == "sendrecv":
            # The receive half of a sendrecv names its own source when it has one.
            source = info.source if op == "sendrecv" and info.source is not None else info.peer
            recv_of[ident] = p2p_keys.setdefault((source, rank, tag), len(p2p_keys))
    return op_of, root_of, send_of, recv_of, ssend_of


# -- collectives ---------------------------------------------------------------


def _collective_contributions(
    events: list[tuple], rank_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wait-state contributions of the collectives, sequence-major.

    ``events`` holds each rank's event columns (see :func:`analyze`); a
    rank's collective calls, in order, are its collective sequence.  Column
    ``seq`` of the ``nprocs × n`` enter matrix is one collective instance;
    the first rank's op, root and name speak for the instance, as in the walk.
    """
    nprocs = len(rank_ids)
    sequences = []  # per rank: (name, enter, op, root) of its collective calls
    for name, enter, _, op, root, *_ in events:
        at = np.flatnonzero(op >= 0)
        sequences.append((name[at], enter[at], op[at], root[at]))
    counts = [len(op) for _, _, op, _ in sequences]
    n = min(counts)
    enters = np.stack([enter[:n] for _, enter, _, _ in sequences])
    ops = np.stack([op[:n] for _, _, op, _ in sequences])
    name, _, op, root = (column[:n] for column in sequences[0])
    shape = _SHAPE[op]

    mixed = np.flatnonzero((ops != op).any(axis=0))
    rootless = np.flatnonzero((shape != _NXN) & ((root < 0) | (root >= nprocs)))
    if len(mixed) and (not len(rootless) or mixed[0] <= rootless[0]):
        seq = int(mixed[0])
        found = sorted({_COLLECTIVES[code] for code in ops[:, seq].tolist()})
        raise AnalysisError(
            f"collective #{seq} mixes operations {found}; "
            "ranks disagree on the collective call sequence"
        )
    if len(rootless):
        seq = int(rootless[0])
        kind = "fan-out" if shape[seq] == _FAN_OUT else "fan-in"
        raise AnalysisError(f"{kind} collective #{seq} has no valid root")
    if max(counts) > n:
        raise AnalysisError(
            f"collective #{n} has {sum(count > n for count in counts)} participants, "
            f"expected {nprocs}; "
            "the trace's collective sequence is inconsistent across ranks"
        )
    if nprocs == 1 or n == 0:
        # A lone rank waits for nobody: no contribution, no report key.
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64)

    # The latest enter among the *other* ranks, as Python's ``max`` over them
    # in rank order finds it: the column's top value, or the runner-up for
    # the rank that holds the top; NaN never wins a comparison, except that a
    # NaN in first place is never displaced.
    seqs = np.arange(n)
    comparable = np.where(np.isnan(enters), -np.inf, enters)
    top = comparable.argmax(axis=0)
    last_other = np.broadcast_to(comparable[top, seqs], enters.shape).copy()
    comparable[top, seqs] = -np.inf
    last_other[top, seqs] = comparable.max(axis=0)
    first_other = np.broadcast_to(enters[0], enters.shape).copy()
    first_other[0] = enters[1]
    last_other = np.where(np.isnan(first_other), first_other, last_other)

    fan_out = np.flatnonzero(shape == _FAN_OUT)
    fan_in = np.flatnonzero(shape == _FAN_IN)
    row_of_rank = np.argsort(rank_ids)
    root_row = row_of_rank[np.where(shape == _NXN, 0, root)]
    # N×N: each rank waits for the last other rank.  Fan-in: so does the
    # root, alone.  Fan-out: everyone but the root waits for the root.
    signed = last_other - enters
    signed[:, fan_out] = enters[root_row[fan_out], fan_out] - enters[:, fan_out]
    contributes = np.ones(enters.shape, dtype=bool)
    contributes[:, fan_in] = False
    contributes[root_row[fan_in], fan_in] = True
    contributes[root_row[fan_out], fan_out] = False

    by_seq = contributes.T
    key_of_seq = name * len(_METRICS) + _COLLECTIVE_METRIC[op]
    return (
        np.broadcast_to(key_of_seq[:, None], by_seq.shape)[by_seq],
        np.broadcast_to(rank_ids, by_seq.shape)[by_seq],
        signed.T[by_seq],
    )


# -- point-to-point --------------------------------------------------------------


def _p2p_contributions(
    name: np.ndarray,
    rank: np.ndarray,
    enter: np.ndarray,
    send_key: np.ndarray,
    recv_key: np.ndarray,
    synchronous: np.ndarray,
    n_keys: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Late Sender / Late Receiver contributions of the message pairs.

    The arguments are the event columns of all ranks in walk order; an event
    with a send key is a send, one with a receive key a receive (a
    ``sendrecv`` is both).  The ``i``-th send of a key pairs with its ``i``-th
    receive; surplus events on either side stay unpaired.  Pairs come out
    receive key by receive key, in order of each key's first receive.
    """
    sent = np.flatnonzero(send_key >= 0)
    received = np.flatnonzero(recv_key >= 0)
    send_key, recv_key = send_key[sent], recv_key[received]
    send_count = np.bincount(send_key, minlength=n_keys)
    recv_count = np.bincount(recv_key, minlength=n_keys)
    seen, first = np.unique(recv_key, return_index=True)
    key_order = seen[np.argsort(first, kind="stable")]
    order_of_key = np.zeros(n_keys, dtype=np.int64)
    order_of_key[key_order] = np.arange(len(key_order))

    # Receives grouped by key (a stable sort keeps each key's FIFO order),
    # each with its position in the key's queue and the send at that position.
    recv_sorted = np.argsort(order_of_key[recv_key], kind="stable")
    send_sorted = np.argsort(send_key, kind="stable")
    group = recv_count[key_order]
    key_of = np.repeat(key_order, group)
    fifo = np.arange(len(recv_key)) - np.repeat(np.cumsum(group) - group, group)
    paired = fifo < send_count[key_of]
    recv_at = received[recv_sorted[paired]]
    send_at = sent[send_sorted[((np.cumsum(send_count) - send_count)[key_of] + fifo)[paired]]]

    # Per pair: the receiver's Late Sender wait, then — for a synchronous
    # send only — the sender's Late Receiver wait.
    n_metrics = len(_METRICS)
    keep = np.stack([np.ones(len(recv_at), dtype=bool), synchronous[send_at]], axis=1)
    return (
        np.stack(
            [
                name[recv_at] * n_metrics + _METRIC_ID[LATE_SENDER],
                name[send_at] * n_metrics + _METRIC_ID[LATE_RECEIVER],
            ],
            axis=1,
        )[keep],
        np.stack([rank[recv_at], rank[send_at]], axis=1)[keep],
        np.stack([enter[send_at] - enter[recv_at], enter[recv_at] - enter[send_at]], axis=1)[keep],
    )
