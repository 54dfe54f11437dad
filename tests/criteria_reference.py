"""Reference implementations of the two object-walking evaluation criteria.

``repro.core.reconstruct`` and ``repro.analysis.expert`` are columnar: they
gather and sum frame columns.  These are the statements of the same two
computations they replaced, kept here — outside ``src/`` — as oracles that
share no code with their subjects:

* :func:`reference_reconstruct` replays every ``segmentExecs`` entry by
  shifting the stored representative's ``Segment``/``Event`` objects;
* :func:`reference_analyze` walks ``Event`` objects rank by rank, queues the
  MPI calls in dicts of lists, and adds one scalar pattern contribution (the
  ``*_contribution`` severity formulas below) at a time with
  ``DiagnosisReport.add`` (neither of which the columnar analyzer calls).

``tests/core/test_columnar_reconstruct.py`` and
``tests/analysis/test_columnar_expert.py`` require bit-identical results.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from repro.analysis.expert import AnalysisError
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
from repro.core.reduced import ReducedRankTrace, ReducedTrace
from repro.trace.events import Event
from repro.trace.segments import Segment
from repro.trace.trace import SegmentedRankTrace, SegmentedTrace

IterKFill = Literal["last", "mean"]


# -- reconstruction: one shifted copy of the representative per execution ----------


def _mean_segment(group: list[Segment]) -> Segment:
    """Build a synthetic segment holding the mean timestamps of ``group``."""
    template = group[-1]
    stacked = np.vstack([np.asarray(member.timestamps(), dtype=float) for member in group])
    mean = stacked.mean(axis=0)
    events = []
    for i, event in enumerate(template.events):
        events.append(
            type(event)(
                name=event.name,
                start=float(min(mean[2 * i], mean[2 * i + 1])),
                end=float(mean[2 * i + 1]),
                rank=event.rank,
                mpi=event.mpi,
            )
        )
    return Segment(
        context=template.context,
        rank=template.rank,
        start=0.0,
        end=float(mean[-1]),
        events=events,
        index=template.index,
    )


def reference_reconstruct_rank(
    reduced: ReducedRankTrace, *, iter_k_fill: IterKFill = "last"
) -> SegmentedRankTrace:
    """Replay one rank execution by execution: shift the representative's objects."""
    if iter_k_fill not in ("last", "mean"):
        raise ValueError(f"iter_k_fill must be 'last' or 'mean', got {iter_k_fill!r}")
    by_id = dict(enumerate(reduced.segments()))

    # Pre-compute mean representatives per structural group when requested.
    mean_by_id: dict[int, Segment] = {}
    if iter_k_fill == "mean":
        groups: dict[tuple, list[int]] = {}
        for segment_id, segment in by_id.items():
            groups.setdefault(segment.structure(), []).append(segment_id)
        for group in groups.values():
            mean_by_id[group[-1]] = _mean_segment([by_id[sid] for sid in group])

    segments: list[Segment] = []
    for index, ((segment_id, start), was_match) in enumerate(
        zip(reduced.execs, reduced.exec_columns()[2].tolist())
    ):
        representative = by_id.get(segment_id)
        if representative is None:
            raise KeyError(
                f"execution entry references unknown segment id {segment_id} on rank {reduced.rank}"
            )
        if was_match and iter_k_fill == "mean" and segment_id in mean_by_id:
            representative = mean_by_id[segment_id]
        rebuilt = representative.shifted(start).with_rank(reduced.rank)
        rebuilt.index = index
        segments.append(rebuilt)
    return SegmentedRankTrace(rank=reduced.rank, segments=segments)


def reference_reconstruct(reduced: ReducedTrace, *, iter_k_fill: IterKFill = "last") -> SegmentedTrace:
    """The object-replay reconstruction of every rank."""
    return SegmentedTrace(
        name=reduced.name,
        ranks=[reference_reconstruct_rank(rank, iter_k_fill=iter_k_fill) for rank in reduced.ranks],
    )


# -- analysis: the scalar severity formulas ----------------------------------------


@dataclass(frozen=True, slots=True)
class PatternContribution:
    """One pattern instance's contribution to the severity matrix."""

    metric: str
    location: str
    rank: int
    waiting: float
    signed: float

    @staticmethod
    def from_signed(metric: str, location: str, rank: int, signed: float) -> "PatternContribution":
        return PatternContribution(
            metric=metric,
            location=location,
            rank=rank,
            waiting=max(0.0, signed),
            signed=signed,
        )


def late_sender_contribution(
    location: str, receiver_rank: int, recv_enter: float, send_enter: float
) -> PatternContribution:
    """Late Sender: receiver waited ``send enter − receive enter`` µs."""
    return PatternContribution.from_signed(
        LATE_SENDER, location, receiver_rank, send_enter - recv_enter
    )


def late_receiver_contribution(
    location: str, sender_rank: int, send_enter: float, recv_enter: float
) -> PatternContribution:
    """Late Receiver: synchronous sender waited ``receive enter − send enter`` µs."""
    return PatternContribution.from_signed(
        LATE_RECEIVER, location, sender_rank, recv_enter - send_enter
    )


def late_broadcast_contribution(
    location: str, receiver_rank: int, receiver_enter: float, root_enter: float
) -> PatternContribution:
    """Late Broadcast: fan-out receiver waited ``root enter − own enter`` µs."""
    return PatternContribution.from_signed(
        LATE_BROADCAST, location, receiver_rank, root_enter - receiver_enter
    )


def early_gather_contribution(
    location: str, root_rank: int, root_enter: float, last_sender_enter: float
) -> PatternContribution:
    """Early Gather/Reduce: root waited ``last sender enter − root enter`` µs."""
    return PatternContribution.from_signed(
        EARLY_GATHER, location, root_rank, last_sender_enter - root_enter
    )


def nxn_wait_contribution(
    metric: str, location: str, rank: int, own_enter: float, last_other_enter: float
) -> PatternContribution:
    """Wait at Barrier / Wait at N×N: waited ``last other enter − own enter`` µs."""
    return PatternContribution.from_signed(metric, location, rank, last_other_enter - own_enter)


# -- analysis: the event walk ------------------------------------------------------


@dataclass(slots=True)
class _MpiEventRef:
    rank: int
    event: Event


def reference_analyze(trace) -> DiagnosisReport:
    """The event-walk analysis of ``trace`` (segment lists or frame-backed)."""
    nprocs = trace.nprocs
    report = DiagnosisReport(name=trace.name, nprocs=nprocs, wall_time=trace.duration())

    collective_groups: dict[int, list[_MpiEventRef]] = defaultdict(list)
    pending_sends: dict[tuple[int, int, int], list[_MpiEventRef]] = defaultdict(list)
    pending_recvs: dict[tuple[int, int, int], list[_MpiEventRef]] = defaultdict(list)

    for rank_trace in trace.ranks:
        rank = rank_trace.rank
        collective_seq = 0
        for event in rank_trace.events():
            report.add(EXECUTION_TIME, event.name, rank, event.duration, event.duration)
            if event.mpi is None:
                continue
            info = event.mpi
            ref = _MpiEventRef(rank=rank, event=event)
            if info.is_collective:
                collective_groups[collective_seq].append(ref)
                collective_seq += 1
            elif info.op in ("send", "ssend"):
                pending_sends[(rank, info.peer, info.tag or 0)].append(ref)
            elif info.op == "recv":
                pending_recvs[(info.peer, rank, info.tag or 0)].append(ref)
            elif info.op == "sendrecv":
                # The send half can make a remote receiver wait (Late Sender
                # at the remote side); the receive half can itself be a Late
                # Sender victim.  Both halves are registered like their plain
                # point-to-point counterparts.
                pending_sends[(rank, info.peer, info.tag or 0)].append(ref)
                source = info.source if info.source is not None else info.peer
                pending_recvs[(source, rank, info.tag or 0)].append(ref)

    for contribution in _collective_contributions(collective_groups, nprocs):
        report.add(
            contribution.metric,
            contribution.location,
            contribution.rank,
            contribution.waiting,
            contribution.signed,
        )
    for contribution in _p2p_contributions(pending_sends, pending_recvs):
        report.add(
            contribution.metric,
            contribution.location,
            contribution.rank,
            contribution.waiting,
            contribution.signed,
        )
    return report


# -- collectives ---------------------------------------------------------------


def _collective_contributions(
    groups: dict[int, list[_MpiEventRef]], nprocs: int
) -> Iterable[PatternContribution]:
    for seq, members in sorted(groups.items()):
        if len(members) != nprocs:
            raise AnalysisError(
                f"collective #{seq} has {len(members)} participants, expected {nprocs}; "
                "the trace's collective sequence is inconsistent across ranks"
            )
        ops = {m.event.mpi.op for m in members}
        if len(ops) != 1:
            raise AnalysisError(
                f"collective #{seq} mixes operations {sorted(ops)}; "
                "ranks disagree on the collective call sequence"
            )
        op = ops.pop()
        location = members[0].event.name
        enters = {m.rank: m.event.start for m in members}
        if op in ("barrier", "allreduce", "allgather", "alltoall"):
            metric = WAIT_AT_BARRIER if op == "barrier" else WAIT_AT_NXN
            for member in members:
                others = [t for r, t in enters.items() if r != member.rank]
                if not others:
                    continue
                yield nxn_wait_contribution(
                    metric, location, member.rank, enters[member.rank], max(others)
                )
        elif op in ("bcast", "scatter"):
            root = members[0].event.mpi.root
            if root is None or root not in enters:
                raise AnalysisError(f"fan-out collective #{seq} has no valid root")
            root_enter = enters[root]
            for member in members:
                if member.rank == root:
                    continue
                yield late_broadcast_contribution(
                    location, member.rank, enters[member.rank], root_enter
                )
        elif op in ("gather", "reduce"):
            root = members[0].event.mpi.root
            if root is None or root not in enters:
                raise AnalysisError(f"fan-in collective #{seq} has no valid root")
            senders = [t for r, t in enters.items() if r != root]
            if senders:
                yield early_gather_contribution(location, root, enters[root], max(senders))
        else:  # pragma: no cover - collective op set is closed
            raise AnalysisError(f"unknown collective operation {op!r}")


# -- point-to-point --------------------------------------------------------------


def _p2p_contributions(
    sends: dict[tuple[int, int, int], list[_MpiEventRef]],
    recvs: dict[tuple[int, int, int], list[_MpiEventRef]],
) -> Iterable[PatternContribution]:
    for key, recv_list in recvs.items():
        send_list = sends.get(key, [])
        for send_ref, recv_ref in zip(send_list, recv_list):
            send_event = send_ref.event
            recv_event = recv_ref.event
            yield late_sender_contribution(
                recv_event.name, recv_ref.rank, recv_event.start, send_event.start
            )
            if send_event.mpi is not None and send_event.mpi.op == "ssend":
                yield late_receiver_contribution(
                    send_event.name, send_ref.rank, send_event.start, recv_event.start
                )
