"""Raw trace records.

Records are what the simulated tracer writes during execution, mirroring the
time-stamped function entry/exit records (plus segment markers) described in
Section 3.1 of the paper.  Segmentation (pairing ENTER/EXIT into events and
grouping them under SEGMENT markers) happens after collection in
:mod:`repro.trace.segments`, just as a real post-mortem tool would do.

A rank's records are a ``Sequence[TraceRecord]``: a list, or a
:class:`RecordColumns`, which holds them as columns (what the simulator
appends and the ``.rpb`` writer encodes whole) and builds a record object only
when one is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Optional, Sequence

from repro.trace.events import MpiCallInfo, validate_name

__all__ = ["RecordKind", "TraceRecord", "RecordColumns", "check_record"]


class RecordKind(IntEnum):
    """Kind of a raw trace record."""

    ENTER = 0
    EXIT = 1
    SEGMENT_BEGIN = 2
    SEGMENT_END = 3


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One time-stamped trace record.

    Attributes
    ----------
    kind:
        Record kind (function enter/exit or segment marker).
    rank:
        MPI rank that produced the record.
    timestamp:
        Microseconds since the start of the run (rank-local virtual clock).
    name:
        Function name for ENTER/EXIT, segment context (e.g. ``"main.1"``) for
        segment markers.
    mpi:
        MPI call parameters; present only on the ENTER record of an MPI call.
    """

    kind: RecordKind
    rank: int
    timestamp: float
    name: str
    mpi: Optional[MpiCallInfo] = None

    def __post_init__(self) -> None:
        check_record(self.kind, self.timestamp, self.name, self.mpi)


def check_record(
    kind: RecordKind, timestamp: float, name: str, mpi: Optional[MpiCallInfo]
) -> None:
    """Refuse what no record may hold, whether an object or a row of columns."""
    validate_name(name, "record name")
    if not 0 <= timestamp < math.inf:  # NaN fails both comparisons
        raise ValueError(f"record timestamp must be a finite number >= 0, got {timestamp}")
    if mpi is not None and kind is not RecordKind.ENTER:
        raise ValueError("MPI call info may only be attached to ENTER records")


class RecordColumns(Sequence[TraceRecord]):
    """One rank's records as columns: kind, timestamp, name, and MPI info by position.

    :meth:`append` checks a row as :class:`TraceRecord` does and builds no
    object; reading the sequence (iterating, indexing) builds the records.
    It compares equal to a list of the same records.
    """

    __slots__ = ("rank", "kinds", "times", "names", "mpi")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.kinds: list[RecordKind] = []
        self.times: list[float] = []
        self.names: list[str] = []
        self.mpi: dict[int, MpiCallInfo] = {}

    def append(
        self, kind: RecordKind, timestamp: float, name: str, mpi: Optional[MpiCallInfo] = None
    ) -> None:
        check_record(kind, timestamp, name, mpi)
        if mpi is not None:
            self.mpi[len(self.kinds)] = mpi
        self.kinds.append(kind)
        self.times.append(timestamp)
        self.names.append(name)

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, at):
        if isinstance(at, slice):
            return [self[position] for position in range(*at.indices(len(self)))]
        position = range(len(self))[at]
        return TraceRecord(
            self.kinds[position],
            self.rank,
            self.times[position],
            self.names[position],
            self.mpi.get(position),
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        rank, mpi = self.rank, self.mpi.get
        for position, (kind, timestamp, name) in enumerate(
            zip(self.kinds, self.times, self.names)
        ):
            yield TraceRecord(kind, rank, timestamp, name, mpi(position))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, RecordColumns)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))
