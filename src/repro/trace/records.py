"""Raw trace records.

Records are what the simulated tracer writes during execution, mirroring the
time-stamped function entry/exit records (plus segment markers) described in
Section 3.1 of the paper.  Segmentation (pairing ENTER/EXIT into events and
grouping them under SEGMENT markers) happens after collection in
:mod:`repro.trace.segments`, just as a real post-mortem tool would do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from repro.trace.events import MpiCallInfo, validate_name

__all__ = ["RecordKind", "TraceRecord"]


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
        validate_name(self.name, "record name")
        if not 0 <= self.timestamp < math.inf:  # NaN fails both comparisons
            raise ValueError(
                f"record timestamp must be a finite number >= 0, got {self.timestamp}"
            )
        if self.mpi is not None and self.kind is not RecordKind.ENTER:
            raise ValueError("MPI call info may only be attached to ENTER records")
