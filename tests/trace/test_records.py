"""Tests for raw trace records."""

import math
import re

import pytest

from repro.trace.events import MpiCallInfo
from repro.trace.records import RecordColumns, RecordKind, TraceRecord


class TestTraceRecord:
    def test_basic_construction(self):
        record = TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=1.0, name="f")
        assert record.kind is RecordKind.ENTER
        assert record.name == "f"

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(kind=RecordKind.EXIT, rank=0, timestamp=-1.0, name="f")

    def test_mpi_only_on_enter(self):
        info = MpiCallInfo(op="barrier")
        TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=0.0, name="MPI_Barrier", mpi=info)
        with pytest.raises(ValueError, match="ENTER"):
            TraceRecord(kind=RecordKind.EXIT, rank=0, timestamp=0.0, name="MPI_Barrier", mpi=info)

    def test_frozen(self):
        record = TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=0.0, name="f")
        with pytest.raises(AttributeError):
            record.timestamp = 5.0

    def test_record_kinds_distinct(self):
        assert len({k.value for k in RecordKind}) == 4

    @pytest.mark.parametrize("name", ["two words", "tab\tsep", "line\nbreak", " pad", ""])
    def test_unserializable_name_rejected(self, name):
        # Regression: these names used to serialize into lines that parse back
        # into different tokens (or not at all); now they fail at construction.
        with pytest.raises(ValueError, match="record name"):
            TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=1.0, name=name)


def _as_record(kind, timestamp, name, mpi=None):
    TraceRecord(kind=kind, rank=0, timestamp=timestamp, name=name, mpi=mpi)


def _as_column_row(kind, timestamp, name, mpi=None):
    RecordColumns(0).append(kind, timestamp, name, mpi)


#: ``(kind, timestamp, name, mpi)`` rows no record may hold, with the error each raises.
REFUSED = [
    ((RecordKind.ENTER, math.nan, "f", None), "record timestamp must be a finite number >= 0, got nan"),
    ((RecordKind.ENTER, math.inf, "f", None), "record timestamp must be a finite number >= 0, got inf"),
    ((RecordKind.EXIT, -math.inf, "f", None), "record timestamp must be a finite number >= 0, got -inf"),
    ((RecordKind.EXIT, -1.0, "f", None), "record timestamp must be a finite number >= 0, got -1.0"),
    ((RecordKind.ENTER, 1.0, "", None), "record name must be non-empty and contain no whitespace, got ''"),
    ((RecordKind.ENTER, 1.0, "a b", None), "record name must be non-empty and contain no whitespace, got 'a b'"),
    (
        (RecordKind.EXIT, 1.0, "MPI_Barrier", MpiCallInfo(op="barrier")),
        "MPI call info may only be attached to ENTER records",
    ),
]


@pytest.mark.parametrize("build", [_as_record, _as_column_row], ids=["record", "columns"])
@pytest.mark.parametrize("row, message", REFUSED, ids=[m for _, m in REFUSED])
def test_a_record_object_and_a_column_row_refuse_the_same_rows(build, row, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(*row)


def test_a_refused_row_leaves_the_columns_as_they_were():
    columns = RecordColumns(0)
    columns.append(RecordKind.ENTER, 1.0, "f")
    with pytest.raises(ValueError):
        columns.append(RecordKind.EXIT, math.nan, "f")
    assert columns == [TraceRecord(RecordKind.ENTER, 0, 1.0, "f")]
