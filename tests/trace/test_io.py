"""Tests for trace serialization and file-size accounting."""

import os

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.trace.events import MpiCallInfo
from repro.trace.io import (
    atomic_output,
    format_record,
    iter_reduced_rank_chunks,
    parse_record,
    read_trace,
    segmented_trace_size_bytes,
    serialize_exec_entry,
    serialize_records,
    serialize_reduced_trace,
    serialize_segment,
    serialize_segment_as_records,
    write_reduced_trace,
    write_trace,
)
from repro.trace.records import RecordKind, TraceRecord

from tests.conftest import make_segment


def _record(mpi=None):
    return TraceRecord(kind=RecordKind.ENTER, rank=2, timestamp=123.456, name="MPI_Send", mpi=mpi)


class TestRecordRoundTrip:
    def test_plain_record(self):
        record = TraceRecord(kind=RecordKind.EXIT, rank=1, timestamp=7.0, name="do_work")
        parsed = parse_record(format_record(record))
        assert parsed.kind is RecordKind.EXIT
        assert parsed.rank == 1
        assert parsed.name == "do_work"
        assert parsed.timestamp == pytest.approx(7.0)

    def test_mpi_record(self):
        mpi = MpiCallInfo(op="send", peer=3, tag=7, nbytes=4096)
        parsed = parse_record(format_record(_record(mpi)))
        assert parsed.mpi == mpi

    def test_rooted_collective_record(self):
        mpi = MpiCallInfo(op="bcast", root=0, nbytes=128)
        parsed = parse_record(format_record(_record(mpi)))
        assert parsed.mpi == mpi

    def test_timestamp_precision(self):
        record = TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=0.123, name="f")
        parsed = parse_record(format_record(record))
        assert parsed.timestamp == pytest.approx(0.12, abs=1e-9)

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_record("ENTER 0 1.0")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError):
            parse_record("ENTER 0 1.00 MPI_Send send bogus=1")


def _mpi_combinations():
    """Every combination of optional MpiCallInfo fields the ops allow."""
    combos = [
        MpiCallInfo(op="barrier"),
        MpiCallInfo(op="barrier", comm="sub"),
        MpiCallInfo(op="allreduce", nbytes=8192),
        MpiCallInfo(op="bcast", root=0),
        MpiCallInfo(op="bcast", root=3, nbytes=128),
        MpiCallInfo(op="reduce", root=0, nbytes=64, comm="row"),
        MpiCallInfo(op="send", peer=1),
        MpiCallInfo(op="send", peer=1, tag=0),
        MpiCallInfo(op="send", peer=2, tag=7, nbytes=4096),
        MpiCallInfo(op="recv", peer=0, tag=9, nbytes=16, comm="col"),
        MpiCallInfo(op="sendrecv", peer=1, source=2),
        MpiCallInfo(op="sendrecv", peer=1, source=2, tag=3, nbytes=32),
        MpiCallInfo(op="ssend", peer=0, tag=0, nbytes=1, comm="sub"),
    ]
    return [pytest.param(info, id=f"{info.op}-{i}") for i, info in enumerate(combos)]


class TestMpiFieldMatrix:
    """format_record/parse_record round trips across all MpiCallInfo fields."""

    @pytest.mark.parametrize("info", _mpi_combinations())
    def test_round_trip(self, info):
        record = TraceRecord(
            kind=RecordKind.ENTER, rank=5, timestamp=42.25, name="MPI_Call", mpi=info
        )
        parsed = parse_record(format_record(record))
        assert parsed.mpi == info
        assert parsed.kind is record.kind
        assert parsed.rank == record.rank
        assert parsed.name == record.name

    @pytest.mark.parametrize("info", _mpi_combinations())
    def test_key_survives_round_trip(self, info):
        record = TraceRecord(
            kind=RecordKind.ENTER, rank=0, timestamp=1.0, name="MPI_Call", mpi=info
        )
        parsed = parse_record(format_record(record))
        assert parsed.mpi.key() == info.key()


class TestTextQuantization:
    """The text format's documented precision loss (and its boundary).

    Timestamps are serialized with two decimals, so a write→read round trip
    loses sub-10µs detail.  The binary format has no such loss — see
    ``TestRoundTrip.test_float64_timestamps_lossless`` in test_binio.py for
    the other half of this pair.
    """

    def test_sub_centimicrosecond_detail_lost(self):
        record = TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=0.123456, name="f")
        parsed = parse_record(format_record(record))
        assert parsed.timestamp != record.timestamp
        assert parsed.timestamp == pytest.approx(0.12, abs=1e-12)

    def test_two_decimal_values_survive(self):
        record = TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=123.46, name="f")
        parsed = parse_record(format_record(record))
        assert format_record(parsed) == format_record(record)


class TestSizes:
    def test_serialize_records_counts_every_record(self):
        records = [
            TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=1.0, name="f"),
            TraceRecord(kind=RecordKind.EXIT, rank=0, timestamp=2.0, name="f"),
        ]
        data = serialize_records(records)
        assert data.count(b"\n") == 2

    def test_segment_serialization_has_header_and_events(self, paper_segments):
        data = serialize_segment(paper_segments["s0"], segment_id=7)
        text = data.decode()
        assert text.startswith("SEG 7 main.1")
        assert text.count("\nEV ") + text.startswith("EV ") == 2

    def test_exec_entry_small(self):
        assert len(serialize_exec_entry(3, 123.0)) < 30

    def test_reduced_size_smaller_than_full(self, paper_segments):
        segments = list(paper_segments.values())
        full = sum(len(serialize_segment_as_records(s)) for s in segments)
        repeats = [segments[0].shifted(60.0 * i) for i in range(3)]
        reduced = TraceReducer(create_metric("iter_avg")).reduce_segments(repeats).size_bytes()
        assert reduced < full

    def test_trace_size_consistent_with_segmented_size(self):
        workload = late_sender(nprocs=4, iterations=4, seed=2)
        trace = workload.run()
        raw = sum(len(serialize_records(rank.records)) for rank in trace.ranks)
        segmented = segmented_trace_size_bytes(trace.segmented())
        # Same records, same format: sizes agree exactly.
        assert raw == segmented


class TestFileRoundTrip:
    def test_write_and_read(self, tmp_path):
        workload = late_sender(nprocs=4, iterations=3, seed=2)
        trace = workload.run()
        path = tmp_path / "trace.txt"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.nprocs == trace.nprocs
        assert sum(len(r.records) for r in loaded.ranks) == trace.num_records

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_trace(path).nprocs == 0

    def test_loaded_trace_segments_identically(self, tmp_path):
        workload = late_sender(nprocs=4, iterations=3, seed=2)
        trace = workload.run()
        path = tmp_path / "trace.txt"
        write_trace(trace, path)
        original = trace.segmented()
        loaded = read_trace(path).segmented()
        assert loaded.num_segments == original.num_segments
        assert loaded.num_events == original.num_events


class TestStreamingReducedWriter:
    @pytest.fixture()
    def reduced(self, small_late_sender_trace):
        from repro.core.metrics import create_metric
        from repro.core.reducer import TraceReducer

        return TraceReducer(create_metric("relDiff")).reduce(small_late_sender_trace)

    def test_chunks_concatenate_to_size_bytes(self, reduced):
        for rank in reduced.ranks:
            chunks = list(iter_reduced_rank_chunks(rank))
            assert sum(len(c) for c in chunks) == rank.size_bytes()

    def test_serialize_reduced_trace_matches_size(self, reduced):
        assert len(serialize_reduced_trace(reduced)) == reduced.size_bytes()

    def test_streaming_write_identical_to_in_memory(self, tmp_path, reduced):
        path = tmp_path / "reduced.txt"
        written = write_reduced_trace(reduced, path)
        data = path.read_bytes()
        assert written == len(data) == reduced.size_bytes()
        assert data == serialize_reduced_trace(reduced)

    def test_written_form_has_expected_line_kinds(self, tmp_path, reduced):
        path = tmp_path / "reduced.txt"
        write_reduced_trace(reduced, path)
        kinds = {line.split()[0] for line in path.read_text().splitlines() if line}
        assert kinds == {"SEG", "EV", "EXEC"}

    def test_empty_reduced_trace(self, tmp_path):
        from repro.core.reduced import ReducedTrace

        empty = ReducedTrace(name="e", method="relDiff", threshold=0.8)
        path = tmp_path / "empty.txt"
        assert write_reduced_trace(empty, path) == 0
        assert path.read_bytes() == b""

    def test_failed_write_keeps_the_previous_file(self, tmp_path, reduced, monkeypatch):
        path = tmp_path / "reduced.txt"
        path.write_bytes(b"previous run")

        def chunks_then_error(rank):
            yield b"half a rank"
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.trace.io.iter_reduced_rank_chunks", chunks_then_error)
        with pytest.raises(OSError, match="No space left"):
            write_reduced_trace(reduced, path)
        assert path.read_bytes() == b"previous run"
        assert [p.name for p in tmp_path.iterdir()] == ["reduced.txt"]

    def test_atomic_output_writes_a_device_in_place(self, tmp_path):
        # Nothing to keep intact, and a rename would replace the device node.
        with atomic_output("/dev/null") as handle:
            handle.write(b"discarded")
        assert not os.path.isfile("/dev/null")
        assert not [p for p in os.listdir("/dev") if p.startswith("null.")]
