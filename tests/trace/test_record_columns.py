"""``RecordColumns``: a rank's records as columns, read as a sequence of records."""

import random

import pytest

from repro.benchmarks_ats import late_sender
from repro.cli import main
from repro.evaluation.runner import PreparedWorkload
from repro.experiments.config import build_workload
from repro.trace import binio
from repro.trace.events import MpiCallInfo
from repro.trace.records import RecordColumns, RecordKind, TraceRecord


@pytest.fixture(scope="module")
def simulated():
    return late_sender(nprocs=4, iterations=4, seed=5).run()


@pytest.fixture(scope="module")
def columns(simulated):
    return simulated.ranks[1].records


def test_the_simulator_appends_columns(simulated):
    assert all(isinstance(rank.records, RecordColumns) for rank in simulated.ranks)
    assert [rank.records.rank for rank in simulated.ranks] == [0, 1, 2, 3]


def test_len_is_the_column_length(columns):
    assert len(columns) == len(columns.kinds) == len(list(columns)) > 0


def test_indexing_reads_the_record_at_a_position(columns):
    records = list(columns)
    n = len(records)
    for at in (0, 1, n // 2, n - 1, -1, -2, -n):
        assert columns[at] == records[at]
    at = next(iter(columns.mpi))  # the first record that carries MPI info
    assert columns[at].mpi is columns[at - n].mpi is columns.mpi[at]
    assert columns[at].kind is RecordKind.ENTER and columns[at + 1].mpi is None
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            columns[bad]


@pytest.mark.parametrize(
    "cut", [slice(None), slice(2, 9), slice(-5, None), slice(None, -3), slice(1, None, 3),
            slice(None, None, -1), slice(50_000, None), slice(4, 2)]
)
def test_a_slice_is_the_list_of_its_records(columns, cut):
    assert columns[cut] == list(columns)[cut]


def test_it_equals_a_list_of_the_same_records_and_nothing_else(columns):
    records = list(columns)
    assert columns == records and records == columns
    assert not columns != records
    assert columns != records[:-1]
    changed = records[:-1] + [TraceRecord(records[-1].kind, 1, records[-1].timestamp + 1.0,
                                          records[-1].name)]
    assert columns != changed
    assert columns != tuple(records)
    assert columns == columns


def test_reading_it_gives_the_records_the_written_file_decodes_to(simulated, tmp_path):
    path = tmp_path / "t.rpb"
    binio.write_trace_rpb(simulated, path)
    back = binio.read_trace_rpb(path)
    for rank in simulated.ranks:
        decoded = back.ranks[rank.rank].records
        assert len(decoded) == len(rank.records)
        for ours, theirs in zip(rank.records, decoded, strict=True):
            assert ours == theirs


def test_a_list_of_records_writes_the_same_bytes_as_its_columns(simulated, tmp_path):
    as_columns, as_lists = tmp_path / "c.rpb", tmp_path / "l.rpb"
    binio.write_trace_rpb(simulated, as_columns)
    with binio.RpbTraceWriter(as_lists) as writer:
        for rank in simulated.ranks:
            writer.write_rank(rank.rank, iter(list(rank.records)))
    assert as_columns.read_bytes() == as_lists.read_bytes()


def test_strings_are_numbered_in_record_order(tmp_path):
    # A record's name, then its MPI op, then its communicator: the column a
    # string first appears in does not decide its id.
    send = MpiCallInfo(op="send", peer=1, tag=0, nbytes=8, comm="row")
    first = RecordColumns(0)
    first.append(RecordKind.SEGMENT_BEGIN, 0.0, "main")
    first.append(RecordKind.ENTER, 1.0, "MPI_Send", send)
    first.append(RecordKind.EXIT, 2.0, "MPI_Send")
    first.append(RecordKind.ENTER, 3.0, "send")
    first.append(RecordKind.EXIT, 4.0, "send")
    first.append(RecordKind.SEGMENT_END, 5.0, "main")
    second = RecordColumns(1)
    second.append(RecordKind.SEGMENT_BEGIN, 0.0, "loop")
    second.append(RecordKind.ENTER, 1.0, "MPI_Barrier", MpiCallInfo(op="barrier"))
    second.append(RecordKind.EXIT, 2.0, "MPI_Barrier")
    second.append(RecordKind.SEGMENT_END, 3.0, "loop")
    path = tmp_path / "t.rpb"
    with binio.RpbTraceWriter(path) as writer:
        writer.write_rank(1, second)
        writer.write_rank(0, first)
    assert binio.read_index(path).strings == (
        "loop", "MPI_Barrier", "barrier", "world", "main", "MPI_Send", "send", "row",
    )
    assert list(binio.iter_rank_records(path, 0)) == first
    assert list(binio.iter_rank_records(path, 1)) == second


def test_the_writer_refuses_columns_of_another_rank(simulated, tmp_path):
    path = tmp_path / "t.rpb"
    with binio.RpbTraceWriter(path) as writer:
        with pytest.raises(ValueError, match="record for rank 2 in rank-0 block"):
            writer.write_rank(0, simulated.ranks[2].records)


@pytest.mark.parametrize("seed", range(4))
def test_the_string_table_is_the_strings_in_the_order_records_meet_them(seed, tmp_path):
    rng = random.Random(seed)
    names = [f"f{i}" for i in range(rng.randint(1, 400))]  # many unique names
    ops, comms = ["send", "recv", "barrier", "bcast"], ["world", "row", "col"]
    path, met = tmp_path / "t.rpb", []
    with binio.RpbTraceWriter(path) as writer:
        for rank in rng.sample(range(5), 5):
            columns = RecordColumns(rank)
            for t in range(rng.randint(0, 300)):
                name = rng.choice(names)
                met.append(name)
                mpi = None
                if rng.random() < 0.3:
                    mpi = MpiCallInfo(op=rng.choice(ops), root=0, comm=rng.choice(comms))
                    met += [mpi.op, mpi.comm]
                columns.append(RecordKind.ENTER, float(t), name, mpi)
            writer.write_rank(rank, columns)
    assert binio.read_index(path).strings == tuple(dict.fromkeys(met))


@pytest.fixture()
def records_unread(monkeypatch):
    """Make reading a rank's columns record by record an error."""

    def read(*args):
        raise AssertionError("a simulated rank was read record by record")

    monkeypatch.setattr(RecordColumns, "__iter__", read)
    monkeypatch.setattr(RecordColumns, "__getitem__", read)


@pytest.mark.parametrize("save_trace", [False, True])
def test_a_simulated_pipeline_reads_no_record(records_unread, tmp_path, save_trace, capsys):
    argv = ["--scale", "smoke", "pipeline", "late_sender", "--output", str(tmp_path / "r.txt")]
    if save_trace:  # the writer takes the columns whole too
        argv += ["--save-trace", str(tmp_path / "t.rpb")]
    assert main(argv) == 0
    assert "full trace bytes" in capsys.readouterr().out


def test_preparing_a_workload_reads_no_record(records_unread):
    prepared = PreparedWorkload.from_workload(build_workload("sweep3d_8p", "smoke"))
    assert prepared.full_bytes > 0 and prepared.segmented.materialized == 0
