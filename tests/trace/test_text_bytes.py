"""The ``.rpb`` text-equivalent sizer against the record-at-a-time oracle.

``TraceFormat.text_bytes`` computes §4.3.1's denominator from column blocks;
the loop it replaced — format each record, encode it, take ``len`` — lives on
here as the reference it must equal byte for byte.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_ats import late_sender
from repro.evaluation.filesize import full_trace_bytes_from_file
from repro.sweep3d import sweep3d_8p
from repro.trace import binio
from repro.trace import io as textio
from repro.trace.events import ALL_OPS, MpiCallInfo
from repro.trace.formats import resolve_format
from repro.trace.io import format_record, write_trace
from repro.trace.records import RecordKind, TraceRecord

from tests.trace.rpb_files import block_bytes, write_rpb


def oracle_text_bytes(path) -> int:
    """The record-at-a-time sizing loop, as ``evaluation.filesize`` had it."""
    total = 0
    for _, records in binio.iter_rank_record_streams_rpb(path):
        for record in records:
            total += len(format_record(record).encode("utf-8")) + 1  # newline
    return total


def digit_gain_neighbours():
    """Doubles on both sides of every ``10**k - 0.005``, k = 1 … 15."""
    out = []
    for k in range(1, 16):
        boundary = 10.0**k - 0.005
        out += [math.nextafter(boundary, 0.0), boundary, math.nextafter(boundary, math.inf)]
    return out


#: Finite non-negative timestamps a ``TraceRecord`` accepts where the format changes length.
EDGE_TIMESTAMPS = [
    0.0, 0.004999999999999999, 0.005, 0.125, 9.994999999999999, 9.995, 1e15,
    math.nextafter(1e15, 0.0), 1e16, 1e300, *digit_gain_neighbours(),
]

names = st.sampled_from(["f", "main.1", "αβγ", "计算", "naïve_κ", "x" * 40, "🚀launch"])
comms = st.sampled_from(["world", "world", "row", "列_comm"])
optional_ints = st.one_of(
    st.none(),
    st.sampled_from([0, -1, 9, 10, -10, 99999, 10**18, -(2**63), 2**63 - 1]),
    st.integers(min_value=-(10**6), max_value=10**6),
)
timestamps = st.one_of(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e17),
    st.sampled_from(EDGE_TIMESTAMPS),
)
mpi_infos = st.builds(
    MpiCallInfo,
    op=st.sampled_from(sorted(ALL_OPS)),
    root=optional_ints,
    peer=optional_ints,
    source=optional_ints,
    tag=optional_ints,
    nbytes=st.sampled_from([0, 0, 1, 9, 10, 4096, 10**12, 2**63 - 1]),
    comm=comms,
)


@st.composite
def records_of(draw, rank):
    kind = draw(st.sampled_from(list(RecordKind)))
    mpi = draw(st.one_of(st.none(), mpi_infos)) if kind is RecordKind.ENTER else None
    return TraceRecord(kind=kind, rank=rank, timestamp=draw(timestamps), name=draw(names), mpi=mpi)


@st.composite
def rank_runs(draw):
    """Several ranks of differing number widths, in any order, one of them empty."""
    ranks = draw(
        st.lists(st.sampled_from([0, 7, 10, 99, 100, 1023, 12345]), min_size=1, max_size=4, unique=True)
    )
    runs = [(rank, draw(st.lists(records_of(rank), max_size=12))) for rank in ranks]
    runs.insert(draw(st.integers(0, len(runs))), (54321, []))
    return runs


class TestAgainstRecordOracle:
    @given(rank_runs())
    @settings(max_examples=150, deadline=None)
    def test_text_bytes_is_sum_of_formatted_record_lengths(self, tmp_path_factory, runs):
        path = tmp_path_factory.mktemp("sizer") / "t.rpb"
        with binio.RpbTraceWriter(path) as writer:
            for rank, records in runs:
                writer.write_rank(rank, records)
        expected = sum(
            len(format_record(record).encode("utf-8")) + 1 for _, records in runs for record in records
        )
        assert binio.text_bytes(path) == expected == oracle_text_bytes(path)

    def test_every_mpi_field_combination(self, tmp_path):
        # Value 0 with the mask bit set must still be written ("root=0").
        records = []
        for mask in range(16):
            fields = {
                field: value
                for bit, (field, value) in enumerate(
                    [("root", 0), ("peer", -3), ("source", 12), ("tag", -1)]
                )
                if mask >> bit & 1
            }
            for nbytes, comm in ((0, "world"), (0, "grp"), (1024, "world"), (7, "κόσμος")):
                mpi = MpiCallInfo(op="sendrecv", nbytes=nbytes, comm=comm, **fields)
                records.append(
                    TraceRecord(kind=RecordKind.ENTER, rank=3, timestamp=1.0, name="MPI_Sendrecv", mpi=mpi)
                )
        path = tmp_path / "mpi.rpb"
        with binio.RpbTraceWriter(path) as writer:
            writer.write_rank(3, records)
        assert binio.text_bytes(path) == oracle_text_bytes(path)
        assert binio.text_bytes(path) == sum(len(format_record(r).encode()) + 1 for r in records)

    @pytest.mark.parametrize(
        "trace",
        [sweep3d_8p(scale=0.2, timesteps=2, seed=11).run(), late_sender(nprocs=4, iterations=3, seed=2).run()],
        ids=["sweep3d_8p", "late_sender"],
    )
    def test_equals_text_twin_file_size(self, trace, tmp_path):
        text, rpb = tmp_path / "t.txt", tmp_path / "t.rpb"
        write_trace(trace, text)
        write_trace(trace, rpb)
        assert resolve_format(rpb).text_bytes(rpb) == text.stat().st_size
        assert resolve_format(text).text_bytes(text) == text.stat().st_size
        assert full_trace_bytes_from_file(rpb) == oracle_text_bytes(rpb) == text.stat().st_size

    def test_empty_file(self, tmp_path):
        path = write_rpb(tmp_path / "empty.rpb", [], [])
        assert binio.text_bytes(path) == 0


class TestTimestampLengths:
    #: Values no ``TraceRecord`` may carry: only the columns can hold them.
    REFUSED = [-0.001, -0.004999999999999999, -0.005, -1.0, -9.995, -123456.789, -1e15, -1e300,
               -math.inf, math.inf, math.nan]
    ODD = [-0.0, *REFUSED]

    @staticmethod
    def _one(t, tmp_path):
        # Straight into the columns: a TraceRecord refuses what REFUSED holds.
        return write_rpb(
            tmp_path / "t.rpb",
            [(12, 2, block_bytes(kind=[0, 1], time=[t, 1.0], name=[0, 0]))],
            ["fn"],
        )

    @pytest.mark.parametrize("t", EDGE_TIMESTAMPS + [-0.0], ids=repr)
    def test_one_timestamp(self, t, tmp_path):
        expected = len(f"ENTER 12 {t:.2f} fn\n") + len("EXIT 12 1.00 fn\n")
        assert binio.text_bytes(self._one(t, tmp_path)) == expected

    @pytest.mark.parametrize("t", REFUSED, ids=repr)
    def test_a_timestamp_no_record_may_carry_is_a_format_error(self, t, tmp_path):
        with pytest.raises(binio.RpbFormatError, match="finite number >= 0"):
            binio.text_bytes(self._one(t, tmp_path))

    def test_negative_zero_keeps_its_sign(self):
        assert "{:.2f}".format(-0.001) == "-0.00"
        assert textio._timestamps_text_bytes(np.array([-0.001, -0.0, 0.0])).tolist() == [5, 5, 4]

    def test_whole_column_matches_format(self):
        times = np.array(EDGE_TIMESTAMPS + self.ODD + list(np.linspace(0.0, 2e4, 997)))
        expected = [len("{:.2f}".format(t)) for t in times.tolist()]
        assert textio._timestamps_text_bytes(times).tolist() == expected

    def test_digit_gains_are_the_first_doubles_past_each_boundary(self):
        # Exact rational check, independent of the format call that found them.
        for k, gain in enumerate(textio._TS_DIGIT_GAINS.tolist(), start=1):
            boundary = Decimal(10) ** k - Decimal("0.005")
            assert Decimal(gain) >= boundary > Decimal(math.nextafter(gain, 0.0))

    @given(st.lists(st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_integer_lengths(self, values):
        lengths = textio._int_text_bytes(np.array(values, dtype=np.int64))
        assert lengths.tolist() == [len(str(v)) for v in values]


class TestColumnsOutOfRange:
    """Ids that index nothing are a format error, never an ``IndexError``."""

    GOOD = dict(
        kind=[0, 1], time=[0.0, 1.0], name=[0, 0],
        mpi_pos=[0], mpi_op=[1], mpi_mask=[0], mpi_vals=[[0, 0, 0, 0]], mpi_nbytes=[8], mpi_comm=[2],
    )
    STRINGS = ["MPI_Send", "send", "world"]

    def test_good_columns_size(self, tmp_path):
        path = write_rpb(tmp_path / "g.rpb", [(0, 2, block_bytes(**self.GOOD))], self.STRINGS)
        assert binio.text_bytes(path) == len("ENTER 0 0.00 MPI_Send send bytes=8\nEXIT 0 1.00 MPI_Send\n")

    @pytest.mark.parametrize(
        "column, value",
        [("name", [0, 3]), ("mpi_op", [3]), ("mpi_comm", [2**32 - 1]), ("kind", [0, 4]), ("kind", [255, 1])],
    )
    def test_out_of_range_id_or_kind(self, column, value, tmp_path):
        columns = {**self.GOOD, column: value}
        path = write_rpb(tmp_path / "b.rpb", [(0, 2, block_bytes(**columns))], self.STRINGS)
        for reader in (
            binio.text_bytes,
            binio.read_trace_rpb,
            lambda p: binio.rank_frame(p, 0),
            lambda p: list(binio.iter_rank_records(p, 0)),
            lambda p: list(binio.iter_rank_segments(p, 0)),
        ):
            with pytest.raises(binio.RpbFormatError, match="rank 0 block"):
                reader(path)
