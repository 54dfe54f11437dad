"""Tests for the columnar binary trace format (``.rpb``)."""

import io
import json
import math
import struct

import numpy as np
import pytest

from repro.benchmarks_ats import late_sender
from repro.trace import binio
from repro.trace.events import MpiCallInfo
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.segments import SegmentationError, iter_segments
from repro.trace.trace import RankTrace, Trace

from tests.trace.rpb_files import (
    block_bytes,
    npy_bytes,
    npy_member,
    read_blocks,
    rewrite_block,
    split_members,
    write_rpb,
)


@pytest.fixture(scope="module")
def small_trace():
    return late_sender(nprocs=4, iterations=3, seed=2).run()


@pytest.fixture()
def rpb_path(small_trace, tmp_path):
    path = tmp_path / "trace.rpb"
    binio.write_trace_rpb(small_trace, path)
    return path


class TestRoundTrip:
    def test_records_round_trip_exactly(self, small_trace, rpb_path):
        loaded = binio.read_trace_rpb(rpb_path)
        assert loaded.nprocs == small_trace.nprocs
        for original, back in zip(small_trace.ranks, loaded.ranks):
            assert back.records == original.records

    def test_float64_timestamps_lossless(self, tmp_path):
        # The binary format's precision guarantee: write→read is exact for
        # arbitrary float64 values (contrast TestTextQuantization in
        # test_io.py, which documents the text format's 2-decimal loss).
        values = [math.pi, 1e-9, 123.456789, 1e12 + 0.25]
        records = [
            TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=0, timestamp=values[0], name="s"),
            TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=values[1], name="f"),
            TraceRecord(kind=RecordKind.EXIT, rank=0, timestamp=values[2], name="f"),
            TraceRecord(kind=RecordKind.SEGMENT_END, rank=0, timestamp=values[3], name="s"),
        ]
        path = tmp_path / "exact.rpb"
        binio.write_trace_rpb(Trace(name="t", ranks=[RankTrace(rank=0, records=records)]), path)
        loaded = binio.read_trace_rpb(path)
        assert [r.timestamp for r in loaded.ranks[0].records] == values

    def test_mpi_parameters_round_trip(self, tmp_path):
        infos = [
            MpiCallInfo(op="bcast", root=0, nbytes=128),
            MpiCallInfo(op="send", peer=3, tag=7, nbytes=4096),
            MpiCallInfo(op="sendrecv", peer=1, source=2, tag=0, nbytes=8),
            MpiCallInfo(op="barrier"),
        ]
        records = []
        t = 0.0
        for info in infos:
            records.append(
                TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=t, name="MPI", mpi=info)
            )
            records.append(TraceRecord(kind=RecordKind.EXIT, rank=0, timestamp=t + 1, name="MPI"))
            t += 2
        path = tmp_path / "mpi.rpb"
        binio.write_trace_rpb(Trace(name="t", ranks=[RankTrace(rank=0, records=records)]), path)
        loaded = binio.read_trace_rpb(path).ranks[0].records
        assert [r.mpi for r in loaded[::2]] == infos
        assert all(r.mpi is None for r in loaded[1::2])

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.rpb"
        binio.write_trace_rpb(Trace(name="e", ranks=[]), path)
        assert binio.read_trace_rpb(path).nprocs == 0
        assert binio.rank_ids(path) == []


class TestRandomAccess:
    def test_index_lists_ranks_and_counts(self, small_trace, rpb_path):
        index = binio.read_index(rpb_path)
        assert index.ranks == [0, 1, 2, 3]
        assert index.n_records == small_trace.num_records
        for entry, rank_trace in zip(index.entries, small_trace.ranks):
            assert entry.n_records == len(rank_trace.records)
            assert entry.length > 0

    def test_single_rank_decode_matches(self, small_trace, rpb_path):
        records = list(binio.iter_rank_records(rpb_path, 2))
        assert records == small_trace.ranks[2].records

    def test_ranks_decode_in_any_order(self, small_trace, rpb_path):
        for rank in (3, 0, 2, 1):
            records = list(binio.iter_rank_records(rpb_path, rank))
            assert records == small_trace.ranks[rank].records

    def test_missing_rank_rejected(self, rpb_path):
        with pytest.raises(KeyError, match="rank 9"):
            list(binio.iter_rank_records(rpb_path, 9))

    def test_record_streams_are_independent(self, small_trace, rpb_path):
        # Unlike the text reader, streams need not be consumed in order.
        streams = dict(binio.iter_rank_record_streams_rpb(rpb_path))
        assert list(streams[3]) == small_trace.ranks[3].records
        assert list(streams[0]) == small_trace.ranks[0].records


class TestFastSegmentDecoder:
    def test_matches_reference_segmentation(self, small_trace, rpb_path):
        for rank_trace in small_trace.ranks:
            fast = list(binio.iter_rank_segments(rpb_path, rank_trace.rank))
            reference = list(iter_segments(rank_trace.records))
            assert len(fast) == len(reference)
            for a, b in zip(fast, reference):
                assert (a.context, a.rank, a.index) == (b.context, b.rank, b.index)
                assert (a.start, a.end) == (b.start, b.end)
                assert a.timestamps() == b.timestamps()
                assert [e.structure() for e in a.events] == [
                    e.structure() for e in b.events
                ]

    def test_malformed_rank_raises_segmentation_error(self, tmp_path):
        # An EXIT without an ENTER defeats the vectorized validity check and
        # must surface the same SegmentationError the record path raises.
        records = [
            TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=0, timestamp=0.0, name="s"),
            TraceRecord(kind=RecordKind.EXIT, rank=0, timestamp=1.0, name="f"),
            TraceRecord(kind=RecordKind.SEGMENT_END, rank=0, timestamp=2.0, name="s"),
        ]
        path = tmp_path / "bad.rpb"
        binio.write_trace_rpb(Trace(name="t", ranks=[RankTrace(rank=0, records=records)]), path)
        with pytest.raises(SegmentationError, match="without an enter"):
            list(binio.iter_rank_segments(path, 0))

    def test_backwards_segment_end_matches_record_path(self, tmp_path):
        # iter_segments assigns the END timestamp after construction, so a
        # segment whose END precedes its BEGIN decodes (duration < 0) rather
        # than raising; the vectorized path must behave identically.
        records = [
            TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=0, timestamp=5.0, name="s"),
            TraceRecord(kind=RecordKind.SEGMENT_END, rank=0, timestamp=4.0, name="s"),
        ]
        reference = list(iter_segments(records))
        path = tmp_path / "backwards.rpb"
        binio.write_trace_rpb(Trace(name="t", ranks=[RankTrace(rank=0, records=records)]), path)
        fast = list(binio.iter_rank_segments(path, 0))
        assert [(s.start, s.end) for s in fast] == [(s.start, s.end) for s in reference]
        assert fast[0].end == 4.0

    def test_unclosed_segment_raises(self, tmp_path):
        records = [
            TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=0, timestamp=0.0, name="s"),
        ]
        path = tmp_path / "open.rpb"
        binio.write_trace_rpb(Trace(name="t", ranks=[RankTrace(rank=0, records=records)]), path)
        with pytest.raises(SegmentationError, match="never closed"):
            list(binio.iter_rank_segments(path, 0))


class TestWriterValidation:
    def test_duplicate_rank_rejected(self, small_trace, tmp_path):
        with binio.RpbTraceWriter(tmp_path / "dup.rpb") as writer:
            writer.write_rank(0, small_trace.ranks[0].records)
            with pytest.raises(ValueError, match="already written"):
                writer.write_rank(0, small_trace.ranks[0].records)

    def test_wrong_rank_records_rejected(self, small_trace, tmp_path):
        with binio.RpbTraceWriter(tmp_path / "wrong.rpb") as writer:
            with pytest.raises(ValueError, match="rank-1 block"):
                writer.write_rank(1, small_trace.ranks[0].records)

    def test_non_contiguous_ranks_rejected_on_read(self, small_trace, tmp_path):
        path = tmp_path / "gap.rpb"
        with binio.RpbTraceWriter(path) as writer:
            writer.write_rank(0, small_trace.ranks[0].records)
            writer.write_rank(2, small_trace.ranks[2].records)
        with pytest.raises(ValueError, match="missing ranks"):
            binio.read_trace_rpb(path)


def _array(member: bytes) -> np.ndarray:
    return np.load(io.BytesIO(member), allow_pickle=False)


def _in_member(member_index, replacement):
    """Block damage that replaces one ``.npy`` member by ``replacement(member)``."""

    def damage(block):
        members = split_members(block)
        members[member_index] = replacement(members[member_index])
        return b"".join(members)

    return damage


class TestCorruptFiles:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not.rpb"
        path.write_bytes(b"definitely not a trace")
        with pytest.raises(binio.RpbFormatError, match="bad magic"):
            binio.read_index(path)

    def test_truncated_file_rejected(self, rpb_path):
        data = rpb_path.read_bytes()
        rpb_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(binio.RpbFormatError):
            binio.read_index(rpb_path)

    def test_bad_footer_offset_rejected(self, rpb_path):
        data = bytearray(rpb_path.read_bytes())
        data[-12:-4] = struct.pack("<Q", len(data) + 100)
        rpb_path.write_bytes(bytes(data))
        with pytest.raises(binio.RpbFormatError, match="footer offset"):
            binio.read_index(rpb_path)

    # -- damage inside one rank block, under a footer that stays valid --------

    #: Every way into a rank block.
    READERS = {
        "rank_frame": lambda path, rank: binio.rank_frame(path, rank),
        "iter_rank_segments": lambda path, rank: list(binio.iter_rank_segments(path, rank)),
        "iter_rank_records": lambda path, rank: list(binio.iter_rank_records(path, rank)),
        "read_trace_rpb": lambda path, rank: binio.read_trace_rpb(path),
        "text_bytes": lambda path, rank: binio.text_bytes(path),
    }

    #: damage to rank 2's block -> what the error must say.
    DAMAGE = {
        "flipped member magic": (_in_member(2, lambda m: m[:1] + bytes([m[1] ^ 0x20]) + m[2:]), "magic"),
        "unsupported npy version": (_in_member(4, lambda m: m[:6] + bytes([3, 0]) + m[8:]), "version"),
        # A float64 column claiming a million entries over the payload it has.
        "shape larger than block": (
            _in_member(1, lambda m: npy_member("<f8", (1_000_000,), _array(m).tobytes())),
            "more than the block holds",
        ),
        "corrupt header text": (_in_member(0, lambda m: m[:10] + b"{'descr': }" + m[21:]), "header"),
        "object dtype": (
            _in_member(1, lambda m: npy_member("|O", _array(m).shape, _array(m).tobytes())),
            "object dtype",
        ),
        "block cut short": (lambda block: block[:-5], "more than the block holds"),
        "trailing bytes": (lambda block: block + b"\0\0\0", "trailing bytes"),
        "tenth member": (lambda block: block + npy_bytes(np.zeros(2)), "trailing bytes"),
        "wrong column type": (_in_member(2, lambda m: npy_bytes(_array(m).astype(np.float32))), "column name"),
        "mpi columns disagree": (_in_member(7, lambda m: npy_bytes(np.zeros(1, dtype=np.int64))), "MPI columns"),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("case", DAMAGE)
    def test_damaged_block_is_a_format_error(self, case, reader, rpb_path):
        damage, message = self.DAMAGE[case]
        rewrite_block(rpb_path, 2, damage)
        with pytest.raises(binio.RpbFormatError, match=f"rank 2 block.*{message}"):
            self.READERS[reader](rpb_path, 2)
        if reader not in ("read_trace_rpb", "text_bytes"):  # the other ranks still decode
            self.READERS[reader](rpb_path, 1)

    @pytest.mark.parametrize("reader", READERS)
    def test_record_count_mismatch(self, reader, rpb_path):
        blocks, _ = read_blocks(rpb_path)
        rewrite_block(rpb_path, 2, lambda block: block, n_records=blocks[2][1] + 1)
        with pytest.raises(binio.RpbFormatError, match="rank 2 block.*index says"):
            self.READERS[reader](rpb_path, 2)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("offset, length", [(-4, 10), (0, 10), (4, -1), (4, 10**9)])
    def test_byte_range_outside_the_file(self, offset, length, reader, rpb_path):
        # The one case that needs a lying footer: the range is the damage.
        data = rpb_path.read_bytes()
        footer_offset = struct.unpack("<Q", data[-12:-4])[0]
        footer = json.loads(data[footer_offset:-12])
        footer["ranks"][2][1:3] = [offset, length]
        rpb_path.write_bytes(
            data[:footer_offset] + json.dumps(footer).encode() + data[-12:]
        )
        with pytest.raises(binio.RpbFormatError, match="rank 2 block"):
            self.READERS[reader](rpb_path, 2)


class TestBlockWalk:
    """One read + a walk over the members returns what nine ``np.load`` calls did."""

    @staticmethod
    def _mpi_heavy(rank, n):
        records = [TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=rank, timestamp=0.0, name="s")]
        for i in range(n):
            mpi = MpiCallInfo(op="sendrecv", peer=i % 3, source=i % 5, tag=i, nbytes=8 * i, comm="world" if i % 2 else "row")
            records.append(TraceRecord(kind=RecordKind.ENTER, rank=rank, timestamp=1.0 + i, name="MPI_Sendrecv", mpi=mpi))
            records.append(TraceRecord(kind=RecordKind.EXIT, rank=rank, timestamp=1.5 + i, name="MPI_Sendrecv"))
        records.append(TraceRecord(kind=RecordKind.SEGMENT_END, rank=rank, timestamp=2.0 + n, name="s"))
        return records

    @pytest.fixture()
    def mixed_path(self, tmp_path):
        path = tmp_path / "mixed.rpb"
        with binio.RpbTraceWriter(path) as writer:
            writer.write_rank(0, [])
            writer.write_rank(1, [TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=1, timestamp=0.5, name="only")])
            writer.write_rank(2, self._mpi_heavy(2, 300))
        return path

    def test_arrays_equal_np_load(self, mixed_path):
        blocks, _ = read_blocks(mixed_path)
        for rank, n_records, block in blocks:
            walked = binio._block_arrays(block, 9)
            handle = io.BytesIO(block)
            for array in walked:
                loaded = np.load(handle, allow_pickle=False)
                assert array.dtype == loaded.dtype
                assert array.shape == loaded.shape
                assert np.array_equal(array, loaded)
            assert len(walked[0]) == n_records
            assert walked[6].shape == (len(walked[3]), 4)

    def test_version_2_and_fortran_order_members(self):
        values = np.arange(12, dtype=np.int64).reshape(3, 4)
        fortran = io.BytesIO()
        np.save(fortran, np.asfortranarray(values))
        v2 = npy_member("<i8", (12,), values.tobytes(), version=(2, 0))
        first, second = binio._block_arrays(fortran.getvalue() + v2, 2)
        assert np.array_equal(first, values) and first.shape == (3, 4)
        assert np.array_equal(second, values.ravel())

    def test_columns_are_read_only_and_readers_do_not_write(self, mixed_path):
        with mixed_path.open("rb") as handle:
            index = binio.read_index(mixed_path)
            columns = binio._load_columns(handle, [index.entry_for(2)], index.strings)
        assert not columns.time.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            columns.time[0] = 1.0
        frame = binio.rank_frame(mixed_path, 2)
        segments = list(binio.iter_rank_segments(mixed_path, 2))
        assert frame.n_segments == len(segments) == 1
        assert frame.starts.flags.writeable  # frames own their arrays

    def test_duplicate_rank_check_survives_many_ranks(self, tmp_path):
        with binio.RpbTraceWriter(tmp_path / "many.rpb") as writer:
            for rank in range(300):
                writer.write_rank(rank, [])
            for rank in (0, 150, 299):
                with pytest.raises(ValueError, match=f"rank {rank} was already written"):
                    writer.write_rank(rank, [])
        assert binio.rank_ids(tmp_path / "many.rpb") == list(range(300))


class TestIndexCacheFreshness:
    """The footer-index cache must never serve a stale index.

    A parsed footer is cached per stat identity; these tests rewrite a file
    so that the *lazy* parts of the stat key (size, mtime) are unchanged and
    assert the finer fields (inode, ctime) still force a fresh parse.  The
    two fixture traces differ only in an event name of equal length, so the
    files are byte-for-byte the same size but their footer string tables —
    exactly what the cache holds — differ.
    """

    @staticmethod
    def _trace(event_name: str) -> Trace:
        records = [
            TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=0, timestamp=0.0, name="s"),
            TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=1.0, name=event_name),
            TraceRecord(kind=RecordKind.EXIT, rank=0, timestamp=2.0, name=event_name),
            TraceRecord(kind=RecordKind.SEGMENT_END, rank=0, timestamp=3.0, name="s"),
        ]
        return Trace(name="t", ranks=[RankTrace(rank=0, records=records)])

    def _event_name(self, path) -> str:
        (segment,) = list(binio.iter_rank_segments(path, 0))
        (event,) = segment.events
        return event.name

    def test_unchanged_file_hits_cache(self, rpb_path):
        assert binio.read_index(rpb_path) is binio.read_index(rpb_path)

    def test_same_second_replace_is_not_stale(self, tmp_path):
        import os

        a = tmp_path / "a.rpb"
        b = tmp_path / "b.rpb"
        binio.write_trace_rpb(self._trace("fff"), a)
        binio.write_trace_rpb(self._trace("ggg"), b)
        assert a.stat().st_size == b.stat().st_size
        stat = a.stat()
        assert self._event_name(a) == "fff"  # warm the cache
        os.replace(b, a)
        # forge the mtime back so (path, size, mtime) alone would collide;
        # the new inode must still miss the cache
        os.utime(a, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert a.stat().st_mtime_ns == stat.st_mtime_ns
        assert self._event_name(a) == "ggg"

    def test_in_place_rewrite_with_forged_mtime_is_not_stale(self, tmp_path):
        import os
        import time

        a = tmp_path / "a.rpb"
        b = tmp_path / "b.rpb"
        binio.write_trace_rpb(self._trace("fff"), a)
        binio.write_trace_rpb(self._trace("ggg"), b)
        stat = a.stat()
        assert self._event_name(a) == "fff"  # warm the cache
        time.sleep(0.05)  # ensure the rewrite lands on a later ctime tick
        with a.open("r+b") as handle:
            handle.write(b.read_bytes())
        os.utime(a, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        after = a.stat()
        assert after.st_mtime_ns == stat.st_mtime_ns
        assert after.st_size == stat.st_size
        assert after.st_ino == stat.st_ino
        # same path, size, mtime, and inode: only the change time differs,
        # and it alone must invalidate the cache
        assert self._event_name(a) == "ggg"


class TestRankFrameDecoder:
    def test_frame_matches_segment_decoder_bitwise(self, small_trace, rpb_path):
        for rank_trace in small_trace.ranks:
            frame = binio.rank_frame(rpb_path, rank_trace.rank)
            reference = list(binio.iter_rank_segments(rpb_path, rank_trace.rank))
            assert frame.n_segments == len(reference)
            assert frame.materialized == 0  # decode builds no Segment objects
            for i, expected in enumerate(reference):
                built = frame.segment(i)
                relative = expected.relative_to_start()
                assert built.context == relative.context
                assert built.index == relative.index
                assert [t.hex() for t in built.timestamps()] == [
                    t.hex() for t in relative.timestamps()
                ]
                assert [e.structure() for e in built.events] == [
                    e.structure() for e in relative.events
                ]

    def test_malformed_rank_raises_same_error(self, tmp_path):
        records = [
            TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=0, timestamp=0.0, name="s"),
            TraceRecord(kind=RecordKind.EXIT, rank=0, timestamp=1.0, name="f"),
            TraceRecord(kind=RecordKind.SEGMENT_END, rank=0, timestamp=2.0, name="s"),
        ]
        path = tmp_path / "bad.rpb"
        binio.write_trace_rpb(Trace(name="t", ranks=[RankTrace(rank=0, records=records)]), path)
        with pytest.raises(SegmentationError, match="without an enter"):
            binio.rank_frame(path, 0)
