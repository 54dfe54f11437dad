"""Tests for streaming ingestion: lazy segmentation and rank streams."""

import pytest

from repro.benchmarks_ats import late_sender
from repro.pipeline.stream import (
    indexed_source_ranks,
    rank_segment_streams,
    source_name,
)
from repro.trace.io import iter_rank_record_streams_text, iter_trace_records, write_trace
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.segments import SegmentationError, iter_segments, segment_rank_records


def _records():
    trace = late_sender(nprocs=4, iterations=3, seed=2).run()
    return trace, trace.ranks[0].records


class TestIterSegments:
    def test_matches_batch_segmentation(self):
        _, records = _records()
        streamed = list(iter_segments(iter(records)))
        batch = segment_rank_records(records)
        assert len(streamed) == len(batch)
        for s, b in zip(streamed, batch):
            assert s.context == b.context
            assert s.index == b.index
            assert s.timestamps() == b.timestamps()

    def test_is_lazy(self):
        _, records = _records()
        iterator = iter_segments(iter(records))
        first = next(iterator)
        assert first.context == "init"
        # The generator yields without having consumed the whole stream.
        remaining = list(iterator)
        assert len(remaining) == len(segment_rank_records(records)) - 1

    def test_unclosed_segment_rejected(self):
        records = [
            TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=0, timestamp=0.0, name="main.1")
        ]
        with pytest.raises(SegmentationError, match="never closed"):
            list(iter_segments(records))

    def test_mixed_ranks_rejected(self):
        records = [
            TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=0, timestamp=0.0, name="a"),
            TraceRecord(kind=RecordKind.SEGMENT_END, rank=1, timestamp=1.0, name="a"),
        ]
        with pytest.raises(SegmentationError, match="mixes ranks"):
            list(iter_segments(records))


class TestFileStreams:
    def test_iter_trace_records_round_trip(self, tmp_path):
        trace, _ = _records()
        path = tmp_path / "t.txt"
        write_trace(trace, path)
        streamed = list(iter_trace_records(path))
        assert len(streamed) == trace.num_records

    def test_rank_record_streams_grouped(self, tmp_path):
        trace, _ = _records()
        path = tmp_path / "t.txt"
        write_trace(trace, path)
        seen = []
        for rank, records in iter_rank_record_streams_text(path):
            count = sum(1 for _ in records)
            seen.append((rank, count))
        assert [rank for rank, _ in seen] == [0, 1, 2, 3]
        assert all(count > 0 for _, count in seen)

    def test_interleaved_ranks_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "SEGMENT_BEGIN 0 0.00 a\nSEGMENT_END 0 1.00 a\n"
            "SEGMENT_BEGIN 1 0.00 a\nSEGMENT_END 1 1.00 a\n"
            "SEGMENT_BEGIN 0 2.00 a\nSEGMENT_END 0 3.00 a\n"
        )
        with pytest.raises(ValueError, match="interleaves rank 0"):
            for _, records in iter_rank_record_streams_text(path):
                for _ in records:
                    pass


class TestRankSegmentStreams:
    def test_from_segmented_trace(self):
        trace, _ = _records()
        segmented = trace.segmented()
        streams = list(rank_segment_streams(segmented))
        assert [rank for rank, _ in streams] == [0, 1, 2, 3]
        assert sum(len(list(s)) for _, s in streams) == segmented.num_segments

    def test_from_raw_trace(self):
        trace, _ = _records()
        total = sum(len(list(s)) for _, s in rank_segment_streams(trace))
        assert total == trace.segmented().num_segments

    def test_from_file(self, tmp_path):
        trace, _ = _records()
        path = tmp_path / "t.txt"
        write_trace(trace, path)
        total = 0
        for rank, segments in rank_segment_streams(path):
            total += sum(1 for _ in segments)
        assert total == trace.segmented().num_segments

    def test_unknown_source_rejected(self):
        with pytest.raises(TypeError, match="segment source"):
            list(rank_segment_streams(42))

    def test_source_name(self, tmp_path):
        trace, _ = _records()
        assert source_name(trace) == trace.name
        assert source_name(tmp_path / "foo.txt") == "foo"


class TestIndexedSources:
    @pytest.fixture()
    def rpb_path(self, tmp_path):
        trace, _ = _records()
        path = tmp_path / "t.rpb"
        write_trace(trace, path)
        return trace, path

    def test_from_indexed_file(self, rpb_path):
        trace, path = rpb_path
        total = sum(sum(1 for _ in segs) for _, segs in rank_segment_streams(path))
        assert total == trace.segmented().num_segments

    def test_indexed_streams_consumable_out_of_order(self, rpb_path):
        # Text streams must be drained in file order; indexed streams are
        # independent random-access decoders and may be consumed any time.
        trace, path = rpb_path
        streams = dict(rank_segment_streams(path))
        for rank in (3, 1, 0, 2):
            segments = list(streams[rank])
            assert len(segments) == len(trace.segmented().rank(rank).segments)

    def test_indexed_source_ranks(self, tmp_path, rpb_path):
        trace, path = rpb_path
        assert indexed_source_ranks(path) == [0, 1, 2, 3]
        text = tmp_path / "t.txt"
        write_trace(trace, text)
        assert indexed_source_ranks(text) is None
        assert indexed_source_ranks(trace) is None
