"""Tests for the trace format registry and cross-format conversion."""

import pytest

from repro.benchmarks_ats import late_sender
from repro.sweep3d import sweep3d_8p
from repro.trace.formats import (
    convert_trace,
    format_for_path,
    format_names,
    resolve_format,
    trace_format,
)
from repro.trace.io import read_trace, write_trace


@pytest.fixture(scope="module")
def sweep_trace():
    return sweep3d_8p(scale=0.2, timesteps=2, seed=11).run()


class TestRegistry:
    def test_both_formats_registered(self):
        assert format_names() == ["rpb", "text"]

    def test_dispatch_on_extension(self):
        assert format_for_path("trace.rpb").name == "rpb"
        assert format_for_path("trace.RPB").name == "rpb"
        assert format_for_path("trace.txt").name == "text"
        assert format_for_path("trace.trace").name == "text"

    def test_unknown_extension_defaults_to_text(self):
        assert format_for_path("trace.dat").name == "text"
        assert format_for_path("trace").name == "text"

    def test_explicit_name_overrides_extension(self):
        assert resolve_format("trace.txt", "rpb").name == "rpb"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            trace_format("hdf5")

    def test_only_rpb_is_indexed(self):
        assert trace_format("rpb").is_indexed
        assert not trace_format("text").is_indexed


class TestDispatchedIo:
    def test_write_read_dispatch(self, tmp_path):
        trace = late_sender(nprocs=4, iterations=3, seed=2).run()
        for suffix in ("txt", "rpb"):
            path = tmp_path / f"t.{suffix}"
            write_trace(trace, path)
            loaded = read_trace(path)
            assert loaded.nprocs == trace.nprocs
            assert sum(len(r.records) for r in loaded.ranks) == trace.num_records

    def test_explicit_format_argument(self, tmp_path):
        trace = late_sender(nprocs=2, iterations=2, seed=2).run()
        path = tmp_path / "t.dat"  # extension says text; force binary
        write_trace(trace, path, format="rpb")
        with pytest.raises(ValueError):
            read_trace(path)  # read as text fails: it's binary
        assert read_trace(path, format="rpb").nprocs == trace.nprocs

    def test_rank_record_streams_dispatch(self, tmp_path):
        trace = late_sender(nprocs=4, iterations=3, seed=2).run()
        for suffix in ("txt", "rpb"):
            path = tmp_path / f"t.{suffix}"
            write_trace(trace, path)
            seen = {
                rank: sum(1 for _ in records)
                for rank, records in resolve_format(path).rank_streams(path)
            }
            assert seen == {r.rank: len(r.records) for r in trace.ranks}


class TestConvert:
    def test_text_to_binary_to_text_is_byte_identical(self, sweep_trace, tmp_path):
        # The text format quantizes timestamps on write; converting the text
        # file to binary preserves the parsed values exactly, so converting
        # back reproduces the original file byte for byte.
        text = tmp_path / "s.txt"
        write_trace(sweep_trace, text)
        convert_trace(text, tmp_path / "s.rpb")
        convert_trace(tmp_path / "s.rpb", tmp_path / "back.txt")
        assert (tmp_path / "back.txt").read_bytes() == text.read_bytes()

    def test_binary_to_binary_preserves_records(self, sweep_trace, tmp_path):
        src = tmp_path / "a.rpb"
        write_trace(sweep_trace, src)
        convert_trace(src, tmp_path / "b.rpb")
        a = read_trace(src)
        b = read_trace(tmp_path / "b.rpb")
        for ra, rb in zip(a.ranks, b.ranks):
            assert ra.records == rb.records

    @pytest.mark.parametrize("suffix", ["txt", "rpb"])
    def test_converting_a_file_onto_itself_keeps_it(self, sweep_trace, tmp_path, suffix):
        # Both writers write beside their target and rename on a clean close,
        # so the source is still whole while its ranks are being read.
        path = tmp_path / f"self.{suffix}"
        write_trace(sweep_trace, path)
        before = path.read_bytes()
        records = [rank.records for rank in read_trace(path).ranks]
        report = convert_trace(path, path)
        assert report.n_records == sweep_trace.num_records
        assert report.source_bytes == len(before)
        assert [rank.records for rank in read_trace(path).ranks] == records
        if suffix == "txt":
            assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("suffix", ["txt", "rpb"])
    def test_a_conversion_that_fails_mid_rank_leaves_dest_as_it_was(
        self, sweep_trace, tmp_path, suffix
    ):
        source = tmp_path / "torn.txt"
        write_trace(sweep_trace, source)
        lines = source.read_bytes().splitlines(keepends=True)
        lines.insert(len(lines) * 2 // 3, b"not a record\n")
        source.write_bytes(b"".join(lines))
        dest = tmp_path / f"dest.{suffix}"
        dest.write_bytes(b"what dest held")
        with pytest.raises(ValueError, match="malformed trace record"):
            convert_trace(source, dest)
        assert dest.read_bytes() == b"what dest held"
        assert sorted(tmp_path.iterdir()) == [dest, source]

    def test_report_counts(self, sweep_trace, tmp_path):
        text = tmp_path / "s.txt"
        write_trace(sweep_trace, text)
        report = convert_trace(text, tmp_path / "s.rpb")
        assert report.source_format == "text"
        assert report.dest_format == "rpb"
        assert report.n_ranks == sweep_trace.nprocs
        assert report.n_records == sweep_trace.num_records
        assert report.source_bytes == text.stat().st_size
        assert report.dest_bytes == (tmp_path / "s.rpb").stat().st_size

    def test_forced_formats(self, sweep_trace, tmp_path):
        src = tmp_path / "s.dat"
        write_trace(sweep_trace, src, format="text")
        report = convert_trace(
            src, tmp_path / "d.dat", from_format="text", to_format="rpb"
        )
        assert report.dest_format == "rpb"
        assert read_trace(tmp_path / "d.dat", format="rpb").nprocs == sweep_trace.nprocs

    def test_text_equivalent_size_matches_across_formats(self, sweep_trace, tmp_path):
        from repro.evaluation.filesize import full_trace_bytes_from_file

        text = tmp_path / "s.txt"
        write_trace(sweep_trace, text)
        convert_trace(text, tmp_path / "s.rpb")
        assert full_trace_bytes_from_file(text) == text.stat().st_size
        assert full_trace_bytes_from_file(tmp_path / "s.rpb") == full_trace_bytes_from_file(text)

    def test_text_equivalent_size_counts_utf8_bytes(self, tmp_path):
        # Non-ASCII names are legal (only whitespace is rejected); the
        # text-equivalent size must count encoded bytes, not characters.
        from repro.evaluation.filesize import full_trace_bytes_from_file
        from repro.trace.records import RecordKind, TraceRecord
        from repro.trace.trace import RankTrace, Trace

        records = [
            TraceRecord(kind=RecordKind.SEGMENT_BEGIN, rank=0, timestamp=0.0, name="αβγ"),
            TraceRecord(kind=RecordKind.SEGMENT_END, rank=0, timestamp=1.0, name="αβγ"),
        ]
        trace = Trace(name="t", ranks=[RankTrace(rank=0, records=records)])
        text = tmp_path / "u.txt"
        write_trace(trace, text)
        write_trace(trace, tmp_path / "u.rpb")
        assert full_trace_bytes_from_file(tmp_path / "u.rpb") == text.stat().st_size

    def test_binary_smaller_on_large_trace(self, tmp_path):
        # The per-array header overhead dominates tiny traces, but on a real
        # multi-rank trace the columnar encoding wins over text.
        trace = sweep3d_8p(scale=0.5, timesteps=3, seed=7).run()
        text = tmp_path / "big.txt"
        write_trace(trace, text)
        report = convert_trace(text, tmp_path / "big.rpb")
        assert report.dest_bytes < report.source_bytes
