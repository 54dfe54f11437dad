"""Hardening: every decode path fails malformed ranks with identical errors.

These tests pin the fallback contract the fuzz oracle
(:func:`repro.fuzz.oracles.oracle_malformed_fallback`) checks statistically:
for each way a rank's record stream can violate the segmentation rules, the
in-memory segmenter, the streaming ``.rpb`` decoder, and the columnar frame
decoder must raise :class:`SegmentationError` with the *same message*, while
the well-formed ranks of the same file keep decoding on every path.  A raw
in-memory trace's frames, built by the frame decoder's code, refuse what the
segmenter refuses with its message too (``RAW_REFUSALS``).
"""

from __future__ import annotations

import pytest

from repro.fuzz.generators import MALFORMED_KINDS, CaseSpec, generate_case
from repro.pipeline.stream import rank_frame_streams
from repro.trace import binio
from repro.trace.records import RecordColumns, RecordKind, TraceRecord
from repro.trace.segments import SegmentationError, iter_segments
from repro.trace.trace import RankTrace, Trace


@pytest.fixture(params=MALFORMED_KINDS)
def malformed_trace(request, tmp_path):
    spec = CaseSpec(
        family="malformed",
        seed=21,
        params={"nprocs": 3, "kind": request.param},
    )
    trace = generate_case(spec)
    path = tmp_path / "malformed.rpb"
    binio.write_trace_rpb(trace, path)
    return trace, path


def _segmentation_error(fn) -> str:
    with pytest.raises(SegmentationError) as excinfo:
        fn()
    return str(excinfo.value)


def test_all_three_decode_paths_raise_the_identical_message(malformed_trace):
    trace, path = malformed_trace
    bad = trace.ranks[-1]
    reference = _segmentation_error(lambda: list(iter_segments(bad.records)))
    streaming = _segmentation_error(
        lambda: list(binio.iter_rank_segments(path, bad.rank))
    )
    assert streaming == reference

    def decode_frame():
        frame = binio.rank_frame(path, bad.rank)
        return [frame.segment(i) for i in range(frame.n_segments)]

    assert _segmentation_error(decode_frame) == reference


def test_well_formed_ranks_still_decode_on_every_path(malformed_trace):
    trace, path = malformed_trace
    for rank_trace in trace.ranks[:-1]:
        reference = list(iter_segments(rank_trace.records))
        assert list(binio.iter_rank_segments(path, rank_trace.rank)) == reference
        frame = binio.rank_frame(path, rank_trace.rank)
        normalized = [s.relative_to_start() for s in reference]
        assert [frame.segment(i) for i in range(frame.n_segments)] == normalized


def test_malformed_rank_survives_a_text_round_trip(malformed_trace, tmp_path):
    # Converting a trace with a malformed rank must not "repair" it: the
    # text writer/reader deal in raw records, so the violation is preserved
    # verbatim for downstream tools to diagnose.
    from repro.trace.io import read_trace, write_trace

    trace, _ = malformed_trace
    text_path = tmp_path / "malformed.txt"
    write_trace(trace, text_path, format="text")
    back = read_trace(text_path, name=trace.name)
    for orig, reread in zip(trace.ranks, back.ranks):
        assert orig.records == reread.records
    with pytest.raises(SegmentationError):
        list(iter_segments(back.ranks[-1].records))


def test_the_in_memory_frames_raise_the_segmenters_message(malformed_trace):
    trace, _ = malformed_trace
    reference = _segmentation_error(lambda: trace.segmented())
    assert _segmentation_error(lambda: list(rank_frame_streams(trace))) == reference


B, E, ENTER, EXIT = (
    RecordKind.SEGMENT_BEGIN, RecordKind.SEGMENT_END, RecordKind.ENTER, RecordKind.EXIT
)

#: One rank's records, each a row ``(kind, timestamp, name[, rank])``, the
#: segmenter refuses; they follow a well-formed rank in the trace.
RAW_REFUSALS = {
    "exit_earlier_than_enter": [(B, 0.0, "s"), (ENTER, 5.0, "f"), (EXIT, 4.0, "f"), (E, 6.0, "s")],
    "end_earlier_than_begin": [(B, 3.0, "s"), (ENTER, 3.0, "f"), (EXIT, 3.0, "f"), (E, 2.0, "s")],
    "unclosed_segment": [(B, 0.0, "s"), (ENTER, 1.0, "f"), (EXIT, 2.0, "f")],
    "end_without_begin": [(B, 0.0, "s"), (E, 1.0, "s"), (E, 2.0, "s")],
    "nested_segment": [(B, 0.0, "s"), (B, 1.0, "t"), (E, 2.0, "t"), (E, 3.0, "s")],
    "event_outside_segment": [(B, 0.0, "s"), (E, 1.0, "s"), (ENTER, 2.0, "f"), (EXIT, 3.0, "f")],
    "mismatched_event_names": [(B, 0.0, "s"), (ENTER, 1.0, "f"), (EXIT, 2.0, "g"), (E, 3.0, "s")],
    "mismatched_segment_names": [(B, 0.0, "s"), (E, 1.0, "t")],
    "records_of_two_ranks": [(B, 0.0, "s"), (ENTER, 1.0, "f", 2), (EXIT, 2.0, "f"), (E, 3.0, "s")],
    "late_exit_then_unclosed": [(B, 0.0, "s"), (ENTER, 5.0, "f"), (EXIT, 4.0, "f")],
}


def _rank_records(rank, rows, as_columns):
    if as_columns:  # what the simulator appends: one rank by construction
        columns = RecordColumns(rank)
        for kind, timestamp, name in rows:
            columns.append(kind, timestamp, name)
        return columns
    return [TraceRecord(row[0], row[3] if len(row) > 3 else rank, row[1], row[2]) for row in rows]


@pytest.mark.parametrize(
    "case, as_columns",
    [
        pytest.param(case, as_columns, id=f"{case}-{'columns' if as_columns else 'list'}")
        for case in sorted(RAW_REFUSALS)
        for as_columns in (False, True)
        if not (as_columns and case == "records_of_two_ranks")  # columns hold one rank
    ],
)
def test_a_raw_trace_is_refused_in_memory_as_the_segmenter_refuses_it(case, as_columns):
    good = [(B, 0.0, "s"), (ENTER, 1.0, "f"), (EXIT, 2.0, "f"), (E, 3.0, "s")]
    trace = Trace(
        name="raw",
        ranks=[
            RankTrace(rank=rank, records=_rank_records(rank, rows, as_columns))
            for rank, rows in enumerate((good, RAW_REFUSALS[case]))
        ],
    )
    with pytest.raises(Exception) as want:
        trace.segmented()
    streams = rank_frame_streams(trace)
    rank, frame = next(streams)  # the well-formed rank comes first
    assert (rank, frame.n_segments) == (0, 1)
    with pytest.raises(Exception) as got:
        next(streams)
    assert type(got.value) is type(want.value) is SegmentationError
    assert str(got.value) == str(want.value)
