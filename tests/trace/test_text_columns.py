"""The text column reader refuses what the record route refuses, in the same order.

``rank_frame_streams(text path)`` parses each rank's run of lines into record
columns (``trace.io.iter_rank_columns_text``) and builds frames from them;
``rank_segment_streams(text path)``, the ``--verify`` oracle's input, parses
line by line with ``parse_record`` and segments with the record state
machine.  Each row below makes a one-line edit (or two) to a small text trace;
both routes must raise the same type with the same text, after the same ranks.
"""

from __future__ import annotations

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.pipeline.stream import rank_frame_streams, rank_segment_streams
from repro.trace.io import TextFormatError, iter_rank_columns_text, write_trace
from repro.trace.segments import SegmentationError

# Four ranks of 26 lines each: rank r's lines are 26 * r + 1 … 26 * r + 26.
# Rank 0 opens with:  1 SEGMENT_BEGIN 0 6.25 init / 2 ENTER 0 6.25 MPI_Init barrier /
# 3 EXIT 0 17.25 MPI_Init / 4 SEGMENT_END 0 17.25 init / 5 SEGMENT_BEGIN 0 17.25 main.1 /
# 6 ENTER 0 17.25 do_work / 7 EXIT 0 1516.43 do_work /
# 8 ENTER 0 1516.43 MPI_Send send peer=1 tag=0 bytes=1024 …
EDITS = {
    "bad kind": {7: "EXITT 0 1516.43 do_work"},
    "bad kind opening the next rank": {27: "BEGIN 1 1.84 init"},
    "short line": {6: "ENTER 0 17.25"},
    "non-integer rank": {29: "EXIT x 17.25 MPI_Init"},
    "NaN timestamp": {33: "EXIT 1 nan do_work"},
    "negative timestamp": {32: "ENTER 1 -1.00 do_work"},
    "infinite timestamp": {3: "EXIT 0 inf MPI_Init"},
    "unknown MPI attribute": {8: "ENTER 0 1516.43 MPI_Send send peer=1 colour=2"},
    "unknown MPI operation": {8: "ENTER 0 1516.43 MPI_Send sned peer=1"},
    "MPI info on an EXIT": {7: "EXIT 0 1516.43 do_work send peer=1"},
    "EXIT before ENTER": {6: "EXIT 0 17.25 do_work"},
    "EXIT earlier than its ENTER": {7: "EXIT 0 1.00 do_work"},
    "unclosed segment": {52: ""},
    "unclosed segment, then a bad line": {52: "", 53: "SEGMENT_BEGIN 2 nope init"},
    "refusal, then a bad line in the same rank": {6: "EXIT 0 17.25 do_work", 9: "?"},
    "interleaved rank": {79: "SEGMENT_BEGIN 0 4576.69 init"},
    "interleaved rank after an unclosed one": {78: "", 79: "SEGMENT_BEGIN 0 4576.69 init"},
    "fault in a late rank after good ones": {96: "SEGMENT_END 3 4560.69 main.2"},
    "bad line last in the file": {104: "SEGMENT_END 3"},
}


@pytest.fixture(scope="module")
def lines(tmp_path_factory) -> list[str]:
    path = tmp_path_factory.mktemp("text") / "late_sender.txt"
    write_trace(late_sender(nprocs=4, iterations=3, seed=3).run(), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 104 and lines[26].startswith("SEGMENT_BEGIN 1 ")
    return lines


def _edited(lines: list[str], edits: dict[int, str], path):
    path.write_text("".join(f"{edits.get(n, line)}\n" for n, line in enumerate(lines, 1)))
    return path


def _outcome(read) -> tuple:
    """The ranks ``read`` finished, then the type and text of what it raised (or ``None``)."""
    done = []
    try:
        for rank in read():
            done.append(rank)
    except (TextFormatError, SegmentationError) as error:
        return done, type(error), str(error)
    return done, None, None


def _frame_ranks(path):
    for rank, _ in rank_frame_streams(path):
        yield rank


def _segment_ranks(path):
    for rank, segments in rank_segment_streams(path):
        list(segments)
        yield rank


@pytest.mark.parametrize("edit", list(EDITS))
def test_both_routes_raise_the_same_error_after_the_same_ranks(lines, tmp_path, edit):
    path = _edited(lines, EDITS[edit], tmp_path / "edited.txt")
    reference = _outcome(lambda: _segment_ranks(path))
    assert reference[1] is not None, "the edit must make the file unreadable"
    assert _outcome(lambda: _frame_ranks(path)) == reference


def test_a_clean_file_gives_the_record_route_s_frames(lines, tmp_path):
    path = _edited(lines, {}, tmp_path / "clean.txt")
    frames = dict(rank_frame_streams(path))
    for rank, segments in rank_segment_streams(path):
        expected = RankFrame.from_segments(rank, list(segments))
        frame = frames.pop(rank)
        assert [frame.segment(i) for i in range(frame.n_segments)] == [
            expected.segment(i) for i in range(expected.n_segments)
        ]
    assert not frames
    assert sum(frame.text_bytes for _, frame in rank_frame_streams(path)) == path.stat().st_size


def test_the_reader_holds_one_rank_and_interns_what_repeats(lines, tmp_path):
    path = _edited(lines, {}, tmp_path / "clean.txt")
    reader = iter_rank_columns_text(path)
    rank, first = next(reader)
    assert rank == first.rank == 0 and len(first) == 26
    rank, second = next(reader)
    assert rank == 1 and len(second) == 26  # the first rank's columns are not grown
    assert first.names[5] is second.names[5]  # "do_work": one string object per name
    mpi = [info for columns in (first, second) for info in columns.mpi.values()]
    assert mpi[0] is first.mpi[1]  # "barrier" parsed once for both ranks
    assert mpi[0] is second.mpi[1]
