"""The time-order check does not depend on whether a row matched.

``Event`` and ``Segment`` construction reject an EXIT before its ENTER and an
END before its BEGIN, and used to be the only check the columnar core made —
so it fired for the rows a reduction happened to materialize (the stored
ones) and a matched row went through silently.  A dense reduction builds no
object any more; ``RankFrame.check_time_order`` checks every row of every
frame the reducer takes, and an ``.rpb`` rank reports it as the format error
its other value checks are.
"""

import numpy as np
import pytest

from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.pipeline.engine import PipelineConfig, ReductionPipeline, sweep_pipeline
from repro.trace import binio
from repro.trace.binio import RpbFormatError
from repro.trace.records import RecordKind
from repro.trace.segments import SegmentationError

from tests.trace.rpb_files import block_bytes, write_rpb

ENTER, EXIT, BEGIN, END = (
    int(RecordKind.ENTER),
    int(RecordKind.EXIT),
    int(RecordKind.SEGMENT_BEGIN),
    int(RecordKind.SEGMENT_END),
)
STRINGS = ["main", "f"]
#: Three executions of one structure — row 0 is stored, rows 1 and 2 match it
#: under a wide ``absDiff`` — as (BEGIN, ENTER, EXIT, END) times.  A broken
#: time stays >= 0: the decoder refuses a negative one before the order check.
ROWS = [(5.0, 6.0, 7.0, 8.0), (10.0, 11.0, 12.0, 13.0), (20.0, 21.0, 22.0, 23.0)]
#: case -> (the time of a row to move to 1 us before its BEGIN, the constructor's message).
CASES = {
    "event": (2, "event 'f' has end (-1.0) before start (1.0)"),
    "segment": (3, "segment 'main' has end (-1.0) before start (0.0)"),
}


def metric():
    return create_metric("absDiff", 1000.0)


def rpb_with(tmp_path, case: str, row: int):
    """The three-row rank with ``row`` broken as ``case`` says; returns (path, message)."""
    position, message = CASES[case]
    rows = [list(times) for times in ROWS]
    rows[row][position] = rows[row][0] - 1.0
    # A sound rank 1 beside it, so a pooled executor has ranks to hand out.
    blocks = [(rank, 4 * len(times), rank_block(times)) for rank, times in enumerate((rows, ROWS))]
    path = write_rpb(tmp_path / f"{case}{row}.rpb", blocks, STRINGS)
    return path, message


def rank_block(rows) -> bytes:
    return block_bytes(
        kind=[BEGIN, ENTER, EXIT, END] * len(rows),
        time=[t for times in rows for t in times],
        name=[0, 1, 1, 0] * len(rows),
    )


@pytest.mark.parametrize("row", [0, 1], ids=["stored_row", "matched_row"])
@pytest.mark.parametrize("case", CASES)
class TestBrokenRankIsRejectedWhicheverRowBreaksIt:
    def test_write_raises_and_keeps_the_previous_output(self, tmp_path, case, row):
        path, message = rpb_with(tmp_path, case, row)
        out = tmp_path / "reduced.txt"
        out.write_bytes(b"previous run")
        with pytest.raises(RpbFormatError) as raised:
            ReductionPipeline(metric(), PipelineConfig()).write(path, out)
        assert str(raised.value) == f"rank 0 block holds an invalid trace: {message}"
        assert out.read_bytes() == b"previous run"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, "reduced.txt"])

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_reduce_raises(self, tmp_path, case, row, executor):
        path, message = rpb_with(tmp_path, case, row)
        config = PipelineConfig(executor=executor, workers=2)
        with pytest.raises(RpbFormatError, match="rank 0 block holds an invalid trace"):
            ReductionPipeline(metric(), config).reduce(path)

    def test_sweep_raises(self, tmp_path, case, row):
        path, _ = rpb_with(tmp_path, case, row)
        with pytest.raises(RpbFormatError, match="rank 0 block holds an invalid trace"):
            sweep_pipeline(path, [("absDiff", 1000.0), ("iter_k", None)])

    def test_scalar_reference_raises(self, tmp_path, case, row):
        path, _ = rpb_with(tmp_path, case, row)
        streams = ((rank, binio.iter_rank_segments(path, rank)) for rank in binio.rank_ids(path))
        with pytest.raises(SegmentationError) as raised:
            TraceReducer(metric()).reduce_streams("t", streams)
        # The segment decoder refuses the rank as the record segmenter does,
        # in absolute times; the offence it names is the same one.
        offender = "event 'f'" if case == "event" else "segment 'main'"
        assert str(raised.value).startswith(f"{offender} has end (")


def test_the_sound_rank_reduces(tmp_path):
    """The fixture's premise: unbroken, row 0 is stored and rows 1 and 2 match it."""
    path = write_rpb(tmp_path / "sound.rpb", [(0, 12, rank_block(ROWS))], STRINGS)
    (rank,) = ReductionPipeline(metric(), PipelineConfig()).reduce(path).reduced.ranks
    assert [sid for sid, _ in rank.execs] == [0, 0, 0]
    assert rank.exec_columns()[2].tolist() == [False, True, True]


class TestCheckTimeOrder:
    def frame(self, ends, ev_starts, ev_ends):
        n = len(ends)
        return RankFrame(
            rank=0,
            contexts=np.zeros(n, dtype=np.int64),
            starts=np.zeros(n),
            ends=np.asarray(ends, dtype=float),
            ev_offsets=np.arange(n + 1, dtype=np.int64),
            ev_names=np.ones(n, dtype=np.int64),
            ev_starts=np.asarray(ev_starts, dtype=float),
            ev_ends=np.asarray(ev_ends, dtype=float),
            ev_mpi=np.full(n, -1, dtype=np.int64),
            strings=STRINGS,
            mpi_table=(),
        )

    def test_names_the_first_offender_in_row_order(self):
        # Row 1's segment ends early, row 2's event exits early: row 1 is first.
        frame = self.frame([3.0, -3.0, 3.0], [1.0, 1.0, 2.0], [2.0, 2.0, 1.0])
        with pytest.raises(ValueError, match=r"segment 'main' has end \(-3.0\)"):
            frame.check_time_order()
        # Within a row the events are built before the segment.
        frame = self.frame([3.0, -3.0], [1.0, 2.0], [2.0, 1.0])
        with pytest.raises(ValueError, match=r"event 'f' has end \(1.0\) before start \(2.0\)"):
            frame.check_time_order()

    def test_is_the_check_materialization_makes(self):
        frame = self.frame([3.0, 3.0], [1.0, 2.0], [2.0, 1.0])
        frame.segment(0)
        with pytest.raises(ValueError) as built:
            frame.segment(1)
        with pytest.raises(ValueError) as checked:
            frame.check_time_order()
        assert str(checked.value) == str(built.value)

    def test_non_finite_times_pass_as_they_do_through_the_constructors(self):
        nan, inf = float("nan"), float("inf")
        frame = self.frame([nan, inf, 3.0], [nan, 1.0, -inf], [1.0, nan, inf])
        frame.check_time_order()
        frame.segments()

    def test_a_text_source_is_checked_too(self, tmp_path):
        """A text rank's END before its BEGIN never reaches a frame: the
        segmenter refuses it, as it refuses an EXIT before its ENTER."""
        path = tmp_path / "trace.txt"
        lines = []
        for begin, enter, exit_, end in [ROWS[0], (10.0, 11.0, 12.0, 9.0)]:
            lines += [
                f"SEGMENT_BEGIN 0 {begin:.2f} main",
                f"ENTER 0 {enter:.2f} f",
                f"EXIT 0 {exit_:.2f} f",
                f"SEGMENT_END 0 {end:.2f} main",
            ]
        path.write_text("\n".join(lines) + "\n")
        message = r"segment 'main' has end \(9.0\) before start \(10.0\)"
        with pytest.raises(SegmentationError, match=message):
            ReductionPipeline(metric(), PipelineConfig()).reduce(path)
