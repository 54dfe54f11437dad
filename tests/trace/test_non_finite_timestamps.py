"""A NaN, infinite or negative timestamp ends every source in a defined error.

Such a value used to pass the text reader (``nan < 0`` is false), the
``.rpb`` column decoder (which builds no record to check) and the in-memory
``TraceRecord``, and reached the reduced output as ``EV MPI_Init nan …``.
Records refuse it at construction, an ``.rpb`` run in its time column, and
a hand-built ``Segment`` (which takes any float) the reducer, which checks
every frame before it steps a row.
"""

import asyncio
import math

import pytest

from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.pipeline.engine import PipelineConfig, ReductionPipeline
from repro.service import ReductionService, ReductionSession
from repro.simulator.engine import simulate
from repro.simulator.program import Compute, Program, SegmentBegin, SegmentEnd
from repro.trace import binio
from repro.trace.binio import RpbFormatError
from repro.trace.events import Event
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.segments import Segment
from repro.trace.trace import SegmentedRankTrace, SegmentedTrace

from tests.trace.rpb_files import block_bytes, write_rpb

BAD = [math.nan, math.inf, -1.0]
MESSAGE = "record timestamp must be a finite number >= 0"


def _write_raises(path, error, tmp_path):
    """``pipeline --trace path --output …`` raises ``error`` and writes nothing."""
    out = tmp_path / "reduced.txt"
    pipeline = ReductionPipeline(create_metric("relDiff"), PipelineConfig(executor="serial"))
    with pytest.raises(error, match=MESSAGE):
        pipeline.write(path, out)
    assert not out.exists()


@pytest.mark.parametrize("t", BAD, ids=repr)
def test_a_record_refuses_it(t):
    with pytest.raises(ValueError, match=MESSAGE):
        TraceRecord(kind=RecordKind.ENTER, rank=0, timestamp=t, name="f")


@pytest.mark.parametrize("duration", [math.inf, math.nan], ids=repr)
def test_a_simulated_compute_region_that_never_ends_is_refused(duration):
    program = Program("p", 1, [[SegmentBegin("s"), Compute("w", duration), SegmentEnd("s")]])
    with pytest.raises(ValueError, match=f"^{MESSAGE}, got {duration}$"):
        simulate(program)


@pytest.mark.parametrize("t", BAD, ids=repr)
def test_a_text_trace_holding_it_reduces_to_nothing(t, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(
        "SEGMENT_BEGIN 0 0.00 main.1\n"
        f"ENTER 0 {t} f\n"
        "EXIT 0 2.00 f\n"
        "SEGMENT_END 0 3.00 main.1\n"
    )
    _write_raises(path, ValueError, tmp_path)


@pytest.mark.parametrize("t", BAD, ids=repr)
def test_an_rpb_trace_holding_it_is_a_format_error_on_every_decode_path(t, tmp_path):
    block = block_bytes(kind=[2, 0, 1, 3], time=[0.0, t, 2.0, 3.0], name=[0, 1, 1, 0])
    path = write_rpb(tmp_path / "t.rpb", [(0, 4, block)], ["main.1", "f"])
    for decode in (
        lambda: binio.rank_frames(path, [0]),
        lambda: list(binio.iter_rank_records(path, 0)),
        lambda: list(binio.iter_rank_segments(path, 0)),
        lambda: binio.read_trace_rpb(path),
        lambda: binio.text_bytes(path),
    ):
        with pytest.raises(RpbFormatError, match=f"rank 0 block: {MESSAGE}"):
            decode()
    _write_raises(path, RpbFormatError, tmp_path)


#: ``(time field, value)`` pairs a ``Segment``/``Event`` constructor lets through.
HAND_BUILT = [
    ("start", math.nan), ("start", -math.inf), ("end", math.nan), ("end", math.inf),
    ("ev_start", math.nan), ("ev_start", -math.inf), ("ev_end", math.nan), ("ev_end", math.inf),
]
SEGMENT_MESSAGE = "segment timestamp must be a finite number"


def _hand_built(where, t):
    times = {"start": 0.0, "end": 3.0, "ev_start": 1.0, "ev_end": 2.0}
    times[where] = t
    event = Event("f", times["ev_start"], times["ev_end"], 0)
    return Segment("main", 0, times["start"], times["end"], [event])


def _hand_built_trace(where, t):
    return SegmentedTrace("t", [SegmentedRankTrace(0, [_hand_built(where, t)])])


@pytest.mark.parametrize("where, t", HAND_BUILT, ids=repr)
def test_a_hand_built_segment_is_refused_by_a_session(where, t):
    session = ReductionSession("t", "relDiff")
    with pytest.raises(ValueError, match=SEGMENT_MESSAGE):
        session.append(RankFrame.from_segments(0, [_hand_built(where, t)]))


@pytest.mark.parametrize("where, t", HAND_BUILT, ids=repr)
def test_a_hand_built_segment_is_refused_by_an_in_memory_pipeline_run(where, t):
    pipeline = ReductionPipeline(create_metric("relDiff"), PipelineConfig(executor="serial"))
    with pytest.raises(ValueError, match=SEGMENT_MESSAGE):
        pipeline.reduce(_hand_built_trace(where, t))


@pytest.mark.parametrize("where, t", HAND_BUILT, ids=repr)
def test_a_hand_built_segment_is_refused_by_a_service_submit(where, t):
    async def submit():
        service = ReductionService()
        try:
            await service.submit("acme", _hand_built_trace(where, t), "relDiff")
        finally:
            await service.close()

    with pytest.raises(ValueError, match=SEGMENT_MESSAGE):
        asyncio.run(submit())
