"""A NaN, infinite or negative timestamp ends every source in a defined error.

Such a value used to pass the text reader (``nan < 0`` is false), the
``.rpb`` column decoder (which builds no record to check) and the in-memory
``TraceRecord``, and reached the reduced output as ``EV MPI_Init nan …``.
Records refuse it at construction, an ``.rpb`` run in its time column.
"""

import math

import pytest

from repro.core.metrics import create_metric
from repro.pipeline.engine import PipelineConfig, ReductionPipeline
from repro.trace import binio
from repro.trace.binio import RpbFormatError
from repro.trace.records import RecordKind, TraceRecord

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
