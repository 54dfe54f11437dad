"""Trace data model: records, events, segments, traces, serialization.

The model mirrors Section 3 of the paper:

* a *record* is a single time-stamped line written by the tracer during
  execution (function ENTER/EXIT or SEGMENT_BEGIN/SEGMENT_END marker);
* an *event* is an ENTER/EXIT pair, i.e. one executed function occurrence
  with a start and an end timestamp plus (for MPI calls) the call parameters;
* a *segment* is the ordered list of events between one SEGMENT_BEGIN /
  SEGMENT_END marker pair (init, one loop iteration, final, ...);
* a *rank trace* is everything one MPI rank recorded, an *application trace*
  is the collection of all rank traces.
"""

from repro.trace.events import COLLECTIVE_OPS, P2P_OPS, Event, MpiCallInfo
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.segments import Segment, SegmentationError, segment_rank_records, structural_key
from repro.trace.trace import RankTrace, SegmentedRankTrace, SegmentedTrace, Trace
from repro.trace.io import (
    read_trace,
    serialize_records,
    serialize_segment,
    write_trace,
)
from repro.trace.formats import (
    ConversionReport,
    TraceFormat,
    convert_trace,
    format_for_path,
    format_names,
    resolve_format,
    trace_format,
)

__all__ = [
    "Event",
    "MpiCallInfo",
    "COLLECTIVE_OPS",
    "P2P_OPS",
    "RecordKind",
    "TraceRecord",
    "Segment",
    "SegmentationError",
    "segment_rank_records",
    "structural_key",
    "RankTrace",
    "SegmentedRankTrace",
    "SegmentedTrace",
    "Trace",
    "serialize_records",
    "serialize_segment",
    "read_trace",
    "write_trace",
    "ConversionReport",
    "TraceFormat",
    "convert_trace",
    "format_for_path",
    "format_names",
    "resolve_format",
    "trace_format",
]
