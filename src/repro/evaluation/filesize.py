"""Percentage of full trace file size (Section 4.3.1).

The criterion compares the *same serialization* of both representations, so
the ratio measures what the reduction saves, not a formatting artefact.  For
a trace file on disk the baseline is therefore not its on-disk size but its
**text-equivalent size** (:func:`full_trace_bytes_from_file`) — what the
trace *would* occupy in the paper's record-per-line format.  For text files
the two coincide; for ``.rpb`` files it is computed from the column blocks by
the text format's own length rules (:class:`repro.trace.io.ColumnTextSizer`),
which keeps the criterion comparable across storage formats.
"""

from __future__ import annotations

from pathlib import Path

from repro import obs
from repro.core.reduced import ReducedTrace
from repro.trace.io import segmented_trace_size_bytes
from repro.trace.trace import SegmentedTrace

__all__ = [
    "percent_file_size",
    "full_trace_bytes",
    "full_trace_bytes_from_file",
    "decoded_trace_bytes",
]


def full_trace_bytes(full: SegmentedTrace) -> int:
    """Serialized size of the full trace in bytes."""
    return segmented_trace_size_bytes(full)


def full_trace_bytes_from_file(path: str | Path) -> int:
    """Text-equivalent size of a trace file in either storage format.

    Each format answers for itself (``TraceFormat.text_bytes``): a text file
    (canonical ``write_trace`` output: one record per line, no extra
    whitespace) *is* the text serialization, so its answer is the file size;
    an ``.rpb`` file sums the record-per-line UTF-8 byte cost over its
    columns, and reports the same full-trace baseline its text twin would.
    """
    from repro.trace.formats import resolve_format

    path = Path(path)
    fmt = resolve_format(path)
    ranks = len(fmt.rank_ids(path)) if fmt.is_indexed else None
    with obs.span("filesize.text_bytes", format=fmt.name, ranks=ranks):
        total = fmt.text_bytes(path)
        obs.counter("filesize.bytes", total)
    return total


def decoded_trace_bytes(source, text_bytes: int) -> int:
    """Text-equivalent size of a trace file or raw ``Trace`` whose frames have just been built.

    The frames of a file and of a raw in-memory trace are sized while their
    record columns are at hand (``RankFrame.text_bytes``; ``text_bytes`` is
    their sum), so the records are not walked a second time; a forward-only
    (text) file is its own text serialization: its size is the file's.
    """
    from repro.trace.formats import resolve_format

    if isinstance(source, (str, Path)) and not resolve_format(source).is_indexed:
        return full_trace_bytes_from_file(source)
    obs.counter("filesize.bytes", text_bytes)
    return text_bytes


def percent_file_size(full: SegmentedTrace, reduced: ReducedTrace) -> float:
    """Reduced trace size as a percentage of the full trace size.

    Both representations are serialized with the same record format
    (see :mod:`repro.trace.io`), so the ratio measures what the reduction
    actually saves, not a formatting artefact.
    """
    full_bytes = full_trace_bytes(full)
    if full_bytes == 0:
        return 100.0
    return 100.0 * reduced.size_bytes() / full_bytes
