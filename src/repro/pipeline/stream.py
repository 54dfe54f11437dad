"""Streaming ingestion: uniform per-rank streams from any source.

The pipeline (and so every sweep) consumes ``(rank, RankFrame)`` pairs
(:func:`rank_frame_streams`); the segment-at-a-time ``--verify`` oracle
consumes ``(rank, segment iterator)`` pairs (:func:`rank_segment_streams`),
read from records through the record state machine, not from the frames'
columns.  This module produces both from the places a trace can live:

* an in-memory :class:`~repro.trace.trace.SegmentedTrace` (already segmented)
  or :class:`~repro.core.frametrace.FrameTrace` (already columnar — its
  frames are handed over as they are);
* an in-memory raw :class:`~repro.trace.trace.Trace`: its frames are what
  its ``.rpb`` file would decode to, built by the same code without the
  bytes (:func:`repro.trace.binio.trace_frames`);
* a **text** trace file on disk, read forward a rank at a time (streams must
  be consumed in file order): into record columns and the same frames as a
  raw trace's (:func:`repro.trace.io.iter_rank_columns_text`), or line by
  line into segments;
* an **indexed** trace file (``.rpb``): ranks decode independently from
  their byte ranges, so streams may be consumed in any order — and a worker
  process can open the file itself and decode exactly the ranks it was
  handed (:meth:`RankBatch.iter_frames`), which is how the engine ships
  ``(path, ranks)`` shard batches instead of pickled rank payloads.  Whoever
  decodes them takes a *run* of ranks at a time (the format cuts them by
  block bytes: a long rank alone, short ranks together), so the fixed cost
  of a decode is paid per run, not per rank.

Pooled work is cut here too: :func:`rank_batches` turns a source into
:class:`RankBatch` objects — for an indexed file, a few contiguous runs of
ranks of near-equal block bytes (:func:`cut_by_bytes`, from the footer index
alone); for everything else one batch per rank, holding the rank's frame.

Ranks are produced one at a time, so a consumer that also processes them one
at a time (the serial executor path) runs in memory bounded by the larger of
the largest single rank and one run of short ranks, plus the representative
store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

from repro import obs
from repro.core.frames import RankFrame
from repro.core.frametrace import FrameTrace
from repro.trace import binio
from repro.trace.formats import resolve_format
from repro.trace.io import iter_rank_columns_text
from repro.trace.segments import Segment, iter_segments
from repro.trace.trace import SegmentedTrace, Trace
from repro.util.cut import cut_by_bytes

__all__ = [
    "SegmentSource",
    "rank_segment_streams",
    "rank_frame_streams",
    "source_name",
    "indexed_source_ranks",
    "RankBatch",
    "cut_by_bytes",
    "rank_batches",
]

#: Anything the pipeline can ingest.
SegmentSource = Union[SegmentedTrace, FrameTrace, Trace, str, Path]


def indexed_source_ranks(source: SegmentSource) -> Optional[list[int]]:
    """Rank ids of an indexed (random-access) file source, else ``None``.

    ``None`` means the source is in-memory or a forward-only file; a list
    means any run of the listed ranks can be decoded on its own by the
    format's ``rank_frames``, which is what :meth:`RankBatch.iter_frames`
    does.
    """
    if not isinstance(source, (str, Path)):
        return None
    fmt = resolve_format(source)
    if not fmt.is_indexed:
        return None
    return fmt.rank_ids(Path(source))


@dataclass(frozen=True, slots=True)
class RankBatch:
    """Contiguous ranks of one source: the unit of work one reduction task takes.

    Either the ranks of an indexed file, which whoever runs the task decodes
    itself (``path`` set; ``n_bytes`` is their block bytes in the file), or
    frames this process already built (``frames`` set, ``n_bytes`` 0).
    """

    ranks: tuple[int, ...]
    path: Optional[str] = None
    n_bytes: int = 0
    frames: tuple[RankFrame, ...] = ()

    def iter_frames(self) -> Iterator[RankFrame]:
        """The batch's frames in rank order, decoded a run of ranks at a time.

        What whoever reduces a ``(path, ranks)`` batch runs: the format cuts
        the ranks into runs (``rank_runs``: a big rank alone, short ranks
        together up to a byte budget) and decodes each in one pass
        (``rank_frames``).  Each decode runs under a ``shard.decode`` span,
        so a recorded timeline separates decode from match time per run.
        """
        if self.path is None:
            yield from self.frames
            return
        path = Path(self.path)
        fmt = resolve_format(path)
        for ranks, n_bytes in fmt.rank_runs(path, self.ranks):
            with obs.span("shard.decode", first_rank=ranks[0], ranks=len(ranks), bytes=n_bytes):
                frames = fmt.rank_frames(path, ranks)
            yield from frames


def rank_batches(
    source: SegmentSource, n_batches: Optional[int] = None
) -> Iterator[RankBatch]:
    """The reduction tasks of a source, in rank order.

    With ``n_batches``, an indexed file is cut by its footer's block lengths
    into at most that many ``(path, ranks)`` batches of near-equal bytes
    (:func:`cut_by_bytes`) and nothing is decoded here.  Any other source —
    and every source without ``n_batches`` — yields one batch per rank
    holding the rank's frame, built only when the iterator reaches it.
    """
    ranks = indexed_source_ranks(source) if n_batches is not None else None
    if ranks is None:
        for rank, frame in rank_frame_streams(source):
            yield RankBatch(ranks=(rank,), frames=(frame,))
        return
    path = Path(source)
    lengths = resolve_format(path).rank_bytes(path)
    for run in cut_by_bytes(lengths, n_batches):
        yield RankBatch(
            ranks=tuple(ranks[run.start : run.stop]),
            path=str(path),
            n_bytes=sum(lengths[run.start : run.stop]),
        )


def rank_frame_streams(source: SegmentSource) -> Iterator[Tuple[int, RankFrame]]:
    """Yield ``(rank, RankFrame)`` pairs for any supported source.

    The columnar counterpart of :func:`rank_segment_streams`: files and raw
    in-memory traces become frames through the ``.rpb`` decoder's code (no
    ``Segment`` objects), and only in-memory segmented traces adapt through
    :meth:`RankFrame.from_segments` — so every engine runs one code path
    regardless of where the trace lives.
    """
    ranks = indexed_source_ranks(source)
    if isinstance(source, FrameTrace):  # already columnar: the frames as they are
        frames = (rank_trace.frame for rank_trace in source.ranks)
    elif isinstance(source, SegmentedTrace):
        frames = (RankFrame.from_segments(rank.rank, rank.segments) for rank in source.ranks)
    elif isinstance(source, Trace):
        frames = binio.trace_frames((rank.rank, rank.records) for rank in source.ranks)
    elif ranks is not None:
        frames = RankBatch(ranks=tuple(ranks), path=str(source)).iter_frames()
    else:  # a forward-only (text) file
        frames = binio.trace_frames(iter_rank_columns_text(source))
    for frame in frames:
        yield frame.rank, frame


def rank_segment_streams(
    source: SegmentSource,
) -> Iterator[Tuple[int, Iterable[Segment]]]:
    """Yield ``(rank, segment stream)`` pairs for any supported source.

    The ``--verify`` oracle's input: a file's or a raw trace's records
    (``parse_record`` per text line, ``iter_rank_records`` per ``.rpb`` block)
    through the record state machine.  Streams are yielded in rank order (the
    order ranks appear in the trace).  For forward-only (text) file sources
    each rank's stream must be consumed before advancing to the next pair;
    indexed file sources have no such constraint.
    """
    if isinstance(source, (SegmentedTrace, FrameTrace)):
        for rank_trace in source.ranks:
            # Already materialized (or materializable on access for frame
            # traces): yield the list itself, no copy.
            yield rank_trace.rank, rank_trace.segments
    elif isinstance(source, Trace):
        for rank_trace in source.ranks:
            yield rank_trace.rank, iter_segments(rank_trace.records)
    elif isinstance(source, (str, Path)):
        path = Path(source)
        for rank, records in resolve_format(path).rank_streams(path):
            yield rank, iter_segments(records)
    else:
        raise TypeError(
            "segment source must be a SegmentedTrace, a Trace, or a trace file "
            f"path; got {type(source).__name__}"
        )


def source_name(source: SegmentSource) -> str:
    """Best-effort trace name for a source (file stem for paths)."""
    if isinstance(source, (SegmentedTrace, FrameTrace, Trace)):
        return source.name
    return Path(source).stem
