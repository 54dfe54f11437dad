"""The inter-process merge stage: cross-rank representative deduplication.

The paper collects per-task traces separately and merges them into a single
application trace for analysis.  Intra-process reduction happens *before* the
merge; this module is the merge of the reduced traces (``pipeline --merge``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # runtime import happens inside merge_reduced_trace (cycle)
    from repro.core.reduced import ReducedTrace, StoredSegment

__all__ = ["MergedReducedTrace", "merge_reduced_trace"]


@dataclass(slots=True)
class MergedReducedTrace:
    """A reduced trace after cross-rank representative deduplication.

    Per-rank reduction keeps one representative table per rank; in regular
    programs many ranks store *identical* representatives (same structure,
    same normalised measurements).  The merge stage replaces the per-rank
    tables with one global table and remaps every rank's execution entries to
    global segment ids.

    ``stored`` ids are assigned in first-seen order (rank order, then stored
    order within a rank), so the merge is deterministic.
    """

    name: str
    method: str
    threshold: Optional[float]
    stored: list["StoredSegment"] = field(default_factory=list)
    rank_execs: list[tuple[int, list[tuple[int, float]]]] = field(default_factory=list)
    n_rank_stored: int = 0

    @property
    def n_stored(self) -> int:
        return len(self.stored)

    @property
    def n_duplicates(self) -> int:
        """Representatives that were stored by several ranks and merged away."""
        return self.n_rank_stored - len(self.stored)

    def size_bytes(self) -> int:
        """Serialized size: one global stored table + every rank's exec list."""
        from repro.trace.io import reduced_trace_size_bytes

        all_execs = [entry for _, execs in self.rank_execs for entry in execs]
        return reduced_trace_size_bytes(
            ((s.segment_id, s.segment) for s in self.stored), all_execs
        )


def merge_reduced_trace(reduced: "ReducedTrace") -> MergedReducedTrace:
    """Dedupe identical representatives across ranks (inter-process merge).

    Two representatives are identical iff they have the same structure *and*
    the same normalised timestamp vector at serialized precision — i.e. their
    serializations are the same apart from the segment id.  The input is not
    modified; counts of merged representatives are accumulated on the global
    copies.
    """
    from repro import obs
    from repro.core.reduced import StoredSegment
    from repro.trace.io import _TS_FMT

    merged = MergedReducedTrace(
        name=reduced.name, method=reduced.method, threshold=reduced.threshold
    )
    by_identity: dict[tuple, StoredSegment] = {}
    with obs.span("merge.dedupe", ranks=len(reduced.ranks)):
        for rank_trace in reduced.ranks:
            local_to_global: dict[int, int] = {}
            for stored in rank_trace.stored:
                merged.n_rank_stored += 1
                segment = stored.segment
                identity = (
                    segment.structure(),
                    tuple(_TS_FMT.format(value) for value in segment.timestamps()),
                )
                existing = by_identity.get(identity)
                if existing is None:
                    existing = StoredSegment(
                        segment_id=len(merged.stored), segment=segment, count=stored.count
                    )
                    by_identity[identity] = existing
                    merged.stored.append(existing)
                else:
                    existing.count += stored.count
                local_to_global[stored.segment_id] = existing.segment_id
            merged.rank_execs.append(
                (
                    rank_trace.rank,
                    [(local_to_global[sid], start) for sid, start in rank_trace.execs],
                )
            )
    return merged
