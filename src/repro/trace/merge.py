"""The inter-process merge stage: cross-rank representative deduplication.

The paper collects per-task traces separately and merges them into a single
application trace for analysis.  Intra-process reduction happens *before* the
merge; this module is the merge of the reduced traces (``pipeline --merge``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # runtime import happens inside merge_reduced_trace (cycle)
    from repro.core.reduced import ReducedRankTrace, ReducedTrace

__all__ = ["MergedReducedTrace", "merge_reduced_trace"]


@dataclass(slots=True)
class MergedReducedTrace:
    """A reduced trace after cross-rank representative deduplication.

    Per-rank reduction keeps one representative table per rank; in regular
    programs many ranks store *identical* representatives (same structure,
    same normalised measurements).  The merge stage replaces the per-rank
    tables with one global table and remaps every rank's execution entries to
    global segment ids.

    ``table`` is that global table, in a reduced rank's columns: global ids
    are assigned in first-seen order (rank order, then id order within a
    rank), so the merge is deterministic; its counts are the merged counts,
    and its executions every rank's, remapped, in rank order.
    """

    name: str
    method: str
    threshold: Optional[float]
    table: "ReducedRankTrace"
    n_rank_stored: int = 0

    @property
    def n_stored(self) -> int:
        return self.table.n_stored

    @property
    def n_duplicates(self) -> int:
        """Representatives that were stored by several ranks and merged away."""
        return self.n_rank_stored - self.n_stored

    def size_bytes(self) -> int:
        """Serialized size: one global stored table + every rank's exec list."""
        return self.table.size_bytes()


def merge_reduced_trace(reduced: "ReducedTrace") -> MergedReducedTrace:
    """Dedupe identical representatives across ranks (inter-process merge).

    Two representatives are identical iff they have the same structure *and*
    the same normalised timestamp vector at serialized precision — i.e. their
    serializations are the same apart from the segment id, which is what
    each is keyed by.  The input is not modified; counts of merged
    representatives are summed on the global ones.
    """
    from repro import obs
    from repro.core.reduced import ReducedRankTrace
    from repro.trace.io import _segment_template, _text_columns

    table = ReducedRankTrace(rank=-1)
    merged = MergedReducedTrace(reduced.name, reduced.method, reduced.threshold, table)
    by_identity: dict[tuple, int] = {}
    counts: list[int] = []
    with obs.span("merge.dedupe", ranks=len(reduced.ranks)):
        for rank_trace in reduced.ranks:
            to_global = np.empty(rank_trace.n_stored, dtype=np.int64)
            rank_counts = rank_trace.counts.tolist()
            for frame, rows, ids in rank_trace.pieces():
                keys, pairs, ends, bounds = _text_columns(frame)
                fresh = []
                for row, sid in zip(rows.tolist(), ids):
                    text = _segment_template(keys[row]).format(
                        "", ends[row], *pairs[bounds[row] : bounds[row + 1]]
                    )
                    global_id = by_identity.setdefault((keys[row], text), len(counts))
                    if global_id == len(counts):
                        counts.append(0)
                        fresh.append(row)
                    counts[global_id] += rank_counts[sid]
                    to_global[sid] = global_id
                if fresh:
                    table.chunks.append((frame, np.array(fresh)))
            merged.n_rank_stored += rank_trace.n_stored
            ids, starts, matched = rank_trace.exec_columns()
            table.exec_chunks.append((to_global[ids], starts, matched))
        table.counts = np.array(counts, dtype=np.int64)
    return merged
