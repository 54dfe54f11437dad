"""Tests for merging reduced representatives across ranks."""

import numpy as np

from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.core.reduced import ReducedRankTrace, ReducedTrace
from repro.core.reducer import TraceReducer
from repro.trace.merge import merge_reduced_trace

from tests.conftest import make_segment


def _rank(rank, segments, execs):
    ids, starts = zip(*execs)
    return ReducedRankTrace(
        rank=rank,
        chunks=[(RankFrame.from_segments(rank, segments), np.arange(len(segments)))],
        counts=np.ones(len(segments), dtype=np.int64),
        exec_chunks=[(np.array(ids), np.array(starts), np.zeros(len(execs), dtype=bool))],
        n_segments=len(execs),
    )




def _seg(context="main.1", duration=2.0):
    return make_segment(context, [("f", 0.0, 1.0)], end=duration)


class TestMergeReducedTrace:
    def test_empty_reduced_trace(self):
        merged = merge_reduced_trace(ReducedTrace(name="e", method="relDiff", threshold=0.8))
        assert merged.n_stored == 0
        assert merged.n_duplicates == 0
        assert merged.table.execs == []
        assert merged.size_bytes() == 0

    def test_single_rank_is_identity(self):
        rank = _rank(0, [_seg()], [(0, 0.0), (0, 5.0)])
        reduced = ReducedTrace(name="t", method="relDiff", threshold=0.8, ranks=[rank])
        merged = merge_reduced_trace(reduced)
        assert merged.n_stored == 1
        assert merged.n_duplicates == 0
        assert merged.table.execs == [(0, 0.0), (0, 5.0)]
        assert merged.size_bytes() == reduced.size_bytes()

    def test_identical_representatives_deduped(self):
        ranks = [_rank(r, [_seg()], [(0, 0.0)]) for r in range(3)]
        reduced = ReducedTrace(name="t", method="relDiff", threshold=0.8, ranks=ranks)
        merged = merge_reduced_trace(reduced)
        assert merged.n_rank_stored == 3
        assert merged.n_stored == 1
        assert merged.n_duplicates == 2
        assert merged.table.counts.tolist() == [3]
        assert merged.size_bytes() < reduced.size_bytes()

    def test_disjoint_structures_not_merged(self):
        ranks = [
            _rank(0, [_seg(context="main.1")], [(0, 0.0)]),
            _rank(1, [_seg(context="main.2")], [(0, 0.0)]),
        ]
        merged = merge_reduced_trace(
            ReducedTrace(name="t", method="relDiff", threshold=0.8, ranks=ranks)
        )
        assert merged.n_stored == 2
        assert merged.n_duplicates == 0
        # Global ids are assigned in first-seen order and execs remapped.
        assert merged.table.execs == [(0, 0.0), (1, 0.0)]

    def test_dedup_uses_serialized_precision(self):
        # Timestamps that differ below the 2-decimal serialization precision
        # produce byte-identical representatives and must merge.
        ranks = [
            _rank(0, [_seg(duration=2.0)], [(0, 0.0)]),
            _rank(1, [_seg(duration=2.0 + 1e-9)], [(0, 0.0)]),
        ]
        merged = merge_reduced_trace(
            ReducedTrace(name="t", method="iter_avg", threshold=None, ranks=ranks)
        )
        assert merged.n_stored == 1
        assert merged.n_duplicates == 1

    def test_same_structure_different_measurements_kept_apart(self):
        ranks = [
            _rank(0, [_seg(duration=2.0)], [(0, 0.0)]),
            _rank(1, [_seg(duration=3.0)], [(0, 0.0)]),
        ]
        merged = merge_reduced_trace(
            ReducedTrace(name="t", method="relDiff", threshold=0.8, ranks=ranks)
        )
        assert merged.n_stored == 2
        assert merged.n_duplicates == 0

    def test_input_not_mutated(self):
        ranks = [_rank(r, [_seg()], [(0, 0.0)]) for r in range(2)]
        reduced = ReducedTrace(name="t", method="relDiff", threshold=0.8, ranks=ranks)
        merge_reduced_trace(reduced)
        assert all(r.counts.tolist() == [1] for r in reduced.ranks)
        assert all(r.exec_columns()[0].tolist() == [0] for r in reduced.ranks)

    def test_real_reduction_round_trip(self, small_late_sender_trace):
        reduced = TraceReducer(create_metric("iter_avg")).reduce(small_late_sender_trace)
        merged = merge_reduced_trace(reduced)
        assert merged.n_stored + merged.n_duplicates == reduced.n_stored
        # Every exec entry survives with a valid global id.
        execs = merged.table.execs
        assert all(0 <= sid < merged.n_stored for sid, _ in execs)
        assert len(execs) == sum(len(r.execs) for r in reduced.ranks)
        assert merged.table.counts.sum() == sum(r.counts.sum() for r in reduced.ranks)
