"""The cutter behind every pooled run: ranks → byte-balanced contiguous batches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks_ats import late_sender
from repro.core.metrics import create_metric
from repro.pipeline.engine import BATCHES_PER_WORKER, PipelineConfig, reduce_pipeline
from repro.pipeline.stream import cut_by_bytes, rank_batches
from repro.trace import binio
from repro.trace.io import write_trace


@settings(max_examples=300, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=10**7), max_size=200),
    workers=st.integers(min_value=1, max_value=16),
)
def test_cut_properties(lengths, workers):
    n_batches = BATCHES_PER_WORKER * workers
    runs = cut_by_bytes(lengths, n_batches)
    # The runs concatenate to the rank order, and none is empty.
    assert [i for run in runs for i in run] == list(range(len(lengths)))
    assert all(len(run) > 0 for run in runs)
    assert len(runs) <= n_batches
    # A run overshoots the target by less than its last item.
    target = -(-sum(lengths) // n_batches)
    for run in runs:
        assert sum(lengths[i] for i in run) - lengths[run[-1]] < target


def test_one_giant_rank_among_small_ones():
    lengths = [100] * 1024
    lengths[500] = 10**6
    runs = cut_by_bytes(lengths, 8)
    giant = next(run for run in runs if 500 in run)
    # Bigger than the target, so it ends its batch; the small ranks behind it
    # do not wait for it in the same task.
    assert giant[-1] == 500
    assert [i for run in runs for i in run] == list(range(1024))
    # Leading the file, it is a batch of its own.
    assert cut_by_bytes([10**6] + [100] * 1023, 8)[0] == range(0, 1)


def test_equal_ranks_cut_evenly():
    assert [len(run) for run in cut_by_bytes([4096] * 1024, 8)] == [128] * 8


def test_fewer_ranks_than_batches():
    assert cut_by_bytes([5, 5, 5], 8) == [range(0, 1), range(1, 2), range(2, 3)]
    assert cut_by_bytes([], 8) == []
    assert cut_by_bytes([7], 8) == [range(0, 1)]


def test_damaged_lengths_still_cut():
    # A footer is outside input: zero and negative lengths weigh one byte, and
    # the decode of the block reports the damage.
    assert [i for run in cut_by_bytes([0, -3, 0, 0], 2) for i in run] == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="n_batches"):
        cut_by_bytes([1], 0)


@pytest.fixture(scope="module")
def trace():
    return late_sender(nprocs=6, iterations=6, seed=3).run()


def test_indexed_file_cuts_by_footer_bytes(trace, tmp_path):
    path = tmp_path / "trace.rpb"
    write_trace(trace, path)
    entries = binio.read_index(path).entries
    batches = list(rank_batches(path, 3))
    assert 1 <= len(batches) <= 3
    assert [r for b in batches for r in b.ranks] == [e.rank for e in entries]
    lengths = {e.rank: e.length for e in entries}
    for batch in batches:
        assert batch.path == str(path) and batch.frames == ()
        assert batch.n_bytes == sum(lengths[r] for r in batch.ranks)
    # The frames are decoded where the batch is iterated, in rank order.
    assert [f.rank for f in batches[0].iter_frames()] == list(batches[0].ranks)


def test_unindexed_and_in_memory_sources_are_one_frame_batches(trace, tmp_path):
    text = tmp_path / "trace.txt"
    write_trace(trace, text)
    for source in (text, trace, trace.segmented()):
        batches = list(rank_batches(source, 8))
        assert [b.ranks for b in batches] == [(r,) for r in range(6)]
        assert all(b.path is None and len(b.frames) == 1 for b in batches)
        assert [f.rank for b in batches for f in b.iter_frames()] == list(range(6))
    # Without a batch count an indexed file is one-frame batches too: the
    # serial route, decoded in this process.
    rpb = tmp_path / "trace.rpb"
    write_trace(trace, rpb)
    assert [b.ranks for b in rank_batches(rpb)] == [(r,) for r in range(6)]


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_dispatch_follows_the_source(trace, tmp_path, executor):
    config = PipelineConfig(executor=executor, workers=2)
    metric = create_metric("relDiff")
    rpb, text, one = tmp_path / "t.rpb", tmp_path / "t.txt", tmp_path / "one.rpb"
    write_trace(trace, rpb)
    write_trace(trace, text)
    with binio.RpbTraceWriter(one) as writer:
        writer.write_rank(0, trace.ranks[0].records)
    assert reduce_pipeline(rpb, metric, config).stats.dispatch == "shard"
    assert reduce_pipeline(text, metric, config).stats.dispatch == "payload"
    # One rank is one batch: no pool is started for it.
    stats = reduce_pipeline(one, metric, config).stats
    assert (stats.dispatch, stats.executor, stats.downgraded) == ("inline", "serial", True)
