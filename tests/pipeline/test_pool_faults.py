"""A pool worker that dies mid-task fails the run; it must not hang it.

Every pooled run goes through the engine's one submit/collect loop, so the
entry points below — ``(path, ranks)`` shard batches (objects back, or bytes
streamed to a file), pickled-frame payload tasks, and a sweep grid over the
same shard batches — share one failure path: the dead worker surfaces as
``BrokenProcessPool`` from the call itself, and no partial result is
returned or left on disk.
"""

import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.metrics import METRIC_CLASSES
from repro.core.metrics.minkowski import Euclidean
from repro.pipeline.engine import (
    PipelineConfig,
    ReductionPipeline,
    reduce_pipeline,
    sweep_pipeline,
)
from repro.sweep.plan import SweepPlan
from repro.trace.io import write_trace

TIMEOUT_S = 30
POOL = PipelineConfig(executor="process", workers=2)
OUTPUT = "reduced.out"


class DyingEuclidean(Euclidean):
    """Kills the pool worker that vectorizes rank 1 — never the test process.

    Module-level so the process pool can pickle it by reference.
    """

    def frame_vectors(self, frame):
        if frame.rank == 1 and multiprocessing.parent_process() is not None:
            os._exit(13)
        return super().frame_vectors(frame)


def _reduce_shard(trace, path):
    return reduce_pipeline(path, DyingEuclidean(0.2), POOL)


def _reduce_payload(trace, path):
    return reduce_pipeline(trace, DyingEuclidean(0.2), POOL)


def _write_shard(trace, path):
    # Rank 0's bytes have been collected by the time rank 1's worker dies.
    return ReductionPipeline(DyingEuclidean(0.2), POOL).write(path, path.with_name(OUTPUT))


def _sweep_shard(trace, path):
    # The sweep creates its metrics from the (patched) registry and ships them
    # to the workers with each task.
    return sweep_pipeline(path, SweepPlan.from_grid(["euclidean"], [0.1, 0.2]), POOL)


@pytest.mark.parametrize("run", [_reduce_shard, _write_shard, _reduce_payload, _sweep_shard])
def test_dead_worker_raises_broken_pool(run, tmp_path, monkeypatch):
    monkeypatch.setitem(METRIC_CLASSES, "euclidean", DyingEuclidean)
    trace = late_sender(nprocs=4, iterations=6, seed=3).run()
    path = tmp_path / "trace.rpb"
    write_trace(trace, path)
    (tmp_path / OUTPUT).write_bytes(b"the previous run's output")

    outcome = []

    def call():
        try:
            outcome.append(run(trace, path))
        except BaseException as error:  # handed to the asserting thread below
            outcome.append(error)

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), f"pooled run still blocked after {TIMEOUT_S}s"
    assert isinstance(outcome[0], BrokenProcessPool), outcome[0]
    # A failed run leaves the output file as it found it, and nothing beside it.
    assert (tmp_path / OUTPUT).read_bytes() == b"the previous run's output"
    assert sorted(p.name for p in tmp_path.iterdir()) == [OUTPUT, "trace.rpb"]
