"""``ReductionPipeline.write``: the reduced trace streamed to a file.

The file must hold exactly the bytes ``reduce()`` would serialize to — and
the scalar reference's — for every method, executor, source kind and
workload, and the stats must be the ones ``reduce()`` reports: the two entry
points differ only in what the tasks hand back.
"""

from dataclasses import fields

import pytest

from repro import obs
from repro.benchmarks_ats import dyn_load_balance, late_sender
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.pipeline.engine import BATCHES_PER_WORKER, PipelineConfig, ReductionPipeline
from repro.pipeline.stats import RankCounts
from repro.pipeline.stream import rank_batches
from repro.trace import binio
from repro.trace.io import read_trace, serialize_reduced_trace, write_trace

from tests.support import reference_reduce

EXECUTORS = ["serial", "thread", "process"]
#: source kind -> the dispatch a pooled executor gives it.
SOURCES = {"rpb": "shard", "text": "payload", "memory": "payload"}


#: workload -> its trace: regular pairs whose iterations repeat, and ranks
#: whose work drifts and is rebalanced, so a key's rows spread and jump.
WORKLOADS = {
    "late_sender": lambda: late_sender(nprocs=12, iterations=4, seed=3),
    "dyn_load_balance": lambda: dyn_load_balance(
        nprocs=12, iterations=6, rebalance_period=3, seed=3
    ),
}


@pytest.fixture(scope="module", params=WORKLOADS)
def sources(request, tmp_path_factory):
    """One trace as an ``.rpb`` file, a text file and in memory, each with
    the segmented trace the scalar reference reduces for it (the text format
    keeps two decimals, so its reference is the file read back).  More ranks
    than a 2-worker pool cuts batches, so shard batches hold several."""
    root = tmp_path_factory.mktemp("write")
    trace = WORKLOADS[request.param]().run()
    write_trace(trace, root / "trace.rpb")
    write_trace(trace, root / "trace.txt")
    return {
        "rpb": (root / "trace.rpb", trace.segmented()),
        "text": (root / "trace.txt", read_trace(root / "trace.txt").segmented()),
        "memory": (trace.segmented(), trace.segmented()),
    }


def _counts(stats) -> dict:
    """Every ``RankCounts`` field, without the one that is a clock."""
    counts = {spec.name: getattr(stats, spec.name) for spec in fields(RankCounts)}
    counts["match"] = (stats.match.calls, stats.match.rows_compared, stats.match.rows_pruned)
    return counts


@pytest.mark.parametrize("kind", SOURCES)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("metric_name", METRIC_NAMES)
def test_file_is_the_reduced_trace(sources, tmp_path, metric_name, executor, kind):
    source, segmented = sources[kind]
    config = PipelineConfig(executor=executor, workers=2)
    out = tmp_path / "reduced.out"

    written, stats = ReductionPipeline(create_metric(metric_name), config).write(source, out)
    result = ReductionPipeline(create_metric(metric_name), config).reduce(source)

    data = out.read_bytes()
    assert data == serialize_reduced_trace(result.reduced)
    reference = reference_reduce(create_metric(metric_name), segmented)
    assert data == serialize_reduced_trace(reference)
    assert written == out.stat().st_size == result.reduced.size_bytes()
    assert _counts(stats) == _counts(result.stats)
    assert stats.dispatch == result.stats.dispatch == (
        "inline" if executor == "serial" else SOURCES[kind]
    )
    assert list(stats.stage_seconds) == list(result.stats.stage_seconds)
    assert [p.name for p in tmp_path.iterdir()] == ["reduced.out"]


def test_write_replaces_an_existing_file_and_empty_trace_writes_empty(tmp_path):
    from repro.trace.trace import SegmentedTrace

    out = tmp_path / "reduced.out"
    out.write_bytes(b"stale")
    written, stats = ReductionPipeline(create_metric("relDiff")).write(
        SegmentedTrace(name="empty"), out
    )
    assert (written, out.read_bytes(), stats.nprocs) == (0, b"", 0)


def test_failed_write_keeps_the_previous_file(sources, tmp_path):
    """Serial route: a rank that cannot be reduced leaves the target as it was."""
    from repro.core.metrics.minkowski import Euclidean

    class FailingEuclidean(Euclidean):
        def frame_vectors(self, frame):
            if frame.rank == 3:
                raise RuntimeError("rank 3 cannot be vectorized")
            return super().frame_vectors(frame)

    out = tmp_path / "reduced.out"
    out.write_bytes(b"previous run")
    with pytest.raises(RuntimeError, match="rank 3"):
        ReductionPipeline(FailingEuclidean(0.2)).write(sources["rpb"][0], out)
    assert out.read_bytes() == b"previous run"
    assert [p.name for p in tmp_path.iterdir()] == ["reduced.out"]


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_pooled_write_telemetry(tmp_path, executor):
    """Per-batch snapshots keep the invariant ``workers_merged[name] == run[name]``,
    each batch is one ``shard.batch`` span, decode spans are per run of ranks
    and ``rank.reduce`` per rank."""
    path = tmp_path / "trace.rpb"
    write_trace(late_sender(nprocs=20, iterations=3, seed=3).run(), path)
    # More ranks than batches, so a snapshot is a batch's, not a rank's.
    batches = list(rank_batches(path, BATCHES_PER_WORKER * 2))
    assert 1 < len(batches) < 20
    pipeline = ReductionPipeline(
        create_metric("relDiff"), PipelineConfig(executor=executor, workers=2)
    )
    with obs.recording("write") as recorder:
        _, stats = pipeline.write(path, tmp_path / "out")

    assert len(recorder.absorbed) == len(batches)
    run = recorder.registry.snapshot().values
    workers = recorder.worker_metrics().values
    counted = {name for name, value in workers.items() if value.kind == "counter"}
    assert {"pipeline.nprocs", "pipeline.n_segments", "pipeline.match_calls"} <= counted
    for name in counted:
        assert run[name] == workers[name], name
    assert run["pipeline.nprocs"].value == stats.nprocs == 20

    spans = [span for snapshot in recorder.absorbed for span in snapshot.spans]
    batch_spans = [span for span in spans if span.name == "shard.batch"]
    assert [(s.attrs["ranks"], s.attrs["bytes"]) for s in batch_spans] == [
        (len(b.ranks), b.n_bytes) for b in batches
    ]
    assert sorted(s.attrs["rank"] for s in spans if s.name == "rank.reduce") == list(range(20))
    for name in ("shard.decode", "columnar.decode", "rpb.decode_columns"):
        decoded = [
            rank
            for s in spans
            if s.name == name
            for rank in range(s.attrs["first_rank"], s.attrs["first_rank"] + s.attrs["ranks"])
        ]
        assert sorted(decoded) == list(range(20)), name
        assert sum(s.attrs["bytes"] for s in spans if s.name == name) == sum(
            b.n_bytes for b in batches
        )
    # A batch of short ranks is one run: decoded, keyed and vectorized once.
    assert len([s for s in spans if s.name == "shard.decode"]) == len(batches)
    assert len([s for s in spans if s.name == "columnar.vectorize"]) == 2 * len(batches)
    assert run["pipeline.text_bytes"].value == stats.text_bytes == binio.text_bytes(path)
