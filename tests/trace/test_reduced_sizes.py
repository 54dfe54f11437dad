"""The grid sizer (``ReducedSizer``) against the serializer's bytes.

A sweep sizes all of its configs at once, measuring each shared text once
and adding each config's id digits in bulk.  Its numbers must be the length
of ``serialize_reduced_trace`` for every config: all nine methods
(``iter_avg``'s means are rows of frames of its own), every input kind (text
and ``.rpb`` files, in memory, and rows a process pool shipped back), ids
that cross a digit (9 -> 10, 99 -> 100, 999 -> 1000) and exec starts whose
two-decimal text gains a digit as it rounds up (9.996 -> ``10.00``).
"""

import pytest

from repro.core.metrics import DEFAULT_THRESHOLDS, METRIC_NAMES
from repro.fuzz.generators import trace_from_records
from repro.pipeline.engine import PipelineConfig, sweep_pipeline
from repro.sweep import SweepPlan
from repro.trace.io import ReducedSizer, serialize_reduced_trace, write_trace
from repro.trace.records import RecordKind, TraceRecord

#: Where the digits of a two-decimal start change, from either side.
EDGE_STARTS = {0: (9.995, 99.995, 999.995, 9999.995), 1: (9.996, 99.996, 999.996, 9999.996)}

#: Segments per rank behind the edge starts: one key, every duration its
#: own, so a strict threshold stores each and the ids run past 1 000.
DEEP = 1005


def _rank_records(rank: int) -> list:
    segments = [(0.0, 1.0)] + [(start, 1.0 + 0.25 * k) for k, start in enumerate(EDGE_STARTS[rank])]
    segments += [(10100.0 + 500.0 * i, 1.0 + 0.37 * i) for i in range(DEEP)]
    records = []
    for start, duration in segments:
        records += [
            TraceRecord(RecordKind.SEGMENT_BEGIN, rank, start, "main.1"),
            TraceRecord(RecordKind.ENTER, rank, start + 0.5, "work"),
            TraceRecord(RecordKind.EXIT, rank, start + 0.5 + duration, "work"),
            TraceRecord(RecordKind.SEGMENT_END, rank, start + 1.0 + duration, "main.1"),
        ]
    return records


@pytest.fixture(scope="module")
def raw_trace():
    return trace_from_records("edges", [_rank_records(0), _rank_records(1)])


@pytest.fixture(scope="module")
def sources(raw_trace, tmp_path_factory):
    root = tmp_path_factory.mktemp("sizes")
    write_trace(raw_trace, root / "t.txt")
    write_trace(raw_trace, root / "t.rpb")
    return {"memory": raw_trace.segmented(), "text": root / "t.txt", "rpb": root / "t.rpb"}


def _strict(method):
    """A threshold that stores every row of the deep key: ``iter_k`` keeps
    its first k, a distance method none within 1e-4 of its default."""
    return 2 * DEEP if method == "iter_k" else DEFAULT_THRESHOLDS[method] / 1e4


#: All nine methods, each strict and at its default.
PLAN = SweepPlan(
    [
        spec
        for method in METRIC_NAMES
        for spec in (
            [method]
            if method == "iter_avg"
            else [(method, DEFAULT_THRESHOLDS[method]), (method, _strict(method))]
        )
    ]
)


def _sizes(traces):
    """Every trace's size by one sizer, as a sweep measures its configs."""
    sizer = ReducedSizer()
    return [sizer.size(trace) for trace in traces]


def _assert_sizes_are_the_bytes(result):
    traces = [outcome.reduced for outcome in result]
    want = [len(serialize_reduced_trace(trace)) for trace in traces]
    assert _sizes(traces) == want
    assert want == [trace.size_bytes() for trace in traces]
    return traces


@pytest.mark.parametrize("source", ["memory", "text", "rpb"])
def test_every_config_of_every_source(sources, source):
    traces = _assert_sizes_are_the_bytes(sweep_pipeline(sources[source], PLAN))
    # The input reaches the cases the sizer must get right.
    deepest = max(rank.n_stored for trace in traces for rank in trace.ranks)
    assert deepest > 1000
    starts = {"{:.2f}".format(start) for _, start in traces[0].ranks[1].execs}
    assert {"10.00", "100.00", "1000.00", "10000.00"} <= starts
    starts = {"{:.2f}".format(start) for _, start in traces[0].ranks[0].execs}
    assert {"9.99", "99.99", "999.99"} & starts


def test_rows_a_pool_shipped_back(sources):
    """A pooled result's representatives are rows of frames of their own, one set per config."""
    result = sweep_pipeline(sources["rpb"], PLAN, PipelineConfig(executor="process", workers=2))
    traces = _assert_sizes_are_the_bytes(result)
    assert all(rank.owned == len(rank.chunks) for trace in traces for rank in trace)


def test_one_trace_alone_and_in_a_grid(sources):
    # What a sizer kept from the traces before changes no later size.
    traces = [outcome.reduced for outcome in sweep_pipeline(sources["rpb"], PLAN)]
    assert [_sizes([trace])[0] for trace in traces] == _sizes(traces) == _sizes(traces[::-1])[::-1]
