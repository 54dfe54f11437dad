"""Generator families: determinism, text-safety, and the 1-ulp boundary."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.metrics import create_metric
from repro.fuzz.executor import plan_cases
from repro.fuzz.generators import (
    DISTANCE_METRICS,
    FAMILIES,
    FAMILY_NAMES,
    MALFORMED_KINDS,
    TICK,
    CaseSpec,
    boundary_deltas,
    edge_boundary_ends,
    generate_case,
    trace_from_records,
)
from repro.trace.io import serialize_records
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.segments import SegmentationError, iter_segments
from repro.util.rng import rng_for


def _spec(family: str, seed: int = 11) -> CaseSpec:
    params = FAMILIES[family].default_params(rng_for(seed, "params", family))
    return CaseSpec(family=family, seed=seed, params=params)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_same_spec_builds_byte_identical_records(family):
    spec = _spec(family)
    first = generate_case(spec)
    second = generate_case(spec)
    assert first.nprocs == second.nprocs
    for a, b in zip(first.ranks, second.ranks):
        assert serialize_records(a.records) == serialize_records(b.records)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_different_seeds_change_the_trace(family):
    # Params are drawn per seed too, so the pair (params, seed) always moves.
    a = generate_case(_spec(family, seed=1))
    b = generate_case(_spec(family, seed=2))
    a_bytes = b"".join(serialize_records(r.records) for r in a.ranks)
    b_bytes = b"".join(serialize_records(r.records) for r in b.ranks)
    assert a_bytes != b_bytes


@pytest.mark.parametrize("family", [n for n in FAMILY_NAMES if FAMILIES[n].text_safe])
def test_text_safe_families_stay_on_the_tick_grid(family):
    trace = generate_case(_spec(family))
    for rank in trace.ranks:
        for rec in rank.records:
            scaled = rec.timestamp / TICK
            assert scaled == round(scaled), (
                f"{family} rank {rank.rank} timestamp {rec.timestamp} off the 0.25 grid"
            )


@pytest.mark.parametrize("family", [n for n in FAMILY_NAMES if FAMILIES[n].segmentable])
def test_segmentable_families_segment_cleanly(family):
    trace = generate_case(_spec(family))
    segmented = trace.segmented()
    assert segmented.num_segments > 0


def test_malformed_family_breaks_exactly_its_last_rank():
    for kind in MALFORMED_KINDS:
        spec = CaseSpec(family="malformed", seed=3, params={"nprocs": 3, "kind": kind})
        trace = generate_case(spec)
        for rank in trace.ranks[:-1]:
            list(iter_segments(rank.records))  # well-formed
        with pytest.raises(SegmentationError):
            list(iter_segments(trace.ranks[-1].records))


def test_trace_from_records_renumbers_ranks_contiguously():
    rec = TraceRecord(RecordKind.SEGMENT_BEGIN, 5, 0.0, "main.1")
    end = TraceRecord(RecordKind.SEGMENT_END, 5, 1.0, "main.1")
    trace = trace_from_records("t", [[rec, end]])
    assert trace.ranks[0].rank == 0
    assert all(r.rank == 0 for r in trace.ranks[0].records)


# --------------------------------------------------------------------------
# The threshold-edge family's core claim: probes land 1 ulp from the boundary.


def test_boundary_deltas_returns_adjacent_floats():
    last_true, first_false = boundary_deltas(lambda x: x <= 7.3, 0.0, 100.0)
    assert last_true <= 7.3 < first_false
    assert math.nextafter(last_true, math.inf) == first_false


@pytest.mark.parametrize("method", DISTANCE_METRICS)
def test_edge_boundary_is_one_ulp_wide(method):
    from repro.core.metrics import DEFAULT_THRESHOLDS
    from repro.fuzz.generators import _RankScript

    threshold = DEFAULT_THRESHOLDS[method]
    script = _RankScript(0)
    script.begin_segment("edge.0")
    for d in (5, 9, 3):
        script.call("compute", d)
    script.end_segment("edge.0", gap=1)
    base = next(iter_segments(script.records))

    end_match, end_miss = edge_boundary_ends(base, method, threshold)
    assert math.nextafter(end_match, math.inf) == end_miss

    # Replay the decision exactly as the reducer does: normalise, then match.
    metric = create_metric(method, threshold)
    stored = base.relative_to_start()
    stored_ts = np.asarray(stored.timestamps(), dtype=float)

    def decision(end_value):
        from repro.trace.segments import Segment

        probe = Segment(
            context=base.context,
            rank=0,
            start=base.start,
            end=end_value,
            events=list(base.events),
        ).relative_to_start()
        ts = np.asarray(probe.timestamps(), dtype=float)
        return metric.similar(ts, stored_ts, probe, stored)

    assert decision(end_match) is True
    assert decision(end_miss) is False


def test_threshold_edge_case_reduces_to_expected_match_pattern():
    params = {
        "method": "euclidean",
        "threshold": 0.2,
        "pairs": 2,
        "config": {"method": "euclidean", "threshold": 0.2},
    }
    trace = generate_case(CaseSpec(family="threshold_edge", seed=9, params=params))
    from tests.support import reference_reduce

    reduced = reference_reduce(create_metric("euclidean", 0.2), trace.segmented())
    rank = reduced.ranks[0]
    by_context: dict[str, list] = {}
    for segment, count in zip(rank.segments(), rank.counts.tolist()):
        by_context.setdefault(segment.context, []).append(count)
    # Per probe group: 5 executions — base (stored), exact copy (match),
    # edge-match (match), edge-miss (stored), exact copy again (match, and it
    # must pick the *first* representative, proving first-match order).
    for context, counts in by_context.items():
        # base + copy + edge-match + final copy; the boundary miss
        assert counts == [4, 1], context
