"""Tests for the batched matching engine: candidate matrices written when a
store is kept, the per-family dense kernels, the metric-kernel bugfixes
(zero-clamped match limits), and the reducer's key-batched step (its
kernels' broadcast forms, its counts, its exactness)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.candidates import CandidateList, MatchCounters, RepresentativeStore
from repro.core.frames import InternedKey, RankFrame
from repro.core.frametrace import FrameTrace
from repro.core.metrics import DEFAULT_THRESHOLDS, METRIC_CLASSES, create_metric
from repro.core.metrics.distance import AbsDiff, RelDiff
from repro.core.metrics.minkowski import Chebyshev, Euclidean, Manhattan
from repro.core.metrics.wavelet import AvgWave, HaarWave
from repro.core.reduced import ReducedTrace, StoredSegment
from repro.core import reducer as reducer_module
from repro.core.reducer import KeyBatches, TraceReducer
from repro.core.sampling import PeriodicSampling, RandomSampling
from repro.experiments.config import SCALES, build_workload
from repro.fuzz.executor import plan_cases
from repro.fuzz.generators import generate_case
from repro.trace.io import serialize_reduced_trace

from tests.conftest import make_segment
from tests.properties.strategies import interleaved_segments
from tests.support import led_by_a_stranger, reference_reduce

DISTANCE_METRICS = [RelDiff, AbsDiff, Manhattan, Euclidean, Chebyshev, AvgWave, HaarWave]


def _stored(segment, sid=0):
    return StoredSegment(segment_id=sid, segment=segment)


def _append(bucket, metric, stored):
    """Store ``stored`` with its feature row, as a kept distance metric's store does."""
    bucket.extend([stored], [metric.build_vector(stored.segment)])


def _bucket(metric, entries):
    bucket = CandidateList()
    for entry in entries:
        _append(bucket, metric, entry)
    return bucket


def _dense(metric, candidate, bucket):
    """The kernel's first match as the core takes it: the segment's feature row
    against the bucket's matrix, the first row within the threshold."""
    matrix = bucket.matrix()
    scales = None if metric.row_scale is None else metric.row_scale(matrix)
    stat, base = metric.match_stats(metric.build_vector(candidate), matrix, scales)
    mask = stat <= (metric.threshold if base is None else metric.threshold * base)
    return bucket[int(mask.argmax())] if mask.any() else None


def _jittered(delta, context="c"):
    return make_segment(
        context,
        [("f", 1.0 + delta, 20.0 + delta), ("g", 25.0, 40.0 + delta)],
        end=50.0 + delta,
    )


class TestCandidateList:
    def test_sequence_protocol(self):
        bucket = CandidateList()
        assert not bucket
        assert len(bucket) == 0
        entries = [_stored(_jittered(float(i)), sid=i) for i in range(3)]
        for entry in entries:
            bucket.extend([entry])
        assert bool(bucket)
        assert list(bucket) == entries
        assert bucket[0] is entries[0]
        assert bucket[-1] is entries[2]

    def test_matrix_rows_follow_insertion_order(self):
        deltas = [0.0, 3.0, 7.0]
        bucket = _bucket(AbsDiff(1.0), [_stored(_jittered(d), sid=i) for i, d in enumerate(deltas)])
        matrix = bucket.matrix()
        assert matrix.shape == (3, 5)
        for row, delta in zip(matrix, deltas):
            np.testing.assert_allclose(
                row, [1.0 + delta, 20.0 + delta, 25.0, 40.0 + delta, 50.0 + delta]
            )

    def test_matrix_grows_geometrically_and_incrementally(self):
        metric = AbsDiff(1.0)
        bucket = CandidateList()
        for i in range(CandidateList.MIN_CAPACITY + 3):
            _append(bucket, metric, _stored(_jittered(float(i)), sid=i))
            matrix = bucket.matrix()
            assert matrix.shape[0] == i + 1
            # The backing buffer only ever doubles.
            assert bucket._matrix.shape[0] in (4, 8, 16)
            np.testing.assert_allclose(matrix[i][0], 1.0 + i)

    def test_rows_for_every_entry_or_for_none(self):
        metric = AbsDiff(1.0)
        with_rows = _bucket(metric, [_stored(_jittered(0.0))])
        with pytest.raises(ValueError, match="feature row"):
            with_rows.extend([_stored(_jittered(1.0), sid=1)])
        without = CandidateList()
        without.extend([_stored(_jittered(0.0))])
        with pytest.raises(ValueError, match="feature row"):
            _append(without, metric, _stored(_jittered(1.0), sid=1))


@pytest.mark.parametrize("metric_cls", DISTANCE_METRICS)
class TestKernelAgainstScan:
    """The dense probe must reproduce the legacy scan's first-match decision."""

    def _candidates(self):
        deltas = [300.0, 40.0, 0.7, 0.1, 200.0]
        return [_stored(_jittered(d), sid=i) for i, d in enumerate(deltas)]

    @pytest.mark.parametrize("threshold", [0.0, 0.05, 0.3, 1.0])
    def test_same_choice(self, metric_cls, threshold):
        metric = metric_cls(threshold if metric_cls is not AbsDiff else threshold * 1000)
        candidate = _jittered(0.0)
        entries = self._candidates()
        scanned = metric.match(candidate, entries)
        batched = _dense(metric, candidate, _bucket(metric, entries))
        assert scanned is batched

    def test_no_match_returns_none(self, metric_cls):
        metric = metric_cls(1e-12)
        bucket = _bucket(metric, [_stored(_jittered(250.0))])
        assert _dense(metric, _jittered(0.0), bucket) is None


class TestZeroClampedLimitsFixed:
    """Signed max(initial=0) clamped match limits to zero for non-positive
    measurement vectors; the limit now scales with the largest magnitude."""

    def _negative_pair(self):
        # Events before the segment start give negative relative timestamps;
        # the duration (leading Minkowski element) stays >= 0.
        a = make_segment("c", [("f", -50.0, -10.0)], start=0.0, end=0.0)
        b = make_segment("c", [("f", -50.5, -10.2)], start=0.0, end=0.0)
        return a, b

    @pytest.mark.parametrize("metric_cls", [Manhattan, Euclidean, Chebyshev])
    def test_minkowski_negative_measurements_can_match(self, metric_cls):
        a, b = self._negative_pair()
        metric = metric_cls(0.2)
        assert metric.limit(a, b) > 0.0
        assert metric.match(a, [_stored(b)]) is not None

    @pytest.mark.parametrize("metric_cls", [Manhattan, Euclidean, Chebyshev])
    def test_minkowski_scan_and_batch_agree_on_negatives(self, metric_cls):
        a, b = self._negative_pair()
        metric = metric_cls(0.2)
        stored = _stored(b)
        assert _dense(metric, a, _bucket(metric, [stored])) is metric.match(a, [stored])

    def test_wavelet_non_positive_coefficients_can_match(self):
        class NegatedAvgWave(AvgWave):
            """Transform stub whose coefficients are all <= 0."""

            def transformed(self, segment):
                return -np.abs(super().transformed(segment)) - 1.0

        a, b = _jittered(0.0), _jittered(0.3)
        metric = NegatedAvgWave(0.2)
        assert metric.transformed(a).max() < 0.0
        assert metric.match(a, [_stored(b)]) is not None
        assert _dense(metric, a, _bucket(metric, [_stored(b)])) is not None

    def test_paper_worked_examples_still_hold(self, paper_segments):
        """The magnitude fix must not change the paper's worked-example results."""
        s0, s1, s2 = (paper_segments[k] for k in ("s0", "s1", "s2"))
        assert Manhattan(0.2).limit(s2, s1) == pytest.approx(10.2)  # 0.2 x 51
        transformed = AvgWave(0.2).transformed(s0)
        assert transformed.max() == pytest.approx(17.625)  # the printed final trend
        # ... and the s0/s2 match decision of Figure 3 is unchanged.
        assert AvgWave(0.2).match(s2, [_stored(s0)]) is not None


class TestMatchCounters:
    def test_rows_per_call(self):
        assert MatchCounters().rows_per_call == 0.0
        assert MatchCounters(calls=4, rows_compared=10).rows_per_call == 2.5

    def test_reducer_fills_counters(self):
        segments = [_jittered(0.0), _jittered(0.1), _jittered(0.2)]
        counters = MatchCounters()
        TraceReducer(create_metric("relDiff")).reduce_segments(
            segments, match_counters=counters
        )
        assert counters.calls == 2  # first segment has no candidates
        assert counters.rows_compared >= counters.calls
        assert counters.seconds >= 0.0


class TestEveryMetricScansACandidateList:
    @pytest.mark.parametrize("name", sorted(METRIC_CLASSES))
    def test_scan_reads_a_bucket_like_a_list(self, name):
        """``metric.match`` reads a store bucket as it reads a list."""
        metric = create_metric(name)
        bucket = CandidateList()
        bucket.extend([_stored(_jittered(0.0))])
        assert metric.match(_jittered(0.05), bucket) is metric.match(
            _jittered(0.05), [bucket[0]]
        )


# -- the batch step: kernels, predicate, exactness ----------------------------------

DISTANCE_NAMES = [cls.name for cls in DISTANCE_METRICS]
#: default, strict (default / 50) and zero: mostly matches, mostly leaders, exact repeats only.
THRESHOLD_KINDS = {"default": 1.0, "strict": 1 / 50, "zero": 0.0}


def _bytes(metric, ranks):
    reduced = ReducedTrace(name="t", method=metric.name, threshold=metric.threshold, ranks=ranks)
    return serialize_reduced_trace(reduced)


def _scan(metric, segments, store=None, counters=None):
    """The ground truth: the paper's per-candidate scan, segment at a time."""
    return TraceReducer(metric).reduce_segments(segments, store=store, match_counters=counters)


def _chunked(metric, segments, cuts, store):
    """``reduce_frame`` over ``segments`` cut at ``cuts``, continued through ``into=``."""
    reducer, reduced = TraceReducer(metric), None
    for lo, hi in zip((0, *cuts), (*cuts, len(segments))):
        frame = RankFrame.from_segments(0, segments[lo:hi])
        reduced = reducer.reduce_frame(frame, store=store, into=reduced)
    return reduced


def _reference_store(metric, segments):
    """The store the scalar reference leaves, each representative entered as its
    id, with its feature row, as the core keeps a distance metric's."""
    scanned_store = RepresentativeStore()
    scanned = _scan(metric, segments, scanned_store)
    store = RepresentativeStore()
    for sid, segment in enumerate(scanned.segments()):
        store.extend(InternedKey(segment.structure()), [sid], [metric.build_vector(segment)])
    store.counters = scanned_store.counters
    return store


def _store_state(store):
    """A store's counters and buckets in order: each key, its ids and its rows' bytes."""
    return store.counters, [
        (key, list(bucket), None if bucket._matrix is None else bucket.matrix().tobytes())
        for key, bucket in store._by_key.items()
    ]


class TestBroadcastKernels:
    """The two call shapes the batch step adds are bitwise the 1-D call."""

    @pytest.mark.parametrize("metric_cls", DISTANCE_METRICS)
    def test_probe_stack_and_swapped_roles_are_bitwise_the_row_call(self, metric_cls):
        metric = metric_cls(0.2)
        rng = np.random.default_rng(7)
        for width in range(1, 130):  # crosses every pairwise-summation block edge
            probes = rng.normal(scale=50.0, size=(5, width))
            matrix = rng.normal(scale=50.0, size=(4, width))
            probes[2] = matrix[1]  # an exact repeat
            probes[3] = 0.0
            matrix[3] = 0.0  # all-zero rows on both sides
            scales = None if metric.row_scale is None else metric.row_scale(matrix)
            pscales = None if metric.row_scale is None else metric.row_scale(probes)
            stat, base = metric.match_stats(probes[:, None, :], matrix, scales)
            assert stat.shape == (5, 4)
            for i, probe in enumerate(probes):
                row_stat, row_base = metric.match_stats(probe, matrix, scales)
                assert stat[i].tobytes() == row_stat.tobytes(), (metric.name, width, i)
                if base is not None:
                    assert base[i].tobytes() == row_base.tobytes(), (metric.name, width, i)
            for j, row in enumerate(matrix):
                col_stat, col_base = metric.match_stats(row, probes, pscales)
                assert stat[:, j].tobytes() == col_stat.tobytes(), (metric.name, width, j)
                if base is not None:
                    assert base[:, j].tobytes() == col_base.tobytes(), (metric.name, width, j)

    @pytest.mark.parametrize("metric_cls", [Manhattan, Euclidean, Chebyshev, AvgWave, HaarWave])
    def test_row_scale_serves_a_row_and_a_stack(self, metric_cls):
        metric = metric_cls(0.2)
        rows = np.array([[1.0, -7.0, 3.0], [0.0, 0.0, 0.0]])
        assert metric.row_scale(rows).tolist() == [7.0, 0.0]
        assert metric.row_scale(rows[0]) == 7.0


def _mixed_rank():
    """Two interleaved keys with repeats, near repeats and strangers."""
    deltas = [0.0, 0.1, 30.0, 0.0, 0.2, 30.1, 60.0, 0.1]
    return [
        _jittered(d, context="a" if i % 3 else "b").shifted(100.0 * i)
        for i, d in enumerate(deltas)
    ]


class TestCounts:
    @pytest.mark.parametrize(
        "make_metric",
        [
            lambda: create_metric("iter_avg"),
            lambda: create_metric("iter_k", 2),
            lambda: PeriodicSampling(2),
            lambda: RandomSampling(0.5, seed=3),
        ],
        ids=["iter_avg", "iter_k", "sample_period", "sample_random"],
    )
    def test_counting_methods_make_no_kernel_call(self, make_metric):
        segments = _mixed_rank()
        counters, metric = MatchCounters(), make_metric()
        frame = RankFrame.from_segments(0, segments)
        reduced = TraceReducer(metric).reduce_frame(frame, match_counters=counters)
        assert counters.calls == counters.rows_compared == 0 < reduced.n_possible_matches
        assert _bytes(metric, [reduced]) == _bytes(metric, [_scan(make_metric(), segments)])

    @pytest.mark.parametrize("name", DISTANCE_NAMES)
    def test_batch_step_makes_fewer_calls_over_no_more_pairs(self, name):
        segments = _mixed_rank() * 4
        batch, scan = MatchCounters(), MatchCounters()
        frame = RankFrame.from_segments(0, segments)
        metric = create_metric(name, DEFAULT_THRESHOLDS[name] / 8)  # relDiff at 0.1
        reduced = TraceReducer(metric).reduce_frame(frame, match_counters=batch)
        scanned = _scan(create_metric(name, metric.threshold), segments, counters=scan)
        assert _bytes(metric, [reduced]) == _bytes(metric, [scanned])
        assert scan.calls == scanned.n_possible_matches
        assert batch.calls <= reduced.n_stored < scan.calls
        assert batch.calls <= batch.rows_compared <= scan.rows_compared

    def test_batch_step_reads_the_clock_only_for_a_counter(self, monkeypatch):
        reads = []
        monkeypatch.setattr(reducer_module, "perf_counter", lambda: reads.append(1) or 0.0)
        frame = RankFrame.from_segments(0, _mixed_rank() * 4)
        TraceReducer(RelDiff(0.1)).reduce_frame(frame)
        assert not reads
        counters = MatchCounters()
        TraceReducer(RelDiff(0.1)).reduce_frame(frame, match_counters=counters)
        assert len(reads) == 2 * counters.calls > 0


def _strangers_and_repeats():
    """Three keys, mostly strangers at a strict threshold, every fifth a repeat,
    then a fourth key seen once."""
    return [
        _jittered(3.0 * (i - i % 5), context="abc"[i % 3]).shifted(100.0 * i) for i in range(30)
    ] + [_jittered(0.0, context="d").shifted(3000.0)]


def _strict(name):
    """``name`` at its default threshold / 50; the iteration methods keep their defaults."""
    return create_metric(name, DEFAULT_THRESHOLDS[name] / 50 if name in DISTANCE_NAMES else None)


@pytest.mark.parametrize(
    "cuts",
    [(), (5, 6, 17), (1,), (30,), tuple(range(1, 31))],
    ids=["whole", "chunked", "head_row", "last_key_alone", "row_by_row"],
)
@pytest.mark.parametrize("name", sorted(METRIC_CLASSES))
class TestFrameRowsAreTheOnlyProbe:
    def test_no_segment_is_built_to_reduce(self, name, cuts):
        """Every method steps with frame rows and books them: no method builds a
        Segment, ``iter_avg`` neither, which writes its means into rows."""
        segments = _strangers_and_repeats()
        metric, store = _strict(name), RepresentativeStore()
        reducer, reduced, frames = TraceReducer(metric), None, []
        for lo, hi in zip((0, *cuts), (*cuts, len(segments))):
            frames.append(RankFrame.from_segments(0, segments[lo:hi]))
            reduced = reducer.reduce_frame(frames[-1], store=store, into=reduced)
        assert sum(frame.materialized for frame in frames) == 0, (name, cuts)
        if name == "iter_avg":
            assert 0 < (reduced.counts > 1).sum() < reduced.n_stored
        expected = _scan(_strict(name), segments)
        assert _bytes(metric, [reduced]) == _bytes(metric, [expected])

    def test_every_bucket_is_fully_built(self, name, cuts):
        """Nothing restores a missing row on demand, so none may ever be missing:
        a distance metric's bucket holds a row per representative, any other
        method's none (it never compares rows)."""
        metric, store = _strict(name), RepresentativeStore()
        representatives = _chunked(metric, _strangers_and_repeats(), cuts, store).segments()
        buckets = list(store._by_key.values())
        assert sum(len(bucket) for bucket in buckets) == len(store) > 0
        for bucket in buckets:
            if name not in DISTANCE_NAMES:
                assert bucket._matrix is None
                continue
            matrix = bucket.matrix()
            assert len(matrix) == len(bucket) > 0
            for i, entry in enumerate(bucket):
                row = metric.build_vector(representatives[entry])
                assert matrix[i].tobytes() == row.tobytes(), (name, cuts, i)


class TestBatchExactness:
    def test_first_match_wins_in_both_stages(self):
        # At absDiff(10) the jitters 0 and 18 are strangers and 9 matches both:
        # it must take the earlier, as a later leader's probe (no cut, cut
        # after 1) and against an existing bucket (cut after 2, cut twice).
        segments = [_jittered(d).shifted(100.0 * i) for i, d in enumerate((0.0, 18.0, 9.0, 9.0))]
        for cuts in [(), (1,), (2,), (1, 2), (3,)]:
            reduced = _chunked(AbsDiff(10.0), segments, cuts, RepresentativeStore())
            assert reduced.exec_columns()[0].tolist() == [0, 1, 0, 0], cuts
            assert reduced.counts.tolist() == [3, 1], cuts

    @pytest.mark.parametrize("budget", [1, 40, 200, 1 << 16])
    def test_probe_blocking_does_not_change_the_outcome(self, monkeypatch, budget, resolves):
        # One probe per kernel call, ragged blocks, and everything in one call.
        monkeypatch.setattr(reducer_module, "_BLOCK_ELEMENTS", budget)
        segments = [s.shifted(1000.0 * i) for i in range(3) for s in _mixed_rank()]
        counters = MatchCounters()
        metric = Euclidean(0.001)
        reducer, store = TraceReducer(metric), RepresentativeStore()
        head = reducer.reduce_frame(RankFrame.from_segments(0, segments[:8]), store=store)
        tail = RankFrame.from_segments(0, segments[8:])
        # Every tail row repeats a head row: no leader rounds, so per key
        # ceil(probes / block) calls against the bucket the head left.
        expected_calls = 0
        for key, rows, _ in KeyBatches(tail, metric.frame_vectors(tail)).groups:
            block = max(1, budget // store.bucket(key).matrix().size)
            expected_calls += -(-len(rows) // block)
        reduced = reducer.reduce_frame(tail, store=store, into=head, match_counters=counters)
        assert _bytes(metric, [reduced]) == _bytes(metric, [_scan(Euclidean(0.001), segments)])
        assert counters.calls == expected_calls == {1: 16, 40: 7, 200: 2, 1 << 16: 2}[budget]
        # Stage 2 under the same budget, on keys led by a stranger and on 40
        # rows no two alike.
        calls = []
        for group in (led_by_a_stranger(segments), _one_key(1000.0 + 50.0 * np.arange(40))):
            counters = MatchCounters()
            reduced = TraceReducer(metric).reduce_frame(
                RankFrame.from_segments(0, group), match_counters=counters
            )
            assert _bytes(metric, [reduced]) == _bytes(metric, [_scan(Euclidean(0.001), group)])
            calls.append(counters.calls)
        # Behind the stranger a key's rest is resolved after that one empty
        # round when it fits one block; else its rounds, which still match,
        # run on.  The distinct rows are resolved, blocked over leader rows,
        # once the empty rounds in a row reach the resolve's calls: at budget
        # 200, two rows a block, 13 rounds then 13 calls for the 26 rows left.
        assert (resolves, calls) == {
            1: ([20], [8, 40]),
            40: ([20], [8, 40]),
            200: ([26], [8, 27]),
            1 << 16: ([9, 15, 39], [4, 2]),
        }[budget]

    @pytest.mark.parametrize("kind", THRESHOLD_KINDS)
    @pytest.mark.parametrize("name", DISTANCE_NAMES)
    @given(segments=interleaved_segments())
    @settings(max_examples=12, deadline=None)
    def test_batch_equals_scan_whole_and_at_every_cut(self, name, kind, segments):
        threshold = DEFAULT_THRESHOLDS[name] * THRESHOLD_KINDS[kind]
        expected_rank = _scan(create_metric(name, threshold), segments)
        expected = _bytes(create_metric(name, threshold), [expected_rank])
        n = len(segments)
        # Whole, cut once at every boundary (stage 1 against a bucket of any
        # depth, down to a one-row chunk behind n - 1 rows), and row by row.
        for cuts in [(), *((k,) for k in range(1, n)), tuple(range(1, n))]:
            metric = create_metric(name, threshold)
            store = RepresentativeStore()
            reduced = _chunked(metric, segments, cuts, store)
            assert _bytes(metric, [reduced]) == expected, (name, threshold, cuts)
            assert reduced.counts.tolist() == expected_rank.counts.tolist()
            assert reduced.n_matches == expected_rank.n_matches
            assert reduced.n_possible_matches == expected_rank.n_possible_matches
            assert store.counters.lookups == n
            assert store.counters.hits == reduced.n_possible_matches

    @pytest.mark.parametrize("name", DISTANCE_NAMES)
    @given(segments=interleaved_segments(min_segments=2))
    @settings(max_examples=12, deadline=None)
    def test_store_is_the_one_the_reference_leaves(self, name, segments):
        # Bucket order, matrix rows and counters, byte for byte.
        threshold = DEFAULT_THRESHOLDS[name] / 50
        cuts = (len(segments) // 2,)
        batch_store = RepresentativeStore()
        batch = _chunked(create_metric(name, threshold), segments, cuts, batch_store)
        expected = _reference_store(create_metric(name, threshold), segments)
        assert _store_state(batch_store) == _store_state(expected)
        scanned = _scan(create_metric(name, threshold), segments)
        metric = create_metric(name, threshold)
        assert _bytes(metric, [batch]) == _bytes(metric, [scanned])
        assert batch.counts.tolist() == scanned.counts.tolist()
        assert batch.exec_columns()[2].tolist() == scanned.exec_columns()[2].tolist()


class TestFuzzFamiliesReplayed:
    """The two adversarial kernel families, straight through the batch step."""

    @pytest.mark.parametrize("family", ["threshold_edge", "prune_stress"])
    def test_batch_equals_scan(self, family):
        for case in plan_cases(11, 6, families=[family]):
            trace = generate_case(case.spec).segmented()
            method, threshold = case.config.method, case.config.threshold
            if method not in DISTANCE_NAMES:
                continue
            metric = create_metric(method, threshold)
            expected = _bytes(
                metric, [_scan(create_metric(method, threshold), r.segments) for r in trace.ranks]
            )
            whole = [
                TraceReducer(metric).reduce_frame(RankFrame.from_segments(r.rank, r.segments))
                for r in trace.ranks
            ]
            assert _bytes(metric, whole) == expected, case.describe()
            halves = [
                _chunked(metric, r.segments, (len(r.segments) // 2,), RepresentativeStore())
                for r in trace.ranks
            ]
            assert _bytes(metric, halves) == expected, case.describe()


# -- the all-pairs resolve: where a leader round stops matching -------------------


@pytest.fixture
def resolves(monkeypatch):
    """The residue sizes the batch step hands the all-pairs resolve, in call order."""
    sizes = []
    resolve = reducer_module.LeaderRows.resolve

    def counted(source, at, threshold, counters):
        sizes.append(len(at))
        return resolve(source, at, threshold, counters)

    monkeypatch.setattr(reducer_module.LeaderRows, "resolve", counted)
    return sizes


def _wide_rank(events, rng, n=14):
    """One key of ``events`` events (feature width about ``2 * events + 1``) behind a stranger.

    Fresh timings, near repeats, exact repeats of earlier rows and two
    all-zero rows, on a whole-number clock so the repeats stay bit-exact.
    """
    shapes = []
    for i in range(n):
        if i in (3, 9):
            shapes.append(np.zeros(2 * events + 1))
        elif i % 4 == 2 and i > 2:
            shapes.append(shapes[int(rng.integers(0, i))])
        elif i % 4 == 1 and i > 1:
            shapes.append(shapes[i - 1] * (1.0 + 1e-3 * rng.random()))
        else:
            shapes.append(np.cumsum(rng.integers(1, 60, size=2 * events + 1)).astype(float))
    segments, clock = [], 0.0
    for times in [shapes[0] * 1e6, *shapes]:
        pairs = [(f"f{e}", times[2 * e], times[2 * e + 1]) for e in range(events)]
        segments.append(make_segment("wide", pairs, end=times[-1]).shifted(clock))
        clock += float(np.ceil(times[-1])) + 5.0
    return segments


def _one_key(durations):
    """A rank of one segment per duration, all under one key."""
    return [
        make_segment("k", [("f", 1.0, d)], end=2.0 * d).shifted(20000.0 * i)
        for i, d in enumerate(durations.tolist())
    ]


class TestAllPairsResolve:
    """The resolve, held to the scalar reference on groups that take it."""

    @pytest.mark.parametrize("kind", THRESHOLD_KINDS)
    @pytest.mark.parametrize("name", DISTANCE_NAMES)
    def test_widths_past_the_pairwise_summation_block(self, name, kind, resolves):
        threshold = DEFAULT_THRESHOLDS[name] * THRESHOLD_KINDS[kind]
        rng = np.random.default_rng(5)
        for events in range(66):  # rows 1 to 131 wide; the wavelets pad to 1-256
            segments = _wide_rank(events, rng)
            metric, store = create_metric(name, threshold), RepresentativeStore()
            reduced = TraceReducer(metric).reduce_frame(
                RankFrame.from_segments(0, segments), store=store
            )
            expected = _scan(create_metric(name, threshold), segments)
            assert _bytes(metric, [reduced]) == _bytes(metric, [expected]), (name, kind, events)
            assert resolves and resolves[-1] == len(segments) - 1, (name, kind, events)
            # Bucket order and matrix rows as the reference leaves them.
            expected_store = _reference_store(create_metric(name, threshold), segments)
            assert _store_state(store) == _store_state(expected_store), (name, kind, events)

    @pytest.mark.parametrize("seed", [11, 0, 1])
    def test_threshold_edge_cases(self, seed, resolves):
        for case in plan_cases(seed, 20, families=["threshold_edge"]):
            method, threshold = case.config.method, case.config.threshold
            for rank in generate_case(case.spec).segmented().ranks:
                segments = led_by_a_stranger(rank.segments)
                metric = create_metric(method, threshold)
                reduced = TraceReducer(metric).reduce_frame(RankFrame.from_segments(0, segments))
                expected = _scan(create_metric(method, threshold), segments)
                assert _bytes(metric, [reduced]) == _bytes(metric, [expected]), case.describe()
        # Each edge group (a base, two copies, the last match, the first miss) resolved whole.
        assert resolves and set(resolves) == {5}

    @pytest.mark.parametrize("paired", [False, True])
    def test_a_large_resolve_takes_memory_linear_in_its_rows(self, paired, resolves):
        # 5 000 rows under one key: the first 1 000 no two within the
        # threshold, the rest so too, or else in exact pairs, so that half of
        # the rows the resolve takes are leaders that take a row.  An m x m
        # bit matrix of them would be 2 MB, the takers' rows unpacked 8 MB.
        durations = 1000.0 + np.arange(5000)
        if paired:
            durations[1000:] = 3000.0 + np.arange(4000) // 2
        segments = _one_key(durations)
        frame = RankFrame.from_segments(0, segments)
        metric = Euclidean(1e-4)
        tracemalloc.start()
        try:
            reduced = TraceReducer(metric).reduce_frame(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert resolves == [4166]  # after 833 rounds that took nothing
        assert reduced.n_stored == 5000 - 2000 * paired
        # Every row its own representative, or from row 1 000 on one per pair.
        ids = [sid for sid, _ in reduced.execs]
        assert ids == list(range(1000)) + [1000 + (j // 2 if paired else j) for j in range(4000)]
        assert peak < 6 * 2**20, peak


#: ``MatchCounters`` ``(calls, rows_compared)`` of a solo config on the smoke
#: Sweep3D traces, at each method's default threshold and at the default / 50.
#: At the loose thresholds a round rarely finds no match (the counts are the
#: leader rounds' alone); where one does, the resolve costs the calls the
#: rounds did.
LEADER_ROUND_COUNTS = {
    ("sweep3d_8p", "relDiff", "default"): (118, 858),
    ("sweep3d_8p", "relDiff", "strict"): (128, 1130),
    ("sweep3d_8p", "absDiff", "default"): (80, 592),
    ("sweep3d_8p", "absDiff", "strict"): (98, 718),
    ("sweep3d_8p", "manhattan", "default"): (124, 900),
    ("sweep3d_8p", "manhattan", "strict"): (195, 2272),
    ("sweep3d_8p", "euclidean", "default"): (124, 900),
    ("sweep3d_8p", "euclidean", "strict"): (181, 1829),
    ("sweep3d_8p", "chebyshev", "default"): (124, 900),
    ("sweep3d_8p", "chebyshev", "strict"): (133, 1336),
    ("sweep3d_8p", "avgWave", "default"): (124, 900),
    ("sweep3d_8p", "avgWave", "strict"): (154, 1527),
    ("sweep3d_8p", "haarWave", "default"): (124, 900),
    ("sweep3d_8p", "haarWave", "strict"): (154, 1528),
    ("sweep3d_32p", "relDiff", "default"): (475, 12523),
    ("sweep3d_32p", "relDiff", "strict"): (479, 12576),
    ("sweep3d_32p", "absDiff", "default"): (256, 1792),
    ("sweep3d_32p", "absDiff", "strict"): (432, 10416),
    ("sweep3d_32p", "manhattan", "default"): (476, 12572),
    ("sweep3d_32p", "manhattan", "strict"): (486, 12613),
    ("sweep3d_32p", "euclidean", "default"): (476, 12572),
    ("sweep3d_32p", "euclidean", "strict"): (481, 12596),
    ("sweep3d_32p", "chebyshev", "default"): (476, 12572),
    ("sweep3d_32p", "chebyshev", "strict"): (476, 12572),
    ("sweep3d_32p", "avgWave", "default"): (476, 12572),
    ("sweep3d_32p", "avgWave", "strict"): (477, 12574),
    ("sweep3d_32p", "haarWave", "default"): (476, 12572),
    ("sweep3d_32p", "haarWave", "strict"): (478, 12574),
}


@pytest.fixture(scope="module", params=["sweep3d_8p", "sweep3d_32p"])
def smoke_sweep3d(request):
    return request.param, FrameTrace.from_segmented(
        build_workload(request.param, SCALES["smoke"]).run_segmented()
    )


class TestWhereTheResolveFires:
    @pytest.mark.parametrize("kind", ["default", "strict"])
    @pytest.mark.parametrize("name", DISTANCE_NAMES)
    def test_a_solo_config_keeps_its_counts(self, smoke_sweep3d, name, kind):
        workload, trace = smoke_sweep3d
        counters = MatchCounters()
        metric = create_metric(name, DEFAULT_THRESHOLDS[name] * THRESHOLD_KINDS[kind])
        TraceReducer(metric).reduce(trace, match_counters=counters)
        counts = (counters.calls, counters.rows_compared)
        assert counts == LEADER_ROUND_COUNTS[workload, name, kind]

    def test_one_odd_row_ahead_of_many_alike_keeps_its_rounds(self, resolves):
        # A slow first iteration leads the key's first round and matches
        # nothing; the next leader takes all 999 rows behind it: two calls
        # over 1 000 + 999 pairs, as the leader rounds alone make.
        segments = _one_key(np.r_[1e6, 1000.0 + 0.01 * np.arange(1000)])
        metric, counters = RelDiff(0.8), MatchCounters()
        reduced = TraceReducer(metric).reduce_frame(
            RankFrame.from_segments(0, segments), match_counters=counters
        )
        assert (counters.calls, counters.rows_compared, resolves) == (2, 1999, [])
        assert _bytes(metric, [reduced]) == _bytes(metric, [_scan(RelDiff(0.8), segments)])

    def test_a_round_that_takes_rows_starts_the_count_again(self, monkeypatch, resolves):
        # Ten rows a block: the 20 rows behind the second stranger would be
        # resolved in two calls, but only one empty round lies behind them in
        # a row (the round between the strangers took a repeat).
        monkeypatch.setattr(reducer_module, "_BLOCK_ELEMENTS", 600)
        segments = _one_key(np.r_[1e6, 1000.0, 1000.0, 2e6, 3000.0 + 0.01 * np.arange(20)])
        metric, counters = Euclidean(0.001), MatchCounters()
        reduced = TraceReducer(metric).reduce_frame(
            RankFrame.from_segments(0, segments), match_counters=counters
        )
        assert (counters.calls, counters.rows_compared, resolves) == (4, 23 + 22 + 20 + 19, [])
        assert _bytes(metric, [reduced]) == _bytes(metric, [_scan(Euclidean(0.001), segments)])

    def test_a_strict_threshold_pays_per_key(self, smoke_sweep3d, resolves):
        _, trace = smoke_sweep3d
        metric, counters = Euclidean(0.001), MatchCounters()
        reduced = TraceReducer(metric).reduce(trace, match_counters=counters)
        groups = sum(
            len(KeyBatches(rank.frame, metric.frame_vectors(rank.frame)).groups)
            for rank in trace.ranks
        )
        assert resolves and counters.calls <= 3 * groups
        expected = reference_reduce(Euclidean(0.001), trace)
        assert serialize_reduced_trace(reduced) == serialize_reduced_trace(expected)
