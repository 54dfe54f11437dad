"""A run of ranks decodes to what its ranks decode to alone.

``binio.rank_frames`` reads a run of rank blocks with one ``read``, splits,
keys and vectorizes them once, and hands each rank out as a row-range view of
the run's frame.  Whatever the cut — runs of 1, 2, 7, the whole file — the
frames, their derived columns, their text sizes, the reduced bytes and the
stats must be those of the rank-by-rank route, and a run that cannot be taken
whole (damaged, unbalanced across a rank boundary, not end to end in the
file) must give exactly what its ranks give alone: the same frames, or the
same exception with the same text.
"""

from __future__ import annotations

import json
import pickle
import random
import signal

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.frametrace import FrameTrace
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.core.reducer import TraceReducer
from repro.pipeline.engine import PipelineConfig, ReductionPipeline
from repro.trace import binio
from repro.trace.binio import RpbFormatError
from repro.trace.events import MpiCallInfo
from repro.trace.io import serialize_reduced_trace, write_trace
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.segments import SegmentationError

from tests.pipeline.test_pipeline_write import _counts
from tests.trace.rpb_files import TAIL, TAIL_MAGIC, block_bytes, read_blocks, write_rpb
from tests.trace.test_rpb_damage import SECONDS, _damaged, _timed_out

#: Ranks per run the equivalence tests force; 10**6 is "the whole file".
RUN_LENGTHS = [1, 2, 7, 10**6]
#: One metric per feature-vector layout: pairwise, Minkowski, wavelet.
LAYOUT_METRICS = ["relDiff", "chebyshev", "haarWave"]


def _record(kind, rank, t, name, mpi=None):
    return TraceRecord(kind=kind, rank=rank, timestamp=t, name=name, mpi=mpi)


def _segment(rank, start, name, events):
    """BEGIN, then ``(name, enter, exit, mpi)`` events, then END one unit after the last."""
    records = [_record(RecordKind.SEGMENT_BEGIN, rank, start, name)]
    end = start
    for event, enter, exit_, mpi in events:
        records.append(_record(RecordKind.ENTER, rank, enter, event, mpi))
        records.append(_record(RecordKind.EXIT, rank, exit_, event))
        end = exit_
    records.append(_record(RecordKind.SEGMENT_END, rank, end + 1.0, name))
    return records


@pytest.fixture(scope="module")
def many_path(tmp_path_factory):
    """Many short ranks: a 64-rank ``late_sender``."""
    path = tmp_path_factory.mktemp("runs") / "many.rpb"
    write_trace(late_sender(nprocs=64, iterations=3, seed=5).run(), path)
    return path


@pytest.fixture(scope="module")
def mixed_path(tmp_path_factory):
    """An empty rank, a rank without MPI rows, a one-segment rank and a long rank."""
    path = tmp_path_factory.mktemp("runs") / "mixed.rpb"
    send = MpiCallInfo(op="send", peer=1, tag=3, nbytes=64)
    recv = MpiCallInfo(op="recv", peer=0, tag=3, nbytes=64, comm="row")
    long_rank = []
    for i in range(400):
        long_rank += _segment(
            4, 10.0 * i, "loop",
            [("compute", 10.0 * i + 1, 10.0 * i + 2 + (i % 7) * 0.1, None),
             ("MPI_Recv", 10.0 * i + 3, 10.0 * i + 4, recv if i % 3 else None)],
        )
    with binio.RpbTraceWriter(path) as writer:
        writer.write_rank(0, [])
        writer.write_rank(1, _segment(1, 0.0, "init", [("compute", 1.0, 2.0, None)])
                          + _segment(1, 5.0, "loop", [("compute", 6.0, 7.5, None)])
                          + _segment(1, 9.0, "loop", [("compute", 10.0, 11.0, None)]))
        writer.write_rank(2, _segment(2, 0.5, "only", [("MPI_Send", 1.0, 1.5, send)]))
        writer.write_rank(3, _segment(3, 0.0, "bare", []))
        writer.write_rank(4, long_rank)
    return path


@pytest.fixture(params=["many", "mixed"])
def path(request, many_path, mixed_path):
    return {"many": many_path, "mixed": mixed_path}[request.param]


def _by_runs(path, length):
    """The file's frames, decoded ``length`` ranks at a time."""
    ranks = binio.rank_ids(path)
    return [
        frame
        for at in range(0, len(ranks), length)
        for frame in binio.rank_frames(path, ranks[at : at + length])
    ]


def _mpi(frame):
    return [frame.mpi_table[i] if i >= 0 else None for i in frame.ev_mpi.tolist()]


def _bit_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("length", RUN_LENGTHS)
def test_frames_of_a_run_are_the_frames_of_its_ranks(path, length):
    frames = _by_runs(path, length)
    assert [frame.rank for frame in frames] == binio.rank_ids(path)
    for frame in frames:
        alone = binio.rank_frame(path, frame.rank)
        for column in ("contexts", "starts", "ends", "ev_offsets", "ev_names", "ev_starts", "ev_ends"):
            assert _bit_equal(getattr(frame, column), getattr(alone, column)), (frame.rank, column)
        # MPI ids index the run's table; what they name is what the rank's name.
        assert _mpi(frame) == _mpi(alone)
        assert frame.strings == alone.strings and frame.indices is None
        assert frame.text_bytes == alone.text_bytes
        assert [key.value for key in frame.structural_keys()] == [
            key.value for key in alone.structural_keys()
        ]
        for got, want in zip(frame.relative_columns(), alone.relative_columns()):
            assert _bit_equal(got, want)
        for name in LAYOUT_METRICS:
            metric = create_metric(name)
            got, want = metric.frame_vectors(frame), metric.frame_vectors(alone)
            assert len(got) == len(want) == frame.n_segments
            assert all(_bit_equal(g, w) for g, w in zip(got, want)), (frame.rank, name)
        # And of the decoder that shares nothing with this one.
        segments = list(binio.iter_rank_segments(path, frame.rank))
        assert frame.segments() == [segment.relative_to_start() for segment in segments]
        assert FrameTrace.from_frames("t", [frame]).ranks[0].segments == segments


def test_the_bulk_passes_run_once_for_a_run(many_path):
    frames = binio.rank_frames(many_path, binio.rank_ids(many_path))
    keys = {id(key) for frame in frames for key in frame.structural_keys()}
    # One interning for all 64 ranks: a structure is one object across them.
    assert len(keys) == len({key.value for frame in frames for key in frame.structural_keys()})
    rows = create_metric("relDiff").frame_vectors(frames[0])
    assert rows[0].base is create_metric("absDiff").frame_vectors(frames[-1])[0].base


@pytest.mark.parametrize("budget", [1, 3000, 10**9])
def test_text_bytes_whatever_the_cut(path, tmp_path, monkeypatch, budget):
    text = tmp_path / "twin.txt"
    write_trace(binio.read_trace_rpb(path), text)
    per_rank = [binio.rank_frame(path, rank).text_bytes for rank in binio.rank_ids(path)]
    monkeypatch.setattr(binio, "RUN_BYTES", budget)
    runs = binio.rank_runs(path, binio.rank_ids(path))
    assert [rank for ranks, _ in runs for rank in ranks] == binio.rank_ids(path)
    assert sum(n_bytes for _, n_bytes in runs) == sum(binio.rank_bytes(path))
    if budget == 1:
        assert all(len(ranks) == 1 for ranks, _ in runs)
    if budget == 10**9:
        assert len(runs) == 1
    assert binio.text_bytes(path) == sum(per_rank) == text.stat().st_size
    assert sum(rank.frame.text_bytes for rank in FrameTrace.from_file(path).ranks) == sum(per_rank)


def _reference_bytes(path, metric_name):
    reduced = TraceReducer(create_metric(metric_name)).reduce_streams(
        path.stem, ((rank, binio.iter_rank_segments(path, rank)) for rank in binio.rank_ids(path))
    )
    return serialize_reduced_trace(reduced)


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
def test_write_is_the_scalar_reference_and_counts_what_rank_by_rank_counts(
    path, tmp_path, monkeypatch, metric_name
):
    want = _reference_bytes(path, metric_name)
    out = tmp_path / "out.txt"
    process = PipelineConfig(executor="process", workers=2)
    counts = []
    # The budget as it is (each file is one run), one the long rank does not
    # fit, and one nothing fits: every run is one rank.
    for budget, config in [(None, None), (None, process), (3000, None), (1, None)]:
        if budget is not None:
            monkeypatch.setattr(binio, "RUN_BYTES", budget)
        written, stats = ReductionPipeline(create_metric(metric_name), config).write(path, out)
        assert out.read_bytes() == want, (budget, config)
        assert written == len(want)
        counts.append(_counts(stats))
    assert counts[0] == counts[1] == counts[2] == counts[3]
    assert counts[0]["text_bytes"] == binio.text_bytes(path)


# -- runs that cannot be taken whole -------------------------------------------


def _outcome(call):
    """What ``call`` gave: its value, or the type and text of what it raised."""
    try:
        return call()
    except (RpbFormatError, SegmentationError) as error:
        return type(error), str(error)


def _frame_columns(frames):
    columns = ("contexts", "starts", "ends", "ev_offsets", "ev_names", "ev_starts", "ev_ends")
    return [
        (
            frame.rank,
            frame.text_bytes,
            [getattr(frame, column).tobytes() for column in columns],
            _mpi(frame),
            _outcome(frame.check_time_order),
        )
        for frame in frames
    ]


def _written(path, out, executor):
    config = PipelineConfig(executor=executor, workers=2)
    ReductionPipeline(create_metric("euclidean", 0.1), config).write(path, out)
    return out.read_bytes()


def _all_routes(path, out):
    """Every consumer of the run decoder, over the whole file."""
    ranks = binio.rank_ids(path)
    return {
        "rank_frames": _outcome(lambda: _frame_columns(binio.rank_frames(path, ranks))),
        "from_file": _outcome(lambda: _frame_columns(rank.frame for rank in FrameTrace.from_file(path).ranks)),
        "text_bytes": _outcome(lambda: binio.text_bytes(path)),
        "write serial": _outcome(lambda: _written(path, out, "serial")),
        "write pooled": _outcome(lambda: _written(path, out, "thread")),
    }


def _same_by_run_and_by_rank(path, out, monkeypatch):
    """Decode ``path`` in runs and rank by rank; the outcomes must be the same."""
    with monkeypatch.context() as patch:
        patch.setattr(binio, "RUN_BYTES", 1)
        by_rank = _all_routes(path, out)
    by_run = _all_routes(path, out)
    assert by_run == by_rank
    return by_run


def test_seeded_damage_gives_what_rank_by_rank_gives(tmp_path, monkeypatch):
    source = tmp_path / "late_sender.rpb"
    write_trace(late_sender(nprocs=12, iterations=3, seed=4).run(), source)
    assert len(binio.rank_runs(source, binio.rank_ids(source))) == 1
    data = source.read_bytes()
    rng = random.Random(1)
    seen = {"decoded": 0, "RpbFormatError": 0, "SegmentationError": 0}
    previous = signal.signal(signal.SIGALRM, _timed_out)
    try:
        for case in range(200):
            what, damaged = _damaged(data, rng)
            # A fresh name per case: the index cache is keyed by path and stat.
            path = tmp_path / f"case{case}.rpb"
            path.write_bytes(damaged)
            signal.alarm(4 * SECONDS)
            try:
                try:
                    outcomes = _same_by_run_and_by_rank(path, tmp_path / "out.txt", monkeypatch)
                except RpbFormatError:
                    seen["RpbFormatError"] += 1  # the footer itself: no ranks to cut
                    continue
            except AssertionError as error:
                raise AssertionError(f"case {case} ({what}): {error}") from error
            finally:
                signal.alarm(0)
                path.unlink()
            for outcome in outcomes.values():
                seen[outcome[0].__name__ if isinstance(outcome, tuple) else "decoded"] += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    # Not vacuous: damaged blocks were met inside runs, and so were files that decode.
    assert seen["RpbFormatError"] > 100 and seen["decoded"] > 100


def _two_rank_file(path, first, second, strings=("s", "f", "t")):
    return write_rpb(
        path,
        [(0, len(first["kind"]), block_bytes(**first)), (1, len(second["kind"]), block_bytes(**second))],
        strings,
    )


BEGIN, END, ENTER, EXIT = (
    int(RecordKind.SEGMENT_BEGIN), int(RecordKind.SEGMENT_END), int(RecordKind.ENTER), int(RecordKind.EXIT)
)


@pytest.mark.parametrize(
    "first, second",
    [
        # Rank 0's last BEGIN is never closed; rank 1 opens with the END that would close it.
        (dict(kind=[BEGIN, END, BEGIN], time=[0.0, 1.0, 2.0], name=[0, 0, 0]),
         dict(kind=[END, BEGIN, END], time=[0.0, 1.0, 2.0], name=[0, 0, 0])),
        # The same with an event astride the boundary.
        (dict(kind=[BEGIN, ENTER], time=[0.0, 1.0], name=[0, 1]),
         dict(kind=[EXIT, END], time=[2.0, 3.0], name=[1, 0])),
        # Rank 0's trailing ENTER, rank 1's leading EXIT, every segment closed.
        (dict(kind=[BEGIN, ENTER, END], time=[0.0, 1.0, 2.0], name=[0, 1, 0]),
         dict(kind=[BEGIN, EXIT, END], time=[0.0, 1.0, 2.0], name=[0, 1, 0])),
    ],
    ids=["begin|end", "begin enter|exit end", "enter end|begin exit"],
)
def test_ranks_that_only_balance_end_to_end_fail_as_they_do_alone(tmp_path, monkeypatch, first, second):
    path = _two_rank_file(tmp_path / "astride.rpb", first, second)
    alone = _outcome(lambda: binio.rank_frame(path, 0))
    assert alone[0] is SegmentationError
    assert _outcome(lambda: binio.rank_frames(path, [0, 1])) == alone
    outcomes = _same_by_run_and_by_rank(path, tmp_path / "out.txt", monkeypatch)
    assert outcomes["write serial"] == outcomes["write pooled"] == alone


def test_mpi_rows_that_name_another_ranks_records_hit_nothing(tmp_path, monkeypatch):
    # Rank 0's MPI row points past its own two records: laid end to end it
    # would land on rank 1's ENTER.
    mpi = dict(mpi_op=[2], mpi_mask=[0], mpi_vals=[[0, 0, 0, 0]], mpi_nbytes=[8], mpi_comm=[3])
    first = dict(kind=[BEGIN, END], time=[0.0, 1.0], name=[0, 0], mpi_pos=[3], **mpi)
    second = dict(kind=[BEGIN, ENTER, EXIT, END], time=[0.0, 1.0, 2.0, 3.0], name=[0, 1, 1, 0])
    path = _two_rank_file(tmp_path / "mpi.rpb", first, second, ("s", "MPI_Send", "send", "world"))
    frames = binio.rank_frames(path, [0, 1])
    assert frames[1].ev_mpi.tolist() == binio.rank_frame(path, 1).ev_mpi.tolist() == [-1]
    _same_by_run_and_by_rank(path, tmp_path / "out.txt", monkeypatch)


def _relaid(tmp_path, source, layout):
    """``source``'s blocks under a footer whose byte ranges ``layout`` rearranges."""
    blocks, strings = read_blocks(source)
    body = bytearray(b"RPB1")
    entries = []
    for rank, n_records, block in blocks:
        if layout == "gap":
            body += b"\0" * 7
        entries.append([rank, len(body), len(block), n_records])
        body += block
    if layout == "out of order":
        entries.reverse()
    if layout == "overlapping":
        entries[2][1:] = entries[1][1:]  # rank 2 reads rank 1's block
    footer = {"version": 1, "ranks": entries, "strings": strings}
    path = tmp_path / f"{layout.replace(' ', '_')}.rpb"
    path.write_bytes(
        bytes(body) + json.dumps(footer).encode("utf-8") + TAIL.pack(len(body), TAIL_MAGIC)
    )
    return path


@pytest.mark.parametrize("layout", ["gap", "out of order", "overlapping"])
def test_blocks_not_end_to_end_decode_as_their_ranks_do(tmp_path, monkeypatch, many_path, layout):
    path = _relaid(tmp_path, many_path, layout)
    outcomes = _same_by_run_and_by_rank(path, tmp_path / "out.txt", monkeypatch)
    assert isinstance(outcomes["rank_frames"], list) and isinstance(outcomes["write pooled"], bytes)
    ranks = binio.rank_ids(path)
    assert ranks == (list(range(63, -1, -1)) if layout == "out of order" else list(range(64)))
    assert [rank for rank, *_ in outcomes["rank_frames"]] == ranks


def test_a_time_order_violation_is_reported_for_its_rank(tmp_path, monkeypatch):
    good = dict(kind=[BEGIN, ENTER, EXIT, END], time=[0.0, 1.0, 2.0, 3.0], name=[0, 1, 1, 0])
    bad = dict(good, time=[0.0, 2.0, 1.0, 3.0])  # EXIT before ENTER
    path = write_rpb(
        tmp_path / "order.rpb",
        [(rank, 4, block_bytes(**(bad if rank == 2 else good))) for rank in range(4)],
        ["s", "f"],
    )
    frames = binio.rank_frames(path, range(4))  # the decode itself does not look at times
    assert len({id(frame._run[0]) for frame in frames}) == 1
    message = "rank 2 block holds an invalid trace: event 'f' has end (1.0) before start (2.0)"
    for frame in frames:
        if frame.rank == 2:
            with pytest.raises(RpbFormatError) as error:
                frame.check_time_order()
            assert str(error.value) == message
        else:
            frame.check_time_order()
    outcomes = _same_by_run_and_by_rank(path, tmp_path / "out.txt", monkeypatch)
    assert outcomes["write serial"] == outcomes["write pooled"] == (RpbFormatError, message)


def test_views_pickle_as_frames_of_their_own(many_path):
    view = binio.rank_frames(many_path, binio.rank_ids(many_path))[5]
    copy = pickle.loads(pickle.dumps(view))
    assert isinstance(copy, RankFrame) and copy._run is None and copy.rank == 5
    assert copy.segments() == view.segments()
    assert [k.value for k in copy.structural_keys()] == [k.value for k in view.structural_keys()]
