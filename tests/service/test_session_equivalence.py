"""Incremental sessions are byte-identical to the batch reducer oracle.

The acceptance bar for the online service: for every similarity method,
feeding a trace through a :class:`ReductionSession` — segment by segment, in
ragged per-rank chunks, or as raw records — produces exactly the reduced
bytes of the one-shot scalar reference reducer, from every source kind
(in-memory, text file, ``.rpb`` file).
"""

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.metrics import METRIC_NAMES, create_metric
from repro.pipeline.stream import rank_segment_streams
from repro.service import ReductionSession, SessionConfig, source_digest
from repro.trace.formats import convert_trace
from repro.trace.io import read_trace, serialize_reduced_trace, write_trace

from tests.support import reference_reduce


@pytest.fixture(scope="module")
def trace():
    return late_sender(nprocs=4, iterations=6, seed=3).run()


@pytest.fixture(scope="module")
def trace_files(trace, tmp_path_factory):
    root = tmp_path_factory.mktemp("service_ingest")
    text = root / "trace.txt"
    rpb = root / "trace.rpb"
    write_trace(trace, text)
    convert_trace(text, rpb)
    return {"text": text, "rpb": rpb}


def _oracle_bytes(source, metric_name):
    if not hasattr(source, "ranks"):
        source = read_trace(source)
    segmented = source.segmented() if hasattr(source, "segmented") else source
    return serialize_reduced_trace(reference_reduce(create_metric(metric_name), segmented))


def _session_bytes(source, metric_name, chunks):
    """Feed ``source`` through a session in the given chunking pattern.

    ``chunks`` is a callable mapping a segment count to a list of slice
    sizes; chunk sizes cycle per rank so ranks are chunked *differently*
    (the ragged case the batch path never sees).
    """
    session = ReductionSession("t", SessionConfig(metric_name))
    for rank, segments in rank_segment_streams(source):
        segments = list(segments)
        at = 0
        for size in chunks(len(segments), rank):
            if at >= len(segments):
                break
            session.append(RankFrame.from_segments(rank, segments[at : at + size]))
            at += size
        if at < len(segments):
            session.append(RankFrame.from_segments(rank, segments[at:]))
    result = session.finish()
    return serialize_reduced_trace(result.reduced), result


def _one_by_one(n, rank):
    return [1] * n


def _ragged(n, rank):
    # Different chunk sizes per rank, including empty-looking tails.
    sizes, k = [], (rank % 3) + 1
    while sum(sizes) < n:
        sizes.append(k)
        k = (k % 4) + 1
    return sizes


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
class TestEveryMetricEverySource:
    def test_segment_by_segment_in_memory(self, trace, metric_name):
        want = _oracle_bytes(trace, metric_name)
        got, _ = _session_bytes(trace, metric_name, _one_by_one)
        assert got == want

    def test_ragged_chunks_in_memory(self, trace, metric_name):
        want = _oracle_bytes(trace, metric_name)
        got, _ = _session_bytes(trace, metric_name, _ragged)
        assert got == want

    def test_text_file_source(self, trace_files, metric_name):
        want = _oracle_bytes(trace_files["text"], metric_name)
        got, _ = _session_bytes(trace_files["text"], metric_name, _ragged)
        assert got == want

    def test_rpb_file_source(self, trace_files, metric_name):
        want = _oracle_bytes(trace_files["rpb"], metric_name)
        got, _ = _session_bytes(trace_files["rpb"], metric_name, _ragged)
        assert got == want


class TestInterleavingAndFlushes:
    def test_rank_interleaved_appends_match(self, trace):
        # Append round-robin across ranks — per-rank state must be fully
        # independent of global arrival order.
        want = _oracle_bytes(trace, "relDiff")
        session = ReductionSession("t", SessionConfig("relDiff"))
        streams = {
            rank: list(segments) for rank, segments in rank_segment_streams(trace)
        }
        pending = {rank: 0 for rank in streams}
        step = 0
        while pending:
            for rank in sorted(pending):
                at = pending[rank]
                size = (step % 3) + 1
                session.append(RankFrame.from_segments(rank, streams[rank][at : at + size]))
                pending[rank] = at + size
                if pending[rank] >= len(streams[rank]):
                    del pending[rank]
                step += 1
        assert serialize_reduced_trace(session.finish().reduced) == want

    def test_flush_frequency_does_not_change_output(self, trace):
        want = _oracle_bytes(trace, "euclidean")
        session = ReductionSession("t", SessionConfig("euclidean"))
        for rank, segments in rank_segment_streams(trace):
            for segment in segments:
                session.append(RankFrame.from_segments(rank, [segment]))
                session.flush()  # flush after every single segment
        assert serialize_reduced_trace(session.finish().reduced) == want

    def test_deltas_accumulate_to_full_output(self, trace):
        # Concatenating the new representatives and execs of every delta
        # (including finish()'s tail) rebuilds the full reduced trace.
        session = ReductionSession("t", SessionConfig("relDiff"))
        deltas = []
        for rank, segments in rank_segment_streams(trace):
            segments = list(segments)
            for at in range(0, len(segments), 4):
                session.append(RankFrame.from_segments(rank, segments[at : at + 4]))
                deltas.append(session.flush())
        result = session.finish()
        deltas.append(result.delta)
        stored = {}
        execs = {}
        for delta in deltas:
            for rank_delta in delta.ranks:
                stored.setdefault(rank_delta.rank, []).extend(rank_delta.new)
                execs.setdefault(rank_delta.rank, []).extend(
                    zip(rank_delta.exec_ids.tolist(), rank_delta.exec_starts.tolist())
                )
        for rank_trace in result.reduced.ranks:
            assert stored[rank_trace.rank] == list(range(rank_trace.n_stored))
            assert execs[rank_trace.rank] == rank_trace.execs

    def test_updated_representatives_are_flagged(self, trace):
        # A representative stored in one flush window and matched in a later
        # one must appear in the later delta's ``updated`` list with its
        # advanced count.
        session = ReductionSession("t", SessionConfig("relDiff"))
        streams = {
            rank: list(segments) for rank, segments in rank_segment_streams(trace)
        }
        for rank, segments in streams.items():
            session.append(RankFrame.from_segments(rank, segments[: len(segments) // 2]))
        first = session.flush()
        for rank, segments in streams.items():
            session.append(RankFrame.from_segments(rank, segments[len(segments) // 2 :]))
        second = session.flush()
        assert first.n_new > 0
        assert second.n_updated > 0  # iterations repeat, so later halves match
        first_ids = {
            (rank_delta.rank, segment_id)
            for rank_delta in first.ranks
            for segment_id in rank_delta.new
        }
        for rank_delta in second.ranks:
            for segment_id, count in zip(rank_delta.updated.tolist(), rank_delta.counts.tolist()):
                assert (rank_delta.rank, segment_id) in first_ids
                assert count > 1

    def test_empty_append_and_empty_flush(self, trace):
        session = ReductionSession("t", SessionConfig("relDiff"))
        assert session.append(RankFrame.from_segments(0, [])) == 0
        delta = session.flush()
        assert delta.empty
        assert session.stats.deltas_emitted == 0


class TestRecordIngestion:
    def test_records_match_segments(self, trace):
        want = _oracle_bytes(trace, "relDiff")
        session = ReductionSession("t", SessionConfig("relDiff"))
        for rank_trace in trace.ranks:
            records = rank_trace.records
            # Ragged record batches that split segments mid-way.
            at, size = 0, 3
            while at < len(records):
                session.append_records(rank_trace.rank, records[at : at + size])
                at += size
                size = (size % 7) + 1
        result = session.finish()
        assert serialize_reduced_trace(result.reduced) == want
        assert result.digest == source_digest(trace.segmented())

    def test_finish_rejects_open_segment(self, trace):
        from repro.trace.segments import SegmentationError

        session = ReductionSession("t", SessionConfig("relDiff"))
        records = trace.ranks[0].records
        session.append_records(0, records[: len(records) - 2])  # mid-segment
        with pytest.raises(SegmentationError):
            session.finish()

    def test_append_after_finish_rejected(self, trace):
        session = ReductionSession("t", SessionConfig("relDiff"))
        session.append(RankFrame.from_segments(0, trace.segmented().ranks[0].segments))
        session.finish()
        with pytest.raises(RuntimeError, match="finished"):
            session.append(RankFrame.from_segments(0, []))


class TestDigests:
    def test_session_digest_matches_source_digest(self, trace, trace_files):
        segmented = trace.segmented()
        _, result = _session_bytes(trace, "relDiff", _ragged)
        assert result.digest == source_digest(segmented)
        # Digest is chunking-independent.
        _, again = _session_bytes(trace, "relDiff", _one_by_one)
        assert again.digest == result.digest
        # ...but content-dependent: the text file quantizes timestamps, so
        # its digest must differ from the exact in-memory trace's.
        assert source_digest(trace_files["text"]) != result.digest

    def test_text_and_rpb_digests_agree(self, trace_files):
        # Converted .rpb carries the text file's quantized values exactly.
        assert source_digest(trace_files["text"]) == source_digest(trace_files["rpb"])
