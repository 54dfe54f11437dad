"""The delta log format and its reconstruction guarantee."""

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.pipeline.stream import rank_segment_streams
from repro.service import ReductionSession, SessionConfig
from repro.trace.io import (
    DeltaWriter,
    iter_delta_chunks,
    serialize_delta,
    serialize_reduced_trace,
)

from tests.support import reference_reduce


@pytest.fixture(scope="module")
def trace():
    return late_sender(nprocs=2, iterations=6, seed=3).run().segmented()


def _session_deltas(trace, config, chunk=4):
    session = ReductionSession("t", config)
    deltas = []
    for rank, segments in rank_segment_streams(trace):
        segments = list(segments)
        for at in range(0, len(segments), chunk):
            session.append(RankFrame.from_segments(rank, segments[at : at + chunk]))
            deltas.append(session.flush())
    result = session.finish()
    deltas.append(result.delta)
    return deltas, result


class TestDeltaFormat:
    def test_header_and_framing(self, trace):
        deltas, _ = _session_deltas(trace, SessionConfig("relDiff"))
        payload = serialize_delta(deltas[0]).decode()
        lines = payload.splitlines()
        assert lines[0].startswith("DELTA 0 t relDiff 0.80 ")
        assert lines[1].startswith("RANK 0 new=")
        # Framing counts match the body.
        rank_delta = deltas[0].ranks[0]
        assert f"new={len(rank_delta.new)}" in lines[1]
        assert f"execs={len(rank_delta.exec_ids)}" in lines[1]
        assert payload.count("DELTA ") == 1

    def test_thresholdless_method_writes_dash(self, trace):
        deltas, _ = _session_deltas(trace, SessionConfig("iter_avg"))
        assert serialize_delta(deltas[0]).decode().splitlines()[0] == (
            f"DELTA 0 t iter_avg - {len(deltas[0].ranks)}"
        )

    def test_empty_delta_serializes_header_only(self, trace):
        session = ReductionSession("t", SessionConfig("relDiff"))
        delta = session.flush()
        assert delta.empty
        assert serialize_delta(delta).decode() == "DELTA 0 t relDiff 0.80 0\n"

    def test_seq_increments(self, trace):
        deltas, _ = _session_deltas(trace, SessionConfig("relDiff"))
        assert [d.seq for d in deltas] == list(range(len(deltas)))

    def test_updated_entries_carry_count_and_segment(self, trace):
        deltas, _ = _session_deltas(trace, SessionConfig("relDiff"))
        updated = [
            (delta, rank_delta)
            for delta in deltas
            for rank_delta in delta.ranks
            if len(rank_delta.updated)
        ]
        assert updated  # iterations repeat across flush windows
        delta, rank_delta = updated[0]
        payload = serialize_delta(delta).decode()
        segment_id, count = int(rank_delta.updated[0]), int(rank_delta.counts[0])
        # The UPD line is immediately followed by the representative's full
        # current SEG block.
        assert f"UPD {segment_id} count={count}\nSEG {segment_id} " in payload
        assert count > 1


class TestDeltaReconstruction:
    @pytest.mark.parametrize("metric_name", ["relDiff", "iter_k", "iter_avg"])
    def test_deltas_rebuild_batch_output(self, trace, metric_name):
        # Concatenating, per rank: every delta's new SEG blocks (taking the
        # *latest* state of ids that later appear in UPD) and every EXEC
        # entry reproduces the batch reduced trace byte-for-byte.
        deltas, result = _session_deltas(trace, SessionConfig(metric_name))
        want = serialize_reduced_trace(reference_reduce(create_metric(metric_name), trace))
        assert serialize_reduced_trace(result.reduced) == want

        latest = {}  # (rank, sid) -> SEG block, last state wins
        order = {}  # rank -> [sid in first-seen order]
        execs = {}  # rank -> EXEC lines
        for delta in deltas:
            rank, block = None, None
            for line in serialize_delta(delta).decode().splitlines(keepends=True):
                kind = line.split(" ", 1)[0]
                if kind == "RANK":
                    rank = int(line.split()[1])
                elif kind == "SEG":
                    sid = int(line.split()[1])
                    if (rank, sid) not in latest:
                        order.setdefault(rank, []).append(sid)
                    block = latest[(rank, sid)] = [line]
                elif kind == "EV":
                    block.append(line)
                elif kind == "EXEC":
                    execs.setdefault(rank, []).append(line)
        rebuilt = "".join(
            "".join("".join(latest[(rank, sid)]) for sid in order[rank]) + "".join(execs[rank])
            for rank in sorted(order)
        )
        assert rebuilt.encode() == want


class TestDeltaWriter:
    def test_appends_non_empty_deltas_only(self, trace, tmp_path):
        deltas, _ = _session_deltas(trace, SessionConfig("relDiff"))
        path = tmp_path / "deltas.log"
        with DeltaWriter(path) as writer:
            for delta in deltas:
                writer.write(delta)
            # An empty flush writes nothing.
            empty = ReductionSession("t", SessionConfig("relDiff")).flush()
            assert writer.write(empty) == 0
        non_empty = [d for d in deltas if not d.empty]
        assert writer.deltas_written == len(non_empty)
        payload = path.read_bytes()
        assert len(payload) == writer.bytes_written
        assert payload == b"".join(serialize_delta(d) for d in non_empty)
        assert payload.count(b"DELTA ") == len(non_empty)

    def test_chunks_concatenate_to_serialization(self, trace):
        deltas, _ = _session_deltas(trace, SessionConfig("euclidean"))
        for delta in deltas:
            assert b"".join(iter_delta_chunks(delta)) == serialize_delta(delta)
