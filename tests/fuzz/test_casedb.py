"""Corpus case JSON round-trips, including ulp-precision timestamps."""

from __future__ import annotations

import math

import pytest

from repro.fuzz.casedb import CaseDB, CorpusCase, decode_records, encode_records
from repro.fuzz.generators import CaseConfig, CaseSpec, generate_case
from repro.fuzz.oracles import run_oracles
from repro.trace.events import MpiCallInfo
from repro.trace.records import RecordKind, TraceRecord
from repro.util.rng import rng_for


def _records_with_awkward_values():
    ulp = math.nextafter(7.25, math.inf)  # not representable in the text format
    mpi = MpiCallInfo(op="send", peer=3, tag=17, nbytes=4096, comm="world")
    return [
        [
            TraceRecord(RecordKind.SEGMENT_BEGIN, 0, 0.0, "main.1"),
            TraceRecord(RecordKind.ENTER, 0, 0.25, "MPI_Send", mpi=mpi),
            TraceRecord(RecordKind.EXIT, 0, ulp, "MPI_Send"),
            TraceRecord(RecordKind.SEGMENT_END, 0, 8.0, "main.1"),
        ],
        [
            TraceRecord(RecordKind.SEGMENT_BEGIN, 1, 0.0, "main.1"),
            TraceRecord(RecordKind.SEGMENT_END, 1, 1.0, "main.1"),
        ],
    ]


def test_encode_decode_records_is_exact():
    records = _records_with_awkward_values()
    decoded = decode_records(encode_records(records))
    assert decoded == records
    # The ulp timestamp survives bit-for-bit.
    assert decoded[0][2].timestamp == records[0][2].timestamp


def _case(case_id="deadbeef0123"):
    return CorpusCase(
        id=case_id,
        family="stencil",
        seed=42,
        params={"nprocs": 2},
        config=CaseConfig("euclidean", 0.2),
        oracles=["frame_path", "rpb_roundtrip"],
        records=_records_with_awkward_values(),
        divergence="byte 17: expected 0x00, got 0x01",
        shrunk=True,
        note="unit-test fixture",
    )


def test_corpus_case_json_round_trip():
    case = _case()
    back = CorpusCase.from_json(case.to_json())
    assert back == case


def test_save_load_by_id_and_path(tmp_path):
    db = CaseDB(tmp_path)
    case = _case()
    path = db.save(case)
    assert path == tmp_path / "deadbeef0123.json"
    assert db.load(case.id) == case
    assert db.load(path) == case
    assert db.case_paths() == [path]
    assert len(db) == 1
    assert [c.id for c in db] == [case.id]


def test_load_missing_case_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="no corpus case"):
        CaseDB(tmp_path).load("nope")


def test_corpus_case_rebuilds_a_reducible_trace():
    trace = _case().trace()
    assert trace.nprocs == 2
    assert trace.segmented().num_segments == 2


def test_persisted_case_replays_green(tmp_path):
    # Persist a known-passing generated case, reload it, and replay its
    # oracles from the stored records alone — the corpus replay contract.
    params = {"nprocs": 3, "iterations": 4, "halo_width": 1, "jitter": 0}
    spec = CaseSpec(family="stencil", seed=8, params=params)
    trace = generate_case(spec)
    config = CaseConfig("relDiff", 0.5)
    case = CorpusCase(
        id="replaygreen00",
        family=spec.family,
        seed=spec.seed,
        params=params,
        config=config,
        oracles=["frame_path", "rpb_roundtrip", "text_roundtrip"],
        records=[list(rank.records) for rank in trace.ranks],
    )
    db = CaseDB(tmp_path)
    db.save(case)
    loaded = db.load(case.id)
    outcomes = run_oracles(loaded.trace(), loaded.config, tmp_path, loaded.oracles)
    assert all(o.status == "pass" for o in outcomes), [
        (o.name, o.detail) for o in outcomes
    ]


def test_encode_is_stable_under_rng_reuse():
    # Same drawn records encode identically regardless of call order.
    rng = rng_for(0, "casedb-noise")
    rng.random()  # unrelated RNG activity must not leak into encoding
    records = _records_with_awkward_values()
    assert encode_records(records) == encode_records(records)
