"""The ``.rpb`` bytes every registered workload simulates to are pinned.

The simulator appends record columns and the writer encodes them whole;
neither may change a byte of a simulated trace for a given seed.  The digests
are of the files the record-object simulator and writer wrote, at
``--scale smoke`` for seeds 0 and 7; a change that moves one must say why.

A simulated trace reaches the reducers as the frames its file decodes to,
built in memory by the same encoder and frame decoder: those are held to the
written file's frames here too.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.evaluation.filesize import full_trace_bytes
from repro.experiments.config import ALL_WORKLOAD_NAMES, SCALES, build_workload
from repro.pipeline.stream import rank_frame_streams
from repro.trace import binio
from repro.trace.binio import write_trace_rpb

#: ``"workload/seed"`` -> sha256 of its smoke-scale ``.rpb``.
PINNED = {
    "dyn_load_balance/0": "8ad538a197330cea9a534267781a920732425b4cbe584796f144c9dd75f2739b",
    "late_sender/0": "ddd2cc8b3908c95d7eecc05fa419b1000432d1d078cc81fe6a36357d8c1a3541",
    "late_receiver/0": "6ec845aba2017c2aedbc193834e6d078cc3573593b3f5bb2c2db34478d8e31a3",
    "early_gather/0": "cfc8d4800d00ecc98c3c45d8b7ef953f8c06556d15d2f36937834448c750aa30",
    "late_broadcast/0": "8c3b08d6cb95661cebb39765753695b4a45a533b456b5847a85fea3d68348534",
    "imbalance_at_mpi_barrier/0": "b08171cd7ac61e2ad34ae1f2227b3b68557c41b50a4f02f4712d3c3d5c05b946",
    "Nto1_32/0": "73b559305cd10380ffd54a8915be823d8f162f85d1e239bed4ea767562134dad",
    "1toN_32/0": "441ae157d2b5dd8cfee97843fa364b9c1d5886a3393ceca42dafa40e9f184f8d",
    "1to1r_32/0": "f26cb3830be686e5f1d800f0e3f3317370f3047d8a5b5df376cd9e16eaa13f23",
    "1to1s_32/0": "7022f524b6145aea57b3899a6c6ef5697ff43d958fc953a395c9cf0367d4dd0f",
    "NtoN_32/0": "38175e716ed8cc7e9cd72e099b67fbb252e333a2ba1f9b8b1fc39a8bae37b199",
    "Nto1_1024/0": "bc3679fe5a99ded895e4dfbeff5fbe21b671cb5441dae00f3807323b6e0b1e0b",
    "1toN_1024/0": "2e699793378fa42b3d7c719847c078390657032aac69a5a255eb0af9583f684e",
    "1to1r_1024/0": "f272b32f59a5eadfedff3d4c421624384410e513adc111e25f69a9b539ca1885",
    "1to1s_1024/0": "774dee38dea45f203750a6a9b04ec7b98896bba0abd0895d413998efcf11cd5f",
    "NtoN_1024/0": "b083b104958c24a9e3dfc4ceacebd712a44b47300c914675854787900022dc34",
    "sweep3d_8p/0": "155cda7513219c45bb03fe408c508fdc2ea958e790c745816762cf7c8653614a",
    "sweep3d_32p/0": "dbbc96ffe2336e070768070c0c8acfda44407dae5d0513240d0511283c7f0f41",
    "dyn_load_balance/7": "8858bf4c50b79c0b8b987c6f9c7a732387a8b42712d80108205b89cc34e9bba0",
    "late_sender/7": "4fdaa75b4a50f8a3da4372820f033274baeedcffab5059657a202d980827991c",
    "late_receiver/7": "3c111894bbb92d909cfd4a7968acba3fb3d5e9a744b318eacdde33b5b1bea7ab",
    "early_gather/7": "a40d2cdd50ef32389741ce1c10ace1e3180640b32eaf199cfc7afec3092e30c2",
    "late_broadcast/7": "29123006b30ad3365c68a8f0ba2c7bfe10f0e9bbc982f53f076e3c9fe1692edc",
    "imbalance_at_mpi_barrier/7": "f5fdaed2f58e4aea15ada454fb484b6166318cd0ad7bbac0a190553af2783f76",
    "Nto1_32/7": "4e1359c808fe7a3f4f276e1999f4c57121a9e9384ebc76df7a029a7f875d28a4",
    "1toN_32/7": "ccb739166265627be113c62c5a94d22e14fb1231956dd1abe549d039548d48f0",
    "1to1r_32/7": "7cec719e1370380e6aa01499363c64ecfa02fc14dfbab6db41ffbf1999e9ce47",
    "1to1s_32/7": "98e71f68df6ed732658d0a9ab1636dbf6bbeac151d3ce85469dba11d49438ba8",
    "NtoN_32/7": "9ba54d8a11ca59df08f1dda32db1378337b7d5f4d98afadfe1283061642e7ea0",
    "Nto1_1024/7": "b5e9486cf3873e11412399aaf09ad0ad7c3eb7d02cce8866a31662799163e544",
    "1toN_1024/7": "859486e93cf1df926f2c6d00ceb014aac00a2934dc3b1548c0aabfcaba55f6a5",
    "1to1r_1024/7": "8c5c1616779c099f3d0785379cdfe65ac9edb7741d49bb60f8f75a67fb0a32d0",
    "1to1s_1024/7": "96b7168e5e39fb8bbc3f69f823885aabecdc8e799a27a134b8d93f6c5fd59043",
    "NtoN_1024/7": "302bd38d0d9f1edd6eaa4d6ee5df5b3c0fb375e5434f64cc1b90d2edbc11148a",
    "sweep3d_8p/7": "9be4e1358918721ad7cdb5f8188a8b1bc9c909227878c5d902e3987ffcd65507",
    "sweep3d_32p/7": "a6cdb58c60b3f5f0162b57c60c2db2e5db2f93eedc518b89d804afed0b56580e",
}


def test_every_registered_workload_is_pinned():
    expected = (f"{name}/{seed}" for name in ALL_WORKLOAD_NAMES for seed in (0, 7))
    assert sorted(PINNED) == sorted(expected)


@pytest.mark.parametrize("seed", [0, 7])
def test_a_simulated_trace_writes_the_pinned_bytes(seed, tmp_path):
    scale = dataclasses.replace(SCALES["smoke"], seed=seed)
    for name in ALL_WORKLOAD_NAMES:
        path = tmp_path / f"{name}.rpb"
        write_trace_rpb(build_workload(name, scale).run(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[f"{name}/{seed}"], name


_COLUMNS = ("contexts", "starts", "ends", "ev_offsets", "ev_names", "ev_starts", "ev_ends")


def _event_mpi(frame):
    """Each event's MPI info, by value: a run of ranks shares one MPI table, a rank has its own."""
    return [frame.mpi_table[ident] if ident >= 0 else None for ident in frame.ev_mpi.tolist()]


@pytest.mark.parametrize("seed", [0, 7])
def test_a_simulated_trace_becomes_the_frames_its_file_decodes_to(seed, tmp_path):
    scale = dataclasses.replace(SCALES["smoke"], seed=seed)
    for name in ALL_WORKLOAD_NAMES:
        trace = build_workload(name, scale).run()
        path = tmp_path / f"{name}.rpb"
        write_trace_rpb(trace, path)
        decoded = [
            frame
            for ranks, _ in binio.rank_runs(path, binio.rank_ids(path))
            for frame in binio.rank_frames(path, ranks)
        ]
        frames = [frame for _, frame in rank_frame_streams(trace)]
        assert [frame.rank for frame in frames] == [frame.rank for frame in decoded], name
        for frame, want in zip(frames, decoded):
            for column in _COLUMNS:
                got, expected = getattr(frame, column), getattr(want, column)
                assert got.dtype == expected.dtype, (name, column)
                assert np.array_equal(got, expected), (name, column)
            assert frame.indices is None and want.indices is None
            # One string table per trace, each frame holding it as grown up to its rank.
            assert want.strings[: len(frame.strings)] == frame.strings, name
            assert _event_mpi(frame) == _event_mpi(want), name
            assert frame.text_bytes == want.text_bytes, (name, frame.rank)
            assert frame.invalid is ValueError, name  # no .rpb error hook in memory
        assert frames[-1].strings == decoded[-1].strings, name
        total = sum(frame.text_bytes for frame in frames)
        assert total == binio.text_bytes(path) == full_trace_bytes(trace.segmented()), name
