"""A damaged ``.rpb`` fails as :class:`RpbFormatError`, or decodes — nothing else.

600 seeded damages of the smoke ``late_sender`` trace (one bit flipped
anywhere, one bit flipped in the last 400 bytes — the footer — or the file
cut at a random offset) go through every reader of the format, each call
under a 10 s alarm.  The format has no checksum, so a flipped measurement or
name still decodes, to another trace; what must not happen is a
``KeyError`` from a footer that is still JSON but no longer a footer, a
plain ``ValueError`` from a string-table byte that spells no MPI operation,
or a hang.

A record stream that decodes but breaks the segmentation rules (a flipped
record kind) raises :class:`SegmentationError` from the two readers that
segment, exactly as the same records would from any other source
(``test_malformed_fallback.py`` pins that contract).
"""

from __future__ import annotations

import io
import math
import random
import signal

import numpy as np
import pytest

from repro.experiments.config import build_workload
from repro.trace import binio
from repro.trace.binio import RpbFormatError
from repro.trace.segments import SegmentationError

from tests.trace.rpb_files import npy_bytes, rewrite_block, split_members

CASES = 600
SECONDS = 10


def _each_rank(reader):
    return lambda path: [reader(path, rank) for rank in binio.rank_ids(path)]


#: name -> (reader over a path, exceptions it may raise on a damaged file)
READERS = {
    "rank_ids": (binio.rank_ids, (RpbFormatError,)),
    "rank_frame": (_each_rank(binio.rank_frame), (RpbFormatError, SegmentationError)),
    "iter_rank_segments": (
        _each_rank(lambda path, rank: list(binio.iter_rank_segments(path, rank))),
        (RpbFormatError, SegmentationError),
    ),
    "text_bytes": (binio.text_bytes, (RpbFormatError,)),
    "read_trace_rpb": (binio.read_trace_rpb, (RpbFormatError,)),
}


def _damaged(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    kind = rng.choice(["flip", "footer_flip", "truncate"])
    if kind == "truncate":
        cut = rng.randrange(len(data))
        return f"cut at {cut}", data[:cut]
    span = len(data) if kind == "flip" else 400
    position, bit = len(data) - 1 - rng.randrange(span), rng.randrange(8)
    damaged = bytearray(data)
    damaged[position] ^= 1 << bit
    return f"bit {bit} of byte {position}", bytes(damaged)


def _timed_out(signum, frame):
    raise TimeoutError(f"reader still running after {SECONDS} s")


def test_every_damage_is_a_format_error_or_a_decoded_trace(tmp_path):
    source = tmp_path / "late_sender.rpb"
    binio.write_trace_rpb(build_workload("late_sender", "smoke").run(), source)
    data = source.read_bytes()
    assert len(data) > 10_000
    for reader, _ in READERS.values():
        reader(source)  # the undamaged file reads on every path

    rng = random.Random(0)
    outcomes = {"decoded": 0, "RpbFormatError": 0, "SegmentationError": 0}
    offenders = []
    previous = signal.signal(signal.SIGALRM, _timed_out)
    try:
        for case in range(CASES):
            what, damaged = _damaged(data, rng)
            # A fresh name per case: the index cache is keyed by path and stat.
            path = tmp_path / f"case{case}.rpb"
            path.write_bytes(damaged)
            for name, (reader, allowed) in READERS.items():
                signal.alarm(SECONDS)
                try:
                    reader(path)
                    outcomes["decoded"] += 1
                except allowed as error:
                    outcomes[type(error).__name__] += 1
                except Exception as error:  # noqa: BLE001 - the finding itself
                    offenders.append(f"case {case} ({what}): {name} raised {error!r}")
                finally:
                    signal.alarm(0)
            path.unlink()
    finally:
        signal.signal(signal.SIGALRM, previous)

    assert not offenders, f"{len(offenders)} offenders, first: " + "; ".join(offenders[:5])
    # The harness is not vacuous: each outcome it allows was seen.
    assert outcomes["RpbFormatError"] > CASES and outcomes["decoded"] > CASES // 10


def _nan_at_second_record(block: bytes) -> bytes:
    """The block with its time column's second value (an ENTER or a BEGIN) set to NaN."""
    members = split_members(block)
    time = np.load(io.BytesIO(members[1]), allow_pickle=False).copy()
    time[1] = math.nan
    members[1] = npy_bytes(time)
    return b"".join(members)


def test_a_non_finite_timestamp_is_a_format_error_on_every_decoding_reader(tmp_path):
    """The damage no bit flip is sure to make: one value of a time column
    turned NaN.  It decodes to no trace; only the index still reads."""
    path = tmp_path / "nan.rpb"
    binio.write_trace_rpb(build_workload("late_sender", "smoke").run(), path)
    rewrite_block(path, 0, _nan_at_second_record)
    for name, (reader, _) in READERS.items():
        if name == "rank_ids":
            reader(path)
            continue
        with pytest.raises(RpbFormatError, match="rank 0 block: record timestamp must be"):
            reader(path)
