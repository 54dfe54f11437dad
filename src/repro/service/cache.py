"""Content-digest result cache for the online reduction service.

Two requests that carry the same trace content under the same reduction
config must produce the same reduced bytes, so the service answers the second
one from a cache keyed by ``(trace digest, config key)`` without re-running
the reduction.

The digest is computed over a rank frame's columns (:func:`chain_frame`), one
link per row, so a session that is fed a rank in chunks and
:func:`source_digest` that reads it whole arrive at the same bytes.
Timestamps are hashed as their exact ``float64`` bytes, not the text
serialization: the text format quantizes timestamps to two decimals, so
hashing it could collide two traces that genuinely differ below 0.01 µs and
would then serve the wrong cached result.  A per-rank digest is a plain
32-byte value, which is what lets a checkpoint carry it — ``hashlib``
objects themselves do not pickle.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from repro.obs.metrics import Counts

if TYPE_CHECKING:  # import cycle guard only; these are annotations
    from repro.core.frames import RankFrame
    from repro.pipeline.stream import SegmentSource

__all__ = [
    "chain_frame",
    "combine_rank_digests",
    "source_digest",
    "CacheCounters",
    "ResultCache",
]

#: A row's rank, start and end, as hashed.
_ROW_HEAD = np.dtype([("rank", "<i8"), ("start", "<f8"), ("end", "<f8")])


def chain_frame(previous: bytes, frame: "RankFrame") -> bytes:
    """Fold every row of ``frame`` into a running per-rank digest.

    One sha256 link per row, over the previous digest, a digest of the row's
    structural key (context, event names, MPI parameters), the row's rank,
    start and end, and its events' (start, end) times interleaved — every
    time as its exact ``float64`` bytes.  So the result depends on the rows
    and their order, not on how a rank was cut into frames: chaining the
    pieces of a rank one after another gives the digest of the whole.
    ``previous`` is ``b""`` before a rank's first row; the result is 32
    bytes (``previous`` itself for a frame without rows).
    """
    heads = np.empty(frame.n_segments, dtype=_ROW_HEAD)
    heads["rank"] = frame.rank
    heads["start"], heads["end"] = frame.starts, frame.ends
    times = np.empty(2 * frame.n_events, dtype="<f8")
    times[0::2], times[1::2] = frame.ev_starts, frame.ev_ends
    head_bytes, time_bytes = heads.tobytes(), times.tobytes()
    bounds = (16 * frame.ev_offsets).tolist()
    key_digests: dict = {}
    sha256 = hashlib.sha256
    digest = previous
    for row, key in enumerate(frame.structural_keys()):
        key_digest = key_digests.get(key)
        if key_digest is None:
            key_digest = key_digests[key] = sha256(repr(key.value).encode("utf-8")).digest()
        digest = sha256(
            digest
            + key_digest
            + head_bytes[24 * row : 24 * row + 24]
            + time_bytes[bounds[row] : bounds[row + 1]]
        ).digest()
    return digest


def combine_rank_digests(rank_digests: Mapping[int, bytes]) -> str:
    """Combine per-rank chained digests into one hex trace digest.

    Ranks are folded in sorted order so the digest does not depend on
    append/arrival order across ranks (within a rank, order matters and is
    captured by the chain).
    """
    h = hashlib.sha256()
    for rank in sorted(rank_digests):
        h.update(rank.to_bytes(8, "little", signed=True))
        h.update(rank_digests[rank])
    return h.hexdigest()


def source_digest(source: "SegmentSource") -> str:
    """Digest a whole source without reducing it.

    Chains the frames :func:`~repro.pipeline.stream.rank_frame_streams` reads
    (an ``.rpb`` file decodes to them without a ``Segment`` built), so a
    finished session's :meth:`ReductionSession.trace_digest` equals
    ``source_digest`` of the trace it was fed — that equality is what makes
    the submit-path cache lookup sound.
    """
    from repro.pipeline.stream import rank_frame_streams

    return combine_rank_digests(
        {rank: chain_frame(b"", frame) for rank, frame in rank_frame_streams(source)}
    )


@dataclass(slots=True)
class CacheCounters(Counts):
    """Hit/miss/eviction counters of one result cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """LRU cache of serialized reduced traces, bounded by payload bytes.

    Keys are ``(trace digest, config key)`` pairs; values are the canonical
    ``serialize_reduced_trace`` bytes.  A single payload larger than
    ``max_bytes`` is never stored (it would immediately evict everything and
    then itself).
    """

    def __init__(self, max_bytes: int = 64 << 20) -> None:
        if max_bytes < 1:
            raise ValueError(f"ResultCache max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.counters = CacheCounters()
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._bytes = 0

    @property
    def current_bytes(self) -> int:
        """Total payload bytes currently cached."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str, config_key: tuple) -> Optional[bytes]:
        """Return the cached reduced bytes, or ``None`` on a miss."""
        entry = self._entries.get((digest, config_key))
        if entry is None:
            self.counters.misses += 1
            return None
        self._entries.move_to_end((digest, config_key))
        self.counters.hits += 1
        return entry

    def put(self, digest: str, config_key: tuple, payload: bytes) -> bool:
        """Insert (or refresh) an entry; returns False if it cannot fit."""
        if len(payload) > self.max_bytes:
            return False
        key = (digest, config_key)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old)
        self._entries[key] = payload
        self._bytes += len(payload)
        self.counters.insertions += 1
        while self._bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= len(evicted)
            self.counters.evictions += 1
        return True
