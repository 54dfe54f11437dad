"""Content-digest result cache for the online reduction service.

Two requests that carry the same trace content under the same reduction
config must produce the same reduced bytes, so the service answers the second
one from a cache keyed by ``(trace digest, config key)`` without re-running
the reduction.

Digests hash the **exact** ``float64`` timestamp bytes (via ``struct``), not
the text serialization: the text format quantizes timestamps to two decimals,
so hashing it could collide two traces that genuinely differ below 0.01 µs
and would then serve the wrong cached result.  Per-rank digests are *chained*
(each appended batch of segments folds into a running 32-byte digest), which
is what lets a live session compute its trace digest incrementally and lets a
checkpoint carry the digest as plain bytes — ``hashlib`` objects themselves
do not pickle.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from repro.obs.metrics import Counts

if TYPE_CHECKING:  # import cycle guard only; these are annotations
    from repro.pipeline.stream import SegmentSource
    from repro.trace.segments import Segment

__all__ = [
    "segment_digest",
    "chain_digest",
    "combine_rank_digests",
    "source_digest",
    "CacheCounters",
    "ResultCache",
]

_EVENT_TS = struct.Struct("<dd")
_SEG_HEAD = struct.Struct("<qdd")
_RANK_ID = struct.Struct("<q")


def segment_digest(segment: "Segment") -> bytes:
    """Exact content digest (32 bytes) of one segment.

    Covers context, rank, segment start/end, and every event's name,
    timestamps, and MPI parameters — everything that can influence the
    reduction.  Timestamps are hashed as raw float64, so traces differing
    below text precision still digest differently.
    """
    h = hashlib.sha256()
    h.update(segment.context.encode("utf-8"))
    h.update(b"\x00")
    h.update(_SEG_HEAD.pack(segment.rank, segment.start, segment.end))
    for event in segment.events:
        h.update(event.name.encode("utf-8"))
        h.update(b"\x00")
        h.update(_EVENT_TS.pack(event.start, event.end))
        if event.mpi is not None:
            h.update(repr(event.mpi.key()).encode("utf-8"))
        h.update(b"\x01")
    return h.digest()


def chain_digest(previous: bytes, segment: "Segment") -> bytes:
    """Fold one more segment into a running per-rank digest.

    ``previous`` is ``b""`` for the first segment; the result is always 32
    bytes and picklable, unlike a live ``hashlib`` object.
    """
    return hashlib.sha256(previous + segment_digest(segment)).digest()


def combine_rank_digests(rank_digests: Mapping[int, bytes]) -> str:
    """Combine per-rank chained digests into one hex trace digest.

    Ranks are folded in sorted order so the digest does not depend on
    append/arrival order across ranks (within a rank, order matters and is
    captured by the chain).
    """
    h = hashlib.sha256()
    for rank in sorted(rank_digests):
        h.update(_RANK_ID.pack(rank))
        h.update(rank_digests[rank])
    return h.hexdigest()


def source_digest(source: "SegmentSource") -> str:
    """Digest a whole segment source without reducing it.

    Streams the same segments a session would ingest and applies the same
    chaining, so a finished session's :meth:`ReductionSession.trace_digest`
    equals ``source_digest`` of the trace it was fed — that equality is what
    makes the submit-path cache lookup sound.
    """
    from repro.pipeline.stream import rank_segment_streams

    digests: dict[int, bytes] = {}
    for rank, segments in rank_segment_streams(source):
        d = b""
        for segment in segments:
            d = hashlib.sha256(d + segment_digest(segment)).digest()
        digests[rank] = d
    return combine_rank_digests(digests)


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

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
