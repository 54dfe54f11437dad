"""Content digests and the byte-bounded LRU result cache."""

import pickle

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.service.cache import (
    ResultCache,
    chain_frame,
    combine_rank_digests,
    source_digest,
)
from tests.conftest import make_segment


@pytest.fixture(scope="module")
def segments():
    trace = late_sender(nprocs=2, iterations=3, seed=5).run().segmented()
    return trace.ranks[0].segments


def digest(*segments):
    return chain_frame(b"", RankFrame.from_segments(0, segments))


class TestChainFrame:
    def test_deterministic(self, segments):
        assert digest(segments[0]) == digest(segments[0])
        assert len(digest(segments[0])) == 32

    def test_sub_text_precision_differences_matter(self):
        # The text format quantizes to 2 decimals; digests must not.
        a = make_segment("c", [("e", 1.0, 2.0)], end=10.0)
        b = make_segment("c", [("e", 1.0, 2.0 + 1e-6)], end=10.0)
        assert digest(a) != digest(b)

    def test_mpi_parameters_matter(self):
        from repro.trace.events import MpiCallInfo

        a = make_segment(
            "c",
            [("MPI_Send", 1.0, 2.0)],
            end=5.0,
            mpi_for={"MPI_Send": MpiCallInfo(op="send", peer=1, tag=0)},
        )
        b = make_segment(
            "c",
            [("MPI_Send", 1.0, 2.0)],
            end=5.0,
            mpi_for={"MPI_Send": MpiCallInfo(op="send", peer=2, tag=0)},
        )
        assert digest(a) != digest(b)

    def test_chain_is_order_sensitive(self, segments):
        assert digest(segments[0], segments[1]) != digest(segments[1], segments[0])

    def test_chain_continues_across_frames(self, segments):
        whole = RankFrame.from_segments(0, segments)
        d = b""
        for piece in whole.chunks(3):
            d = chain_frame(d, piece)
        assert d == chain_frame(b"", whole)
        assert chain_frame(d, RankFrame.from_segments(0, [])) == d

    def test_combine_is_rank_order_independent(self, segments):
        d = {0: b"a" * 32, 1: b"b" * 32}
        assert combine_rank_digests(d) == combine_rank_digests(dict(reversed(d.items())))
        assert combine_rank_digests(d) != combine_rank_digests({0: b"b" * 32, 1: b"a" * 32})

    def test_source_digest_separates_seeds(self):
        a = late_sender(nprocs=2, iterations=3, seed=1).run().segmented()
        b = late_sender(nprocs=2, iterations=3, seed=2).run().segmented()
        assert source_digest(a) != source_digest(b)
        assert source_digest(a) == source_digest(a)


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(max_bytes=1024)
        assert cache.get("d", ("m",)) is None
        cache.put("d", ("m",), b"payload")
        assert cache.get("d", ("m",)) == b"payload"
        assert cache.get("d", ("other",)) is None
        assert cache.counters.hits == 1
        assert cache.counters.misses == 2
        assert cache.counters.hit_rate == pytest.approx(1 / 3)

    def test_byte_bound_evicts_lru(self):
        cache = ResultCache(max_bytes=10)
        cache.put("a", (), b"xxxx")
        cache.put("b", (), b"yyyy")
        cache.get("a", ())  # touch: b becomes LRU
        cache.put("c", (), b"zzzz")  # 12 bytes > 10: evict b
        assert cache.get("b", ()) is None
        assert cache.get("a", ()) == b"xxxx"
        assert cache.get("c", ()) == b"zzzz"
        assert cache.counters.evictions == 1
        assert cache.current_bytes == 8

    def test_oversized_payload_rejected(self):
        cache = ResultCache(max_bytes=4)
        assert not cache.put("a", (), b"too large to fit")
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_replacement_updates_bytes(self):
        cache = ResultCache(max_bytes=100)
        cache.put("a", (), b"12345")
        cache.put("a", (), b"123")
        assert len(cache) == 1
        assert cache.current_bytes == 3

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)

    def test_digest_bytes_are_picklable(self, segments):
        # Sessions checkpoint their chained digests; plain bytes must be all
        # that is needed (hashlib objects would not survive).
        d = digest(segments[0])
        assert pickle.loads(pickle.dumps(d)) == d
