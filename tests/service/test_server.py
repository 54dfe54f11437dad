"""Multi-tenant service: budgets, eviction-to-checkpoint, backpressure, cache.

The acceptance scenario: N concurrent sessions per tenant under a per-tenant
representative budget, with eviction-to-checkpoint observed and every
session's output still byte-identical to the batch oracle; a repeated
identical request is answered from the content-digest cache.
"""

import asyncio
import math

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.stream import rank_segment_streams
from repro.service import ReductionService, ReductionSession, ResultCache, SessionConfig
from repro.trace.events import Event
from repro.trace.io import serialize_reduced_trace
from repro.trace.segments import Segment

from tests.support import reference_reduce


@pytest.fixture(scope="module")
def trace():
    return late_sender(nprocs=4, iterations=8, seed=3).run().segmented()


@pytest.fixture(scope="module")
def streams(trace):
    return {rank: list(segments) for rank, segments in rank_segment_streams(trace)}


@pytest.fixture(scope="module")
def oracle_bytes(trace):
    config = SessionConfig("relDiff")
    reduced = reference_reduce(create_metric(config.method, config.threshold), trace)
    return serialize_reduced_trace(reduced)


async def _feed(handle, streams, chunk=3, flush_every=0):
    appends = 0
    for rank, segments in streams.items():
        for at in range(0, len(segments), chunk):
            await handle.append(RankFrame.from_segments(rank, segments[at : at + chunk]))
            appends += 1
            if flush_every and appends % flush_every == 0:
                await handle.flush()
    return await handle.finish()


class TestMultiTenantEviction:
    def test_concurrent_sessions_under_budget(self, streams, oracle_bytes):
        async def main():
            service = ReductionService(tenant_budget=24, queue_limit=4)
            config = SessionConfig("relDiff")
            handles = [
                await service.open_session("acme", f"trace{i}", config)
                for i in range(4)
            ]
            results = await asyncio.gather(
                *(_feed(handle, streams, flush_every=2) for handle in handles)
            )
            stats = service.stats
            tenant_peak = service.tenant_peak_representatives("acme")
            await service.close()
            return results, stats, tenant_peak

        results, stats, tenant_peak = asyncio.run(main())
        # Every concurrent session produced the exact batch-oracle bytes.
        for result in results:
            assert serialize_reduced_trace(result.reduced) == oracle_bytes
        # The budget forced evictions, and evicted sessions came back.
        assert stats.evicted_to_checkpoint > 0
        assert stats.restored_from_checkpoint > 0
        assert stats.sessions_opened == 4
        assert stats.sessions_finished == 4
        assert stats.sessions_active == 0
        assert stats.deltas_emitted > 0
        assert tenant_peak == stats.peak_resident_representatives

    def test_phased_sessions_bound_peak_store_size(self, streams, oracle_bytes):
        # Sessions touched one at a time (the others idle) must keep the
        # tenant's resident representatives within budget + one active
        # session — the budget is a real bound, not advisory.
        async def main():
            service = ReductionService(tenant_budget=24, queue_limit=4)
            config = SessionConfig("relDiff")
            handles = [
                await service.open_session("acme", f"trace{i}", config)
                for i in range(4)
            ]
            split = len(streams[0]) // 2
            for lo, hi in ((0, split), (split, None)):
                for handle in handles:
                    for rank, segments in streams.items():
                        part = segments[lo:hi]
                        for at in range(0, len(part), 3):
                            await handle.append(RankFrame.from_segments(rank, part[at : at + 3]))
                    await handle.flush()
            results = [await handle.finish() for handle in handles]
            stats = service.stats
            await service.close()
            return results, stats

        results, stats = asyncio.run(main())
        for result in results:
            assert serialize_reduced_trace(result.reduced) == oracle_bytes
        assert stats.evicted_to_checkpoint > 0
        assert stats.restored_from_checkpoint > 0
        per_session = max(
            sum(rank.n_stored for rank in result.reduced.ranks)
            for result in results
        )
        assert stats.peak_resident_representatives <= 24 + per_session

    def test_tenants_are_isolated(self, streams):
        async def main():
            service = ReductionService(tenant_budget=10, queue_limit=4)
            config = SessionConfig("relDiff")
            a1 = await service.open_session("a", "t", config)
            b1 = await service.open_session("b", "t", config)  # same name, other tenant
            ra, rb = await asyncio.gather(_feed(a1, streams), _feed(b1, streams))
            stats = service.stats
            await service.close()
            return ra, rb, stats

        ra, rb, stats = asyncio.run(main())
        assert serialize_reduced_trace(ra.reduced) == serialize_reduced_trace(rb.reduced)
        assert stats.sessions_finished == 2

    def test_checkpoint_dir_spills_to_files(self, streams, tmp_path):
        async def main():
            service = ReductionService(
                tenant_budget=8, queue_limit=4, checkpoint_dir=tmp_path / "ckpts"
            )
            config = SessionConfig("relDiff")
            handles = [
                await service.open_session("acme", f"trace{i}", config)
                for i in range(3)
            ]
            spilled = []

            async def feed_and_watch(handle):
                result = await _feed(handle, streams)
                spilled.append(len(list((tmp_path / "ckpts").glob("*.ckpt"))))
                return result

            results = await asyncio.gather(*(feed_and_watch(h) for h in handles))
            stats = service.stats
            await service.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert stats.evicted_to_checkpoint > 0
        assert len({serialize_reduced_trace(r.reduced) for r in results}) == 1
        # Restores consume the files; none leak once everything finished.
        assert not list((tmp_path / "ckpts").glob("*.ckpt"))


class TestBackpressure:
    def test_queue_never_exceeds_limit(self, streams):
        async def main():
            service = ReductionService(queue_limit=2)
            handle = await service.open_session(
                "acme", "t", SessionConfig("relDiff")
            )
            # Fire many appends concurrently; the bounded queue must make
            # producers wait rather than buffer everything.
            jobs = [
                handle.append(RankFrame.from_segments(rank, [segment]))
                for rank, segments in streams.items()
                for segment in segments
            ]
            await asyncio.gather(*jobs)
            result = await handle.finish()
            peak = handle._managed.peak_queue
            await service.close()
            return result, peak

        result, peak = asyncio.run(main())
        assert result.reduced.n_segments == sum(len(s) for s in streams.values())
        assert peak <= 2

    def test_commands_execute_in_submission_order(self, streams):
        async def main():
            service = ReductionService(queue_limit=8)
            handle = await service.open_session("acme", "t", SessionConfig("relDiff"))
            segments = streams[0]
            first = asyncio.ensure_future(handle.append(RankFrame.from_segments(0, segments[:4])))
            mid_flush = asyncio.ensure_future(handle.flush())
            second = asyncio.ensure_future(handle.append(RankFrame.from_segments(0, segments[4:])))
            await asyncio.gather(first, mid_flush, second)
            delta = mid_flush.result()
            result = await handle.finish()
            await service.close()
            return delta, result

        delta, result = asyncio.run(main())
        # The interleaved flush saw exactly the first append's output.
        assert delta.n_execs == 4
        assert result.reduced.n_segments == len(streams[0])


class TestDigestCache:
    def test_repeat_submit_hits_cache(self, trace):
        async def main():
            service = ReductionService()
            config = SessionConfig("relDiff")
            first = await service.submit("acme", trace, config)
            second = await service.submit("acme", trace, config)
            other_tenant = await service.submit("beta", trace, config)
            stats = service.stats
            await service.close()
            return first, second, other_tenant, stats

        first, second, other, stats = asyncio.run(main())
        assert not first.cache_hit and first.reduced is not None
        assert second.cache_hit and other.cache_hit  # cache is content-keyed
        assert first.payload == second.payload == other.payload
        assert stats.cache.hits == 2 and stats.cache.misses == 1
        assert stats.cache.hits > 0  # the acceptance counter

    def test_a_miss_serializes_its_output_once(self, trace, monkeypatch):
        """The bytes the cache keeps are the bytes ``submit`` returns."""
        from repro.service import server

        calls = []

        def counted(reduced):
            calls.append(reduced)
            return serialize_reduced_trace(reduced)

        monkeypatch.setattr(server, "serialize_reduced_trace", counted)

        async def main():
            service = ReductionService()
            config = SessionConfig("relDiff")
            result = await service.submit("acme", trace, config)
            cached = service.cache.get(result.digest, config.key)
            await service.close()
            return result, cached

        result, cached = asyncio.run(main())
        assert len(calls) == 1
        assert not result.cache_hit and cached is result.payload
        expected = reference_reduce(create_metric("relDiff"), trace)
        assert result.payload == serialize_reduced_trace(expected)

    def test_config_changes_miss_the_cache(self, trace):
        async def main():
            service = ReductionService()
            await service.submit("acme", trace, SessionConfig("relDiff"))
            other = await service.submit(
                "acme", trace, SessionConfig("relDiff", threshold=0.2)
            )
            stats = service.stats
            await service.close()
            return other, stats

        other, stats = asyncio.run(main())
        assert not other.cache_hit
        assert stats.cache.misses == 2

    def test_session_finish_populates_cache_for_submit(self, trace, streams):
        async def main():
            service = ReductionService()
            config = SessionConfig("relDiff")
            handle = await service.open_session("acme", "live", config)
            await _feed(handle, streams)
            repeat = await service.submit("acme", trace, config)
            stats = service.stats
            await service.close()
            return repeat, stats

        repeat, stats = asyncio.run(main())
        assert repeat.cache_hit
        assert stats.cache.hits == 1 and stats.cache.misses == 0

    def test_cache_byte_bound_evicts(self, trace):
        async def main():
            service = ReductionService(cache=ResultCache(max_bytes=1))
            config = SessionConfig("relDiff")
            await service.submit("acme", trace, config)
            second = await service.submit("acme", trace, config)
            await service.close()
            return second, service.cache

        second, cache = asyncio.run(main())
        assert not second.cache_hit  # payload never fit
        assert cache.current_bytes == 0


class TestLifecycleErrors:
    def test_duplicate_open_rejected(self, trace):
        async def main():
            service = ReductionService()
            config = SessionConfig("relDiff")
            await service.open_session("acme", "t", config)
            with pytest.raises(ValueError, match="already"):
                await service.open_session("acme", "t", config)
            # Different config under the same name is a different session.
            await service.open_session("acme", "t", SessionConfig("euclidean"))
            await service.close()

        asyncio.run(main())

    def test_finished_handle_rejected(self, streams):
        async def main():
            service = ReductionService()
            handle = await service.open_session("acme", "t", SessionConfig("relDiff"))
            await _feed(handle, streams)
            with pytest.raises(RuntimeError, match="finished"):
                await handle.flush()
            await service.close()

        asyncio.run(main())

    def test_worker_errors_propagate_and_session_survives(self, streams):
        async def main():
            service = ReductionService()
            handle = await service.open_session("acme", "t", SessionConfig("relDiff"))
            bad = Segment("main", 0, math.nan, 3.0, [Event("f", 1.0, 2.0, 0)])
            with pytest.raises(ValueError, match="finite number"):
                await handle.append(RankFrame.from_segments(0, [bad]))
            await handle.append(RankFrame.from_segments(0, streams[0][:2]))
            result = await handle.finish()
            await service.close()
            return result

        result = asyncio.run(main())
        assert result.reduced.n_segments == 2


def test_stats_read_the_caches_own_counters(trace):
    async def main():
        service = ReductionService()
        config = SessionConfig("relDiff")
        await service.submit("acme", trace, config)
        await service.submit("acme", trace, config)
        return service

    service = asyncio.run(main())
    stats = service.stats
    # Hits and misses are counted once, by the cache; the stats read them.
    assert stats.cache is service.cache.counters
    assert (stats.cache.hits, stats.cache.misses) == (1, 1)
    registry = MetricsRegistry()
    stats.record(registry, "service")
    snapshot = registry.snapshot().values
    assert snapshot["service.cache_hits"].value == 1
    assert snapshot["service.cache_insertions"].value == 1
    assert snapshot["service.sessions_opened"].value == 1
    assert snapshot["service.appends"].value > 0
    assert snapshot["service.segments"].value > 0
    assert snapshot["service.peak_active"].kind == "gauge"
    assert snapshot["service.peak_active"].value == 1
    # The levels behind the peaks are properties, not published fields.
    assert (stats.sessions_active, stats.sessions_resident) == (0, 0)
    assert "service.sessions_active" not in snapshot
    assert snapshot["service.evicted_to_checkpoint"].value == 0


class TestFaults:
    """A cancelled append, a hostile tenant name, a full disk: each has a defined outcome."""

    def test_a_command_cancelled_before_it_starts_is_not_applied(self, streams):
        first, second = streams[0][:5], streams[0][5:10]

        async def main():
            service = ReductionService()
            handle = await service.open_session("acme", "t", SessionConfig("relDiff"))
            t1 = asyncio.ensure_future(handle.append(RankFrame.from_segments(0, first)))
            t2 = asyncio.ensure_future(handle.append(RankFrame.from_segments(0, second)))
            await asyncio.sleep(0)  # both queued; the worker has started neither
            t2.cancel()
            await asyncio.wait_for(t1, 5)
            with pytest.raises(asyncio.CancelledError):
                await t2
            result = await asyncio.wait_for(handle.finish(), 5)
            await service.close()
            return t2, result

        t2, result = asyncio.run(main())
        assert t2.cancelled()
        assert result.reduced.n_segments == 5
        alone = ReductionSession("t", SessionConfig("relDiff"))
        alone.append(RankFrame.from_segments(0, first))
        want = alone.finish()
        assert serialize_reduced_trace(result.reduced) == serialize_reduced_trace(want.reduced)
        assert result.digest == want.digest

    @pytest.mark.parametrize("tenant", ["../escape", "x/y"])
    def test_eviction_writes_only_under_checkpoint_dir(
        self, streams, oracle_bytes, tmp_path, monkeypatch, tenant
    ):
        from repro.service import server

        checkpoint_dir = tmp_path / "ckpts"
        written = []
        write = server.write_checkpoint_bytes

        def recorded(path, data):
            written.append(path)
            write(path, data)

        monkeypatch.setattr(server, "write_checkpoint_bytes", recorded)

        async def main():
            service = ReductionService(tenant_budget=1, checkpoint_dir=checkpoint_dir)
            config = SessionConfig("relDiff")
            handles = [await service.open_session(tenant, f"t{i}", config) for i in range(2)]
            results = await asyncio.wait_for(
                asyncio.gather(*(_feed(handle, streams) for handle in handles)), 30
            )
            stats = service.stats
            await service.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert stats.evicted_to_checkpoint > 0 and stats.restored_from_checkpoint > 0
        for result in results:
            assert serialize_reduced_trace(result.reduced) == oracle_bytes
        assert written and all(path.parent == checkpoint_dir for path in written)
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            checkpoint_dir.relative_to(tmp_path)
        ]

    def test_a_checkpoint_that_cannot_be_written_leaves_the_session_resident(
        self, streams, oracle_bytes, tmp_path, monkeypatch
    ):
        import io

        from repro.service import checkpoint

        failed = []

        class DiskFillsUp(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                failed.append(self.name)
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(checkpoint.os, "fdopen", DiskFillsUp)
        checkpoint_dir = tmp_path / "ckpts"

        async def main():
            service = ReductionService(tenant_budget=1, checkpoint_dir=checkpoint_dir)
            config = SessionConfig("relDiff")
            cold = await service.open_session("acme", "cold", config)
            hot = await service.open_session("acme", "hot", config)
            await asyncio.wait_for(cold.append(RankFrame.from_segments(0, streams[0][:6])), 5)
            # The hot session's command puts the tenant over budget: the
            # cold one is evicted, and its checkpoint write fails.
            await asyncio.wait_for(hot.append(RankFrame.from_segments(0, streams[0][:6])), 5)
            resident = cold._managed.resident
            files = sorted(checkpoint_dir.iterdir())
            await asyncio.wait_for(cold.append(RankFrame.from_segments(0, streams[0][6:])), 5)
            for rank in sorted(streams)[1:]:
                await asyncio.wait_for(cold.append(RankFrame.from_segments(rank, streams[rank])), 5)
            result = await asyncio.wait_for(cold.finish(), 5)
            stats = service.stats
            await service.close()
            return resident, files, result, stats

        resident, files, result, stats = asyncio.run(main())
        assert failed and resident and files == []
        assert stats.evicted_to_checkpoint == 0
        assert serialize_reduced_trace(result.reduced) == oracle_bytes
