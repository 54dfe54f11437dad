"""Multi-tenant session manager: budgets, eviction, backpressure, caching.

:class:`ReductionService` hosts many :class:`ReductionSession` objects at
once, partitioned by tenant.  The design is a per-session actor: every
resident session owns a bounded :class:`asyncio.Queue` of commands and one
worker task that drains it, so

* commands of one session execute strictly in submission order (appends and
  flushes never interleave within a session), and a command whose caller
  cancelled it before it started is dropped, never applied;
* a full queue makes ``await handle.append(frame)`` block — **backpressure**
  reaches the producer instead of growing memory;
* sessions of different tenants (and of one tenant) make progress
  concurrently at await granularity.

Memory is bounded two ways.  Per-tenant, ``tenant_budget`` caps the total
*live representatives* across the tenant's resident sessions; when an append
pushes a tenant over budget, least-recently-used **idle** sessions are
evicted to checkpoints (bytes in memory, or files under ``checkpoint_dir``,
named by a per-service counter) and transparently restored on their next
command; a checkpoint file that cannot be written leaves its session
resident.  An append is a :class:`~repro.core.frames.RankFrame` — a chunk of
a rank is a row view (:meth:`RankFrame.chunks`) — so neither the session nor
its digest builds a ``Segment``.  Globally, the result
cache is byte-bounded, and a finished session's serialized output is
inserted under its ``(trace digest, config key)`` — a later
:meth:`ReductionService.submit` of identical content under the same config is
answered from the cache without re-reduction.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro import obs
from repro.core.frames import RankFrame
from repro.obs.metrics import Counts
from repro.service.cache import CacheCounters, ResultCache, source_digest
from repro.service.checkpoint import restore_state, session_state, write_checkpoint_bytes
from repro.service.session import (
    ReductionDelta,
    ReductionSession,
    SessionConfig,
    SessionResult,
)
from repro.trace.io import serialize_reduced_trace

__all__ = ["ServiceStats", "SessionHandle", "SubmitResult", "ReductionService"]


@dataclass(slots=True)
class ServiceStats(Counts):
    """Service-wide counters, published as ``service.<field>``.

    Gauges carry the high-water marks (what budgets bound); counters carry
    lifetime totals.  ``cache`` is the result cache's own counter object, not
    a copy, so hits and misses are counted once.
    """

    GAUGES = frozenset({"peak_active", "peak_resident", "peak_resident_representatives"})

    sessions_opened: int = 0
    sessions_finished: int = 0
    peak_active: int = 0
    peak_resident: int = 0
    peak_resident_representatives: int = 0
    appends: int = 0
    segments: int = 0
    flushes: int = 0
    deltas_emitted: int = 0
    evicted_to_checkpoint: int = 0
    restored_from_checkpoint: int = 0
    cache: CacheCounters = field(default_factory=CacheCounters)

    @property
    def sessions_active(self) -> int:
        """Sessions open now: the level ``peak_active`` is the high-water mark of."""
        return self.sessions_opened - self.sessions_finished

    @property
    def sessions_resident(self) -> int:
        """Open sessions held in memory now, not evicted to a checkpoint."""
        return self.sessions_active - self.evicted_to_checkpoint + self.restored_from_checkpoint

    def rows(self) -> list[tuple[str, int]]:
        """(label, value) pairs for human-readable summaries (CLI tables)."""
        return [
            ("sessions opened", self.sessions_opened),
            ("sessions finished", self.sessions_finished),
            ("peak active sessions", self.peak_active),
            ("peak resident sessions", self.peak_resident),
            ("peak resident representatives", self.peak_resident_representatives),
            ("appends", self.appends),
            ("segments ingested", self.segments),
            ("flushes", self.flushes),
            ("deltas emitted", self.deltas_emitted),
            ("evicted to checkpoint", self.evicted_to_checkpoint),
            ("restored from checkpoint", self.restored_from_checkpoint),
            ("cache hits", self.cache.hits),
            ("cache misses", self.cache.misses),
        ]


@dataclass(slots=True)
class SubmitResult:
    """Outcome of a one-shot :meth:`ReductionService.submit`.

    ``payload`` is always the canonical ``serialize_reduced_trace`` bytes;
    ``reduced`` is only populated when the reduction actually ran (cache
    hits return bytes alone).
    """

    digest: str
    config_key: tuple
    payload: bytes
    cache_hit: bool
    reduced: Optional[object] = None


class _Tenant:
    """One tenant's sessions in LRU order (least recently used first)."""

    __slots__ = ("name", "sessions", "peak_representatives")

    def __init__(self, name: str) -> None:
        self.name = name
        self.sessions: OrderedDict[tuple, _ManagedSession] = OrderedDict()
        self.peak_representatives = 0

    def resident_representatives(self) -> int:
        return sum(
            ms.session.live_representatives
            for ms in self.sessions.values()
            if ms.session is not None
        )


class _ManagedSession:
    """A session under service management: queue, worker, checkpoint slot."""

    __slots__ = (
        "service",
        "tenant",
        "key",
        "session",
        "checkpoint",
        "queue",
        "worker",
        "busy",
        "finished",
        "peak_queue",
        "payload",
    )

    def __init__(
        self,
        service: "ReductionService",
        tenant: str,
        key: tuple,
        session: ReductionSession,
        queue_limit: int,
    ) -> None:
        self.service = service
        self.tenant = tenant
        self.key = key
        self.session: Optional[ReductionSession] = session
        #: ``("mem", bytes)`` or ``("file", Path)`` while evicted, else None.
        self.checkpoint: Optional[tuple] = None
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self.worker: Optional[asyncio.Task] = asyncio.create_task(self._run())
        self.busy = False
        self.finished = False
        self.peak_queue = 0
        #: The finished session's serialized output: cached, and what ``submit`` returns.
        self.payload: Optional[bytes] = None

    @property
    def resident(self) -> bool:
        return self.session is not None

    @property
    def evictable(self) -> bool:
        """Safe to freeze: resident, no command running or queued, not done."""
        return (
            self.resident and not self.busy and self.queue.empty() and not self.finished
        )

    async def _run(self) -> None:
        while True:
            kind, args, future = await self.queue.get()
            if future.cancelled():  # the caller gave up before it started
                self.queue.task_done()
                continue
            self.busy = True
            stop = False
            try:
                result = self._execute(kind, args)
            except Exception as error:
                if not future.cancelled():
                    future.set_exception(error)
                result = None
            else:
                stop = kind == "finish"
                if not future.cancelled():
                    future.set_result(result)
                else:
                    result = None
            finally:
                self.busy = False
                self.queue.task_done()
            self.service._after_command(self, kind, result)
            if stop:
                return

    def _execute(self, kind: str, args: tuple):
        assert self.session is not None  # _touch restores before enqueueing
        return getattr(self.session, kind)(*args)


class SessionHandle:
    """The async facade :meth:`ReductionService.open_session` returns.

    All methods enqueue onto the session's bounded command queue and await
    the result; when the queue is full, they block until the worker drains —
    that is the backpressure contract.
    """

    def __init__(self, service: "ReductionService", managed: _ManagedSession) -> None:
        self._service = service
        self._managed = managed

    async def append(self, frame: RankFrame) -> int:
        """Append one piece of ``frame.rank``'s rows; returns rows taken."""
        return await self._submit("append", (frame,))

    async def flush(self) -> ReductionDelta:
        """Emit the delta of everything reduced since the previous flush."""
        return await self._submit("flush", ())

    async def finish(self) -> SessionResult:
        """Seal the session; its result enters the service's digest cache."""
        return await self._submit("finish", ())

    async def _submit(self, kind: str, args: tuple):
        managed = self._managed
        self._service._touch(managed)
        future = asyncio.get_running_loop().create_future()
        await managed.queue.put((kind, args, future))
        managed.peak_queue = max(managed.peak_queue, managed.queue.qsize())
        return await future


class ReductionService:
    """Asyncio manager of many concurrent reduction sessions.

    Parameters
    ----------
    tenant_budget:
        Max live representatives across one tenant's *resident* sessions;
        ``None`` disables eviction.  The session that just executed a
        command is never evicted for its own overflow (evicting the hot
        session would thrash checkpoint/restore on every append), so the
        effective bound is ``budget + largest single session``.
    queue_limit:
        Command-queue depth per session; producers block beyond it.
    cache:
        Result cache; defaults to a fresh 64 MiB :class:`ResultCache`.
    checkpoint_dir:
        Where evicted sessions spill.  ``None`` keeps checkpoint bytes in
        memory (cheap for tests and small deployments); a directory makes
        eviction actually release the heap.
    """

    def __init__(
        self,
        *,
        tenant_budget: Optional[int] = None,
        queue_limit: int = 16,
        cache: Optional[ResultCache] = None,
        checkpoint_dir: Optional[str | Path] = None,
    ) -> None:
        if tenant_budget is not None and tenant_budget < 1:
            raise ValueError(f"tenant_budget must be >= 1 or None, got {tenant_budget}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.tenant_budget = tenant_budget
        self.queue_limit = int(queue_limit)
        self.cache = cache if cache is not None else ResultCache()
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.stats = ServiceStats(cache=self.cache.counters)
        self._tenants: dict[str, _Tenant] = {}
        self._submit_seq = 0
        self._checkpoints = 0

    # -- session lifecycle -------------------------------------------------

    async def open_session(
        self, tenant: str, name: str, config: SessionConfig | str
    ) -> SessionHandle:
        """Create a session for ``tenant`` and return its handle.

        The key is ``(name, config.key)`` — the same trace name may be open
        under different configs, but not twice under the same one.
        """
        if isinstance(config, str):
            config = SessionConfig(method=config)
        key = (name, config.key)
        tenant_state = self._tenants.setdefault(tenant, _Tenant(tenant))
        if key in tenant_state.sessions:
            raise ValueError(
                f"session {name!r} with config {config.describe()} is already "
                f"open for tenant {tenant!r}"
            )
        session = ReductionSession(name, config)
        managed = _ManagedSession(self, tenant, key, session, self.queue_limit)
        tenant_state.sessions[key] = managed
        stats = self.stats
        stats.sessions_opened += 1
        stats.peak_active = max(stats.peak_active, stats.sessions_active)
        stats.peak_resident = max(stats.peak_resident, stats.sessions_resident)
        return SessionHandle(self, managed)

    async def close(self) -> None:
        """Cancel all workers and drop all sessions (open ones are lost)."""
        workers = []
        for tenant_state in self._tenants.values():
            for managed in tenant_state.sessions.values():
                if managed.worker is not None:
                    managed.worker.cancel()
                    workers.append(managed.worker)
            tenant_state.sessions.clear()
        self._tenants.clear()
        if workers:
            await asyncio.gather(*workers, return_exceptions=True)

    # -- one-shot requests -------------------------------------------------

    async def submit(
        self,
        tenant: str,
        source,
        config: SessionConfig | str,
        *,
        chunk: int = 256,
    ) -> SubmitResult:
        """Reduce a whole source, answering from the digest cache if possible.

        The source is digested first (the chaining a session applies, over
        the same frames); a cache hit under ``(digest, config.key)`` returns
        the stored bytes without touching the reducer.  On a miss, each
        rank's frame streams through an internal session as ``chunk``-row
        views and the result is cached for the next identical request.
        """
        from repro.pipeline.stream import rank_frame_streams, source_name

        if isinstance(config, str):
            config = SessionConfig(method=config)
        with obs.span("service.submit", tenant=tenant):
            digest = source_digest(source)
            payload = self.cache.get(digest, config.key)
            if payload is not None:
                return SubmitResult(
                    digest=digest, config_key=config.key, payload=payload, cache_hit=True
                )
            self._submit_seq += 1
            name = f"{source_name(source)}#{self._submit_seq}"
            handle = await self.open_session(tenant, name, config)
            for _, frame in rank_frame_streams(source):
                for piece in frame.chunks(chunk):
                    await handle.append(piece)
            result = await handle.finish()
            return SubmitResult(
                digest=digest,
                config_key=config.key,
                payload=handle._managed.payload,
                cache_hit=False,
                reduced=result.reduced,
            )

    # -- introspection -----------------------------------------------------

    def resident_representatives(self, tenant: str) -> int:
        """Live representatives across the tenant's resident sessions now."""
        tenant_state = self._tenants.get(tenant)
        return tenant_state.resident_representatives() if tenant_state else 0

    def tenant_peak_representatives(self, tenant: str) -> int:
        """High-water mark of :meth:`resident_representatives` for a tenant."""
        tenant_state = self._tenants.get(tenant)
        return tenant_state.peak_representatives if tenant_state else 0

    # -- internals ---------------------------------------------------------

    def _touch(self, managed: _ManagedSession) -> None:
        """LRU-touch a session and make sure it is resident before enqueue."""
        if managed.finished:
            raise RuntimeError(f"session {managed.key[0]!r} is already finished")
        tenant_state = self._tenants.get(managed.tenant)
        if tenant_state is None or tenant_state.sessions.get(managed.key) is not managed:
            raise RuntimeError(f"session {managed.key[0]!r} is no longer open")
        tenant_state.sessions.move_to_end(managed.key)
        if not managed.resident:
            self._restore(managed)
            # The restore just grew the tenant's resident footprint; push
            # colder sessions out immediately rather than waiting for the
            # next command to complete.
            self._enforce_budget(tenant_state, exclude=managed)

    def _restore(self, managed: _ManagedSession) -> None:
        kind, ref = managed.checkpoint
        with obs.span(
            "service.restore", tenant=managed.tenant, session=managed.key[0]
        ):
            data = ref.read_bytes() if kind == "file" else ref
            managed.session = restore_state(data)
        managed.checkpoint = None
        if kind == "file":
            ref.unlink(missing_ok=True)
        managed.worker = asyncio.create_task(managed._run())
        stats = self.stats
        stats.restored_from_checkpoint += 1
        stats.peak_resident = max(stats.peak_resident, stats.sessions_resident)

    def _evict(self, managed: _ManagedSession) -> None:
        with obs.span("service.evict", tenant=managed.tenant, session=managed.key[0]):
            data = session_state(managed.session)
            if self.checkpoint_dir is not None:
                # Named by the service, not the tenant: a tenant name is
                # not a path under checkpoint_dir.
                self._checkpoints += 1
                path = self.checkpoint_dir / f"session-{self._checkpoints}.ckpt"
                try:
                    write_checkpoint_bytes(path, data)
                except OSError:
                    return  # the session stays resident, its worker alive
                managed.checkpoint = ("file", path)
            else:
                managed.checkpoint = ("mem", data)
        managed.session = None
        if managed.worker is not None:
            managed.worker.cancel()
            managed.worker = None
        self.stats.evicted_to_checkpoint += 1

    def _after_command(self, managed: _ManagedSession, kind: str, result) -> None:
        """Bookkeeping after a worker executed one command."""
        stats = self.stats
        if kind == "append":
            stats.appends += 1
            if result is not None:
                stats.segments += int(result)
        elif kind == "flush":
            stats.flushes += 1
            if result is not None and not result.empty:
                stats.deltas_emitted += 1
        elif kind == "finish" and result is not None:
            managed.finished = True
            self._finish_session(managed, result)
        tenant_state = self._tenants.get(managed.tenant)
        if tenant_state is not None:
            live = tenant_state.resident_representatives()
            tenant_state.peak_representatives = max(
                tenant_state.peak_representatives, live
            )
            stats.peak_resident_representatives = max(
                stats.peak_resident_representatives, live
            )
            self._enforce_budget(tenant_state, exclude=managed)

    def _finish_session(self, managed: _ManagedSession, result: SessionResult) -> None:
        tenant_state = self._tenants.get(managed.tenant)
        if tenant_state is not None:
            tenant_state.sessions.pop(managed.key, None)
        stats = self.stats
        stats.sessions_finished += 1
        session = managed.session
        if session is not None:
            managed.payload = serialize_reduced_trace(result.reduced)
            self.cache.put(result.digest, session.config.key, managed.payload)

    def _enforce_budget(
        self, tenant_state: _Tenant, exclude: Optional[_ManagedSession] = None
    ) -> None:
        budget = self.tenant_budget
        if budget is None:
            return
        if tenant_state.resident_representatives() <= budget:
            return
        for managed in list(tenant_state.sessions.values()):  # LRU first
            if managed is exclude or not managed.evictable:
                continue
            self._evict(managed)
            if tenant_state.resident_representatives() <= budget:
                return
