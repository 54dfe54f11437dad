"""Hierarchical spans: nestable, thread/process-aware, cheap when disabled.

The engine layers call :func:`span` around their stages::

    with obs.span("rank.reduce", rank=rank):
        ...

When no recorder is active — the default — :func:`span` returns a shared
no-op context manager after a single global load: no span ids are allocated,
no timestamps are read, no objects are built.  That module-level fast path is
what keeps the instrumentation in the match kernel's callers under the 1%
overhead budget (asserted by ``benchmarks/test_obs_overhead.py``).

When a :class:`Recorder` is active, each span records a
:class:`SpanRecord` on exit: name, wall-clock start (``time_ns`` anchor plus
a ``perf_counter_ns`` offset, so spans from different processes line up on
one timeline), duration, pid/tid, parent span id (per-thread stacks make
nesting work across threads), and its keyword attributes.

Two activation scopes exist:

* :func:`recording` installs a recorder **globally** for the process, for
  the enclosed block — the main-process scope the CLI uses;
* :func:`local_recording` installs a recorder for the **current thread
  only** — the scope pool tasks use, so thread-pool workers can each capture
  a private recorder without racing on the global, and process workers
  started as a copy of the parent shadow the orphaned recorder they inherited.

Worker recorders travel back to the parent as :class:`RecorderSnapshot`
values piggybacked on the existing task result tuples; the parent recorder
:meth:`~Recorder.absorb`\\ s them, and the exporter renders one track per
worker pid/tid.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, merge_snapshots

__all__ = [
    "SpanRecord",
    "RecorderSnapshot",
    "Recorder",
    "span",
    "counter",
    "observe",
    "enabled",
    "current_recorder",
    "recording",
    "local_recording",
    "task_recording",
]


@dataclass(slots=True)
class SpanRecord:
    """One completed span.

    ``start_ns`` is wall-clock (unix epoch) nanoseconds, derived from the
    owning recorder's epoch/perf anchor pair — that is what lets spans
    recorded in different processes (each with its own ``perf_counter``
    origin) merge onto a single timeline.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: int
    duration_ns: int
    pid: int
    tid: int
    attrs: dict

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


@dataclass(slots=True)
class RecorderSnapshot:
    """A recorder's picklable state: the payload a pool task returns."""

    label: str
    pid: int
    spans: list
    metrics: MetricsSnapshot

    @property
    def n_spans(self) -> int:
        return len(self.spans)


class Recorder:
    """Per-process in-memory span + metrics sink.

    Span records are appended under a lock (the thread executor shares one
    recorder across worker threads on the serial path); per-thread span
    stacks live in a ``threading.local`` so nesting is tracked independently
    per thread.  ``absorbed`` collects worker snapshots so one recorder can
    represent a whole parallel run.
    """

    def __init__(self, label: str = "main") -> None:
        self.label = label
        self.pid = os.getpid()
        self.epoch_origin_ns = time.time_ns()
        self.perf_origin_ns = time.perf_counter_ns()
        self.registry = MetricsRegistry()
        self.spans: list[SpanRecord] = []
        self.absorbed: list[RecorderSnapshot] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._stacks = threading.local()

    # -- span bookkeeping -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    @property
    def next_span_id(self) -> int:
        """Ids handed out so far + 1 (tests assert the disabled path is 1)."""
        return self._next_id

    def wall_ns(self, perf_ns: int) -> int:
        return self.epoch_origin_ns + (perf_ns - self.perf_origin_ns)

    def record(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)

    def span(self, name: str, **attrs) -> "_Span":
        """A span bound to this recorder, regardless of the active scope."""
        return _Span(self, name, attrs)

    # -- aggregation -------------------------------------------------------------

    def absorb(self, snapshot: Optional[RecorderSnapshot]) -> None:
        """Attach a worker's snapshot (``None`` is accepted and ignored)."""
        if snapshot is None:
            return
        with self._lock:
            self.absorbed.append(snapshot)

    def snapshot(self) -> RecorderSnapshot:
        with self._lock:
            return RecorderSnapshot(
                label=self.label,
                pid=self.pid,
                spans=list(self.spans),
                metrics=self.registry.snapshot(),
            )

    def worker_metrics(self) -> MetricsSnapshot:
        """Deterministic merge of every absorbed worker's metric snapshot."""
        return merge_snapshots(s.metrics for s in self.absorbed)

    @property
    def n_spans(self) -> int:
        return len(self.spans) + sum(s.n_spans for s in self.absorbed)


class _NoopSpan:
    """The shared disabled-mode span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    """A live span: allocates its id and timestamps only between enter/exit."""

    __slots__ = ("_recorder", "_name", "_attrs", "_start", "span_id", "parent_id")

    def __init__(self, recorder: Recorder, name: str, attrs: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        self.span_id = recorder.allocate_id()
        stack = recorder._stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter_ns()
        recorder = self._recorder
        stack = recorder._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        recorder.record(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self._name,
                start_ns=recorder.wall_ns(self._start),
                duration_ns=end - self._start,
                pid=recorder.pid,
                tid=threading.get_ident(),
                attrs=self._attrs,
            )
        )
        return False


#: Process-global active recorder (the CLI / main-process scope).
_GLOBAL: Optional[Recorder] = None


class _Local(threading.local):
    """Per-thread scope.  The class attribute makes a thread that never set
    ``recorder`` read ``None`` plainly, where ``getattr(..., None)`` on a bare
    ``threading.local`` would raise and swallow an ``AttributeError``."""

    recorder: Optional[Recorder] = None


#: Thread-local override (the pool-task scope); shadows the global.
_LOCAL = _Local()


def current_recorder() -> Optional[Recorder]:
    """The recorder :func:`span` would record into right now, or ``None``."""
    local = _LOCAL.recorder
    return local if local is not None else _GLOBAL


def enabled() -> bool:
    """True when any recorder (global or thread-local) is active."""
    return current_recorder() is not None


def span(name: str, **attrs):
    """Open a span in the active scope; a shared no-op when telemetry is off.

    The disabled path is one global load, one thread-local attribute probe,
    and a singleton return — no ids, no clock reads, no allocation.
    """
    recorder = _LOCAL.recorder
    if recorder is None:
        recorder = _GLOBAL
        if recorder is None:
            return _NOOP
    return _Span(recorder, name, attrs)


def counter(name: str, n=1) -> None:
    """Increment a counter on the active recorder's registry (no-op when off)."""
    recorder = current_recorder()
    if recorder is not None:
        recorder.registry.inc(name, n)


def observe(name: str, value) -> None:
    """Observe a histogram value on the active recorder (no-op when off)."""
    recorder = current_recorder()
    if recorder is not None:
        recorder.registry.observe(name, value)


@contextmanager
def recording(label: str = "main", recorder: Optional[Recorder] = None):
    """Enable a recorder for the enclosed block, restoring the previous one."""
    global _GLOBAL
    previous = _GLOBAL
    active = recorder if recorder is not None else Recorder(label=label)
    _GLOBAL = active
    try:
        yield active
    finally:
        _GLOBAL = previous


@contextmanager
def local_recording(recorder: Recorder):
    """Make ``recorder`` the active sink for the current thread only.

    This is the pool-task scope: thread workers each capture privately
    without touching the global, and process workers started as a copy of
    the parent shadow the orphaned recorder they inherited.
    """
    previous = _LOCAL.recorder
    _LOCAL.recorder = recorder
    try:
        yield recorder
    finally:
        _LOCAL.recorder = previous


@contextmanager
def task_recording(capture: bool):
    """The telemetry scope of one pool task: a private recorder, or ``None``.

    With ``capture`` the task records into a fresh ``worker`` recorder under
    :func:`local_recording`, and the task ships ``recorder.snapshot()`` back
    on its result.  Without it no recorder is created: spans land on the
    ambient recorder (the serial path runs tasks in the recording process)
    or nowhere.
    """
    if not capture:
        yield None
        return
    with local_recording(Recorder(label="worker")) as recorder:
        yield recorder
