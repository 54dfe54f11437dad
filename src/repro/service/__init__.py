"""``repro.service`` — the online reduction service.

The batch reducer consumes whole trace files; this package turns it into a
long-lived incremental engine, the "traces as live streams" direction of the
ROADMAP:

* :mod:`repro.service.session` — :class:`ReductionSession` wraps reducer +
  representative-store state per (trace, config), reduces each appended
  :class:`~repro.core.frames.RankFrame` (or batch of raw records) through
  ``reduce_frame``, and emits reduced-trace *deltas* (new/updated
  representatives since the last flush).
* :mod:`repro.service.checkpoint` — serialize/restore full session state so
  a restored session continues bit-identically, in another process if need
  be.
* :mod:`repro.service.server` — an asyncio multi-tenant session manager with
  per-tenant memory budgets, LRU eviction-to-checkpoint, and bounded ingest
  queues with backpressure.
* :mod:`repro.service.cache` — content-digest result cache so identical
  (trace digest, config) requests are answered without re-reduction; the
  digest chains frame rows, so a session and its source agree on it.

The incremental path steps the same core as the batch
:meth:`~repro.core.reducer.TraceReducer.reduce` and is byte-identical to the
scalar reference (:meth:`~repro.core.reducer.TraceReducer.reduce_streams`),
which remains the oracle (``tests/service/test_session_equivalence.py``).
"""

from repro.service.cache import ResultCache, source_digest
from repro.service.checkpoint import (
    load_checkpoint,
    restore_state,
    save_checkpoint,
    session_state,
)
from repro.service.server import (
    ReductionService,
    ServiceStats,
    SessionHandle,
    SubmitResult,
)
from repro.service.session import (
    RankDelta,
    ReductionDelta,
    ReductionSession,
    SessionConfig,
    SessionResult,
    SessionStats,
)

__all__ = [
    "ReductionSession",
    "SessionConfig",
    "SessionResult",
    "SessionStats",
    "RankDelta",
    "ReductionDelta",
    "ReductionService",
    "ServiceStats",
    "SessionHandle",
    "SubmitResult",
    "ResultCache",
    "source_digest",
    "session_state",
    "restore_state",
    "save_checkpoint",
    "load_checkpoint",
]
