"""Freeze and resume reduction sessions.

A checkpoint is one pickle payload holding the session's complete state:
config, metric, partially reduced outputs (arrays), open segmenters, per-rank
digests (chained per row over frame columns,
:func:`~repro.service.cache.chain_frame`) and flush watermarks.  A session
restored from it — in the same process or a fresh one — continues
**bit-identically**: the reduced bytes and stats of checkpoint → restore →
finish equal those of an uninterrupted run.

Two properties make that work:

* A checkpoint carries no representative store.  A store is an index of its
  rank's reduced output — each key's representative ids and, for a distance
  metric, their feature rows — whose rows, counts and ``iter_avg`` means
  live only in the output (pickled as rows of its own,
  :meth:`~repro.core.reduced.ReducedRankTrace.own`).  A restore rebuilds
  every store from the output with the one writer of buckets,
  :func:`~repro.core.reducer.keep`, recomputing the rows from the
  representatives' columns bit for bit.
* Keys rehash on restore (:class:`~repro.core.frames.InternedKey` re-derives
  its cached hash), so checkpoints are portable across processes with
  different string-hash salts.

The reducer itself is *not* pickled — it is stateless given the metric — and
is rebuilt from the metric, so checkpoints stay small and stable across
reducer-internals refactors.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

from repro import obs
from repro.core.reducer import TraceReducer, keep
from repro.service.session import ReductionSession

__all__ = [
    "STATE_VERSION",
    "session_state",
    "restore_state",
    "write_checkpoint_bytes",
    "save_checkpoint",
    "load_checkpoint",
]

#: Bump when the payload layout or the meaning of a field changes; restores
#: reject other versions instead of resuming from a misread state.  Version 4:
#: the rank digests chain frame rows (a version-3 digest chained segments, so
#: a resumed session would never digest to its source again).  Version 5: the
#: stores and the session config carry no capacity.  Version 6: a reduced rank
#: is columns and the stores' buckets hold representative ids.  Version 7: no
#: store is carried; a restore rebuilds them from the reduced ranks.
STATE_VERSION = 7


def session_state(session: ReductionSession) -> bytes:
    """Serialize a session's complete state to bytes."""
    with obs.span("service.checkpoint", session=session.name):
        payload = {
            "version": STATE_VERSION,
            "name": session.name,
            "config": session.config,
            "metric": session.metric,
            "seq": session.seq,
            "finished": session.finished,
            "stats": session.stats,
            "ranks": session._ranks,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def restore_state(data: bytes) -> ReductionSession:
    """Rebuild a live session from :func:`session_state` bytes."""
    with obs.span("service.restore"):
        payload = pickle.loads(data)
        version = payload.get("version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported session checkpoint version {version!r}; "
                f"this build reads version {STATE_VERSION}"
            )
        session = ReductionSession.__new__(ReductionSession)
        session.name = payload["name"]
        session.config = payload["config"]
        # The restored metric instance, not a fresh one: a metric may keep
        # per-run state (RandomSampling's stream), which must survive too.
        session.metric = payload["metric"]
        session.reducer = TraceReducer(session.metric)
        session.seq = payload["seq"]
        session.stats = payload["stats"]
        session._ranks = payload["ranks"]
        session._finished = payload["finished"]
        for state in session._ranks.values():
            keep(state.store, state.reduced, session.metric)
    return session


def write_checkpoint_bytes(path: str | Path, data: bytes) -> None:
    """Put ``data`` under ``path`` whole or not at all.

    The bytes go to a temporary file in the same directory, are flushed and
    fsynced, and only then renamed over ``path``: a write that fails or a
    process that dies part-way leaves the previous checkpoint (if any)
    intact under the final name, never a torn one.
    """
    path = Path(path)
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def save_checkpoint(session: ReductionSession, path: str | Path) -> int:
    """Write a session checkpoint file; returns bytes written."""
    data = session_state(session)
    write_checkpoint_bytes(path, data)
    return len(data)


def load_checkpoint(path: str | Path) -> ReductionSession:
    """Restore a session from a checkpoint file."""
    return restore_state(Path(path).read_bytes())
