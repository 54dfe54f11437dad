"""Cross-pathway oracles: every generated case through every pathway pair.

The repository keeps several pathways through the same reduction semantics —
the scalar reference scan, the columnar frame path, the pipeline executors
(objects back, or bytes streamed to a file), a sweep grid through the same
pipeline, the incremental session — all
documented as byte-identical.  Each oracle here runs one
alternative pathway over a generated case and compares its
:func:`~repro.trace.io.serialize_reduced_trace` bytes against the ground
truth: a serial scalar-scan :class:`~repro.core.reducer.TraceReducer`.

Every oracle gets a fresh metric instance (``iter_avg`` mutates stored
representatives, so sharing one would couple the pathways) and a fresh
store per rank.

An oracle returns ``None`` on success or a human-readable divergence string
on failure; it raises :class:`OracleSkip` when structurally inapplicable
(e.g. the text round trip on a family whose ulp-precision timestamps the
two-decimal text format cannot carry).  Unexpected exceptions are caught by
the runner and reported as failures — a pathway crashing on a valid trace
is a finding, not a harness error.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.core.reconstruct import reconstruct
from repro.core.reduced import ReducedTrace
from repro.evaluation.approximation import timestamp_errors
from repro.fuzz.generators import DISTANCE_METRICS, CaseConfig
from repro.pipeline.engine import PipelineConfig, ReductionPipeline, sweep_pipeline
from repro.pipeline.stream import rank_frame_streams
from repro.service.cache import source_digest
from repro.service.checkpoint import restore_state, session_state
from repro.service.session import ReductionSession, SessionConfig
from repro.sweep.plan import SweepConfig, SweepPlan
from repro.trace import binio
from repro.trace.formats import convert_trace
from repro.trace.io import read_trace, serialize_reduced_trace, write_trace
from repro.trace.segments import SegmentationError, iter_segments
from repro.trace.trace import Trace
from repro.util.rng import rng_for

__all__ = [
    "ORACLES",
    "ORACLE_NAMES",
    "OracleOutcome",
    "OracleSkip",
    "CaseContext",
    "applicable_oracles",
    "run_oracles",
]


class OracleSkip(Exception):
    """The oracle does not apply to this case (not a failure)."""


@dataclass(slots=True)
class OracleOutcome:
    """Result of one oracle on one case."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _first_divergence(expected: bytes, got: bytes, label: str) -> Optional[str]:
    if expected == got:
        return None
    n = min(len(expected), len(got))
    offset = next((i for i in range(n) if expected[i] != got[i]), n)
    return (
        f"{label}: reduced bytes diverge at offset {offset} "
        f"(ground truth {len(expected)} bytes, pathway {len(got)} bytes)"
    )


class CaseContext:
    """Shared lazily-computed state of one case under test.

    The ground-truth reduction, the segmented trace, and the on-disk ``.rpb``
    and text copies are computed once and reused by every oracle; fresh
    metric/reducer/store instances are built per pathway.
    """

    def __init__(self, trace: Trace, config: CaseConfig, workdir: Path, seed: int = 0):
        self.trace = trace
        self.config = config
        self.workdir = Path(workdir)
        self.seed = seed
        self._segmented = None
        self._baseline = None
        self._baseline_bytes: Optional[bytes] = None
        self._rpb_path: Optional[Path] = None
        self._text_path: Optional[Path] = None

    # -- building blocks ---------------------------------------------------

    def metric(self, method: Optional[str] = None, threshold=Ellipsis):
        if method is None:
            method = self.config.method
        if threshold is Ellipsis:
            threshold = self.config.threshold
        return create_metric(method, threshold)

    @property
    def segmented(self):
        if self._segmented is None:
            self._segmented = self.trace.segmented()
        return self._segmented

    def reduce_serial(self, segmented=None, *, method=None, threshold=Ellipsis) -> ReducedTrace:
        """The scalar reference over ``segmented`` (default: the case's own trace)."""
        if segmented is None:
            segmented = self.segmented
        return TraceReducer(self.metric(method, threshold)).reduce_streams(
            segmented.name, ((r.rank, r.segments) for r in segmented.ranks)
        )

    @property
    def baseline(self) -> ReducedTrace:
        """Ground truth: the scalar scan, segment-at-a-time, serial."""
        if self._baseline is None:
            self._baseline = self.reduce_serial()
        return self._baseline

    @property
    def baseline_bytes(self) -> bytes:
        if self._baseline_bytes is None:
            self._baseline_bytes = serialize_reduced_trace(self.baseline)
        return self._baseline_bytes

    def check(self, reduced: ReducedTrace, label: str) -> Optional[str]:
        return _first_divergence(self.baseline_bytes, serialize_reduced_trace(reduced), label)

    @property
    def rpb_path(self) -> Path:
        if self._rpb_path is None:
            path = self.workdir / "case.rpb"
            binio.write_trace_rpb(self.trace, path)
            self._rpb_path = path
        return self._rpb_path

    @property
    def text_path(self) -> Path:
        if self._text_path is None:
            path = self.workdir / "case.trace"
            write_trace(self.trace, path, format="text")
            self._text_path = path
        return self._text_path


# --------------------------------------------------------------------------
# Matching-kernel oracles


def oracle_frame_path(ctx: CaseContext) -> Optional[str]:
    """Columnar ``reduce_frame`` (lazy materialization) == scalar scan."""
    reducer = TraceReducer(ctx.metric())
    reduced = ReducedTrace(
        name=ctx.segmented.name,
        method=reducer.metric.name,
        threshold=reducer.metric.threshold,
    )
    for rank_trace in ctx.segmented.ranks:
        frame = RankFrame.from_segments(rank_trace.rank, rank_trace.segments)
        reduced.ranks.append(reducer.reduce_frame(frame))
    return ctx.check(reduced, "frame path")


# --------------------------------------------------------------------------
# Pipeline oracles


def oracle_pipeline_inline(ctx: CaseContext) -> Optional[str]:
    """Serial pipeline dispatch over the in-memory trace == scalar scan."""
    config = PipelineConfig(executor="serial")
    result = ReductionPipeline(ctx.metric(), config).reduce(
        ctx.segmented, name=ctx.trace.name
    )
    return ctx.check(result.reduced, "inline pipeline")


def oracle_pipeline_shard(ctx: CaseContext) -> Optional[str]:
    """Sharded ``(path, rank)`` dispatch over ``.rpb`` == scalar scan."""
    config = PipelineConfig(executor="thread", workers=2)
    result = ReductionPipeline(ctx.metric(), config).reduce(
        ctx.rpb_path, name=ctx.trace.name
    )
    return ctx.check(result.reduced, "shard pipeline")


def oracle_pipeline_payload(ctx: CaseContext) -> Optional[str]:
    """Pickled-frame dispatch over the raw and segmented trace and its text file == scalar scan.

    The only route an in-memory trace or a forward-only file takes through a
    pool.  The text leg runs only where the two-decimal text format carries
    the case's timestamps exactly — elsewhere the file is a different trace.
    """
    config = PipelineConfig(executor="thread", workers=2)
    sources = [("payload pipeline", ctx.segmented), ("payload pipeline (raw trace)", ctx.trace)]
    reread = read_trace(ctx.text_path, name=ctx.trace.name)
    if all(o.records == b.records for o, b in zip(ctx.trace.ranks, reread.ranks)):
        sources.append(("payload pipeline (text file)", ctx.text_path))
    for label, source in sources:
        result = ReductionPipeline(ctx.metric(), config).reduce(source, name=ctx.trace.name)
        divergence = ctx.check(result.reduced, label)
        if divergence:
            return divergence
    return None


def oracle_pipeline_streamed(ctx: CaseContext) -> Optional[str]:
    """Pooled ``write()`` over ``.rpb`` — the file's bytes == scalar scan's.

    The only route on which tasks return serialized ranks and the parent
    appends them in rank order, never holding a reduced trace.
    """
    config = PipelineConfig(executor="thread", workers=2)
    path = ctx.workdir / "streamed.reduced"
    written, _ = ReductionPipeline(ctx.metric(), config).write(ctx.rpb_path, path)
    data = path.read_bytes()
    if written != len(data):
        return f"streamed pipeline: reported {written} bytes, wrote {len(data)}"
    return _first_divergence(ctx.baseline_bytes, data, "streamed pipeline")


# --------------------------------------------------------------------------
# Sweep oracle


def _sibling_threshold(config: CaseConfig) -> Optional[float]:
    """A second, different threshold for the same method (None if unavailable)."""
    from repro.core.metrics import THRESHOLD_STUDY

    if config.method == "iter_avg" or config.threshold is None:
        return None
    for value in THRESHOLD_STUDY.get(config.method, ()):
        if value != config.threshold:
            return int(value) if config.method == "iter_k" else float(value)
    return config.threshold * 2


def oracle_sweep_grid(ctx: CaseContext) -> Optional[str]:
    """Shared-pass sweep grid == a per-config serial loop, config by config."""
    configs = [SweepConfig(ctx.config.method, ctx.config.threshold)]
    sibling = _sibling_threshold(ctx.config)
    if sibling is not None:
        configs.append(SweepConfig(ctx.config.method, sibling))
    plan = SweepPlan(configs)
    result = sweep_pipeline(ctx.segmented, plan, name=ctx.trace.name)
    for outcome in result:
        if outcome.config.key == plan.configs[0].key:  # the case's own config: the baseline
            expected = ctx.baseline_bytes
        else:
            expected = serialize_reduced_trace(
                ctx.reduce_serial(
                    method=outcome.config.method, threshold=outcome.config.threshold
                )
            )
        divergence = _first_divergence(
            expected,
            serialize_reduced_trace(outcome.reduced),
            f"sweep config {outcome.config.describe()}",
        )
        if divergence:
            return divergence
    return None


# --------------------------------------------------------------------------
# Incremental-session oracle


def oracle_session_checkpoint(ctx: CaseContext) -> Optional[str]:
    """Chunked incremental session + mid-stream checkpoint/restore == batch.

    Raw records are appended rank-interleaved in ragged chunks (sizes drawn
    from the case seed), with periodic flushes; halfway through, the session
    is serialized with :func:`session_state` and resumed from the bytes —
    the finished result and content digest must equal the batch pathway's.
    """
    config = SessionConfig(method=ctx.config.method, threshold=ctx.config.threshold)
    session = ReductionSession(ctx.trace.name, config)
    rng = rng_for(ctx.seed, "session-chunks")
    pending = [(rank.rank, list(rank.records)) for rank in ctx.trace.ranks]
    chunks: list[tuple[int, list]] = []
    for rank, records in pending:
        pos = 0
        while pos < len(records):
            size = int(rng.integers(1, 8))
            chunks.append((rank, records[pos : pos + size]))
            pos += size
    # Interleave ranks round-robin, preserving each rank's chunk order.
    by_rank: dict[int, list] = {}
    for rank, chunk in chunks:
        by_rank.setdefault(rank, []).append(chunk)
    interleaved: list[tuple[int, list]] = []
    queues = {rank: iter(lst) for rank, lst in by_rank.items()}
    while queues:
        for rank in list(queues):
            chunk = next(queues[rank], None)
            if chunk is None:
                del queues[rank]
            else:
                interleaved.append((rank, chunk))
    checkpoint_at = len(interleaved) // 2
    for i, (rank, chunk) in enumerate(interleaved):
        if i == checkpoint_at:
            session = restore_state(session_state(session))
        session.append_records(rank, chunk)
        if i % 5 == 4:
            session.flush()
    result = session.finish()
    divergence = ctx.check(result.reduced, "incremental session")
    if divergence:
        return divergence
    expected_digest = source_digest(ctx.segmented)
    if result.digest != expected_digest:
        return (
            f"incremental session: content digest {result.digest[:16]}… != "
            f"source digest {expected_digest[:16]}…"
        )
    return None


# --------------------------------------------------------------------------
# Serialization round-trip oracles


def oracle_rpb_roundtrip(ctx: CaseContext) -> Optional[str]:
    """``.rpb`` write→read preserves records exactly; reduction and columnar decode unchanged."""
    reread = read_trace(ctx.rpb_path, name=ctx.trace.name)
    for orig, back in zip(ctx.trace.ranks, reread.ranks):
        if orig.records != back.records:
            return f"rpb round trip: rank {orig.rank} records changed"
    if reread.nprocs != ctx.trace.nprocs:
        return f"rpb round trip: {ctx.trace.nprocs} ranks in, {reread.nprocs} out"
    divergence = _run_decode_divergence(
        ctx.rpb_path, {rank.rank: rank.segments for rank in ctx.segmented.ranks}
    )
    if divergence:
        return divergence
    return ctx.check(ctx.reduce_serial(reread.segmented()), "rpb round trip")


def oracle_text_roundtrip(ctx: CaseContext) -> Optional[str]:
    """Text write→read preserves tick-grid records; text↔rpb converts cleanly.

    Only applies to text-safe families (all timestamps multiples of 0.25, so
    the two-decimal text format is lossless on them).
    """
    reread = read_trace(ctx.text_path, name=ctx.trace.name)
    for orig, back in zip(ctx.trace.ranks, reread.ranks):
        if orig.records != back.records:
            return f"text round trip: rank {orig.rank} records changed"
    # text -> rpb -> text must reproduce the text bytes.
    rpb2 = ctx.workdir / "via.rpb"
    text2 = ctx.workdir / "via.trace"
    convert_trace(ctx.text_path, rpb2)
    convert_trace(rpb2, text2)
    if ctx.text_path.read_bytes() != text2.read_bytes():
        return "text round trip: text→rpb→text changed the text serialization"
    return ctx.check(ctx.reduce_serial(reread.segmented()), "text round trip")


# --------------------------------------------------------------------------
# Reconstruction oracle


def oracle_reconstruction(ctx: CaseContext) -> Optional[str]:
    """Reconstruction is structure-identical; matched execs obey the metric bound.

    :func:`timestamp_errors` raises if the reconstructed trace's shape differs
    from the original anywhere.  For the distance metrics — whose stored
    representatives never mutate — every matched execution's original segment
    must still satisfy ``metric.similar`` against the representative it
    matched: the metric's own error bound, replayed exactly.
    """
    recon = reconstruct(ctx.baseline)
    try:
        timestamp_errors(ctx.segmented, recon)
    except ValueError as exc:
        return f"reconstruction: structural mismatch ({exc})"
    if ctx.config.method not in DISTANCE_METRICS:
        return None
    metric = ctx.metric()
    for rank_reduced, rank_seg in zip(ctx.baseline.ranks, ctx.segmented.ranks):
        representatives = rank_reduced.segments()
        ids, _, matched = rank_reduced.exec_columns()
        for j, segment_id in enumerate(ids.tolist()):
            if not matched[j]:
                continue
            original = rank_seg.segments[j].relative_to_start()
            stored = representatives[segment_id]
            orig_ts = np.asarray(original.timestamps(), dtype=float)
            stored_ts = np.asarray(stored.timestamps(), dtype=float)
            if not metric.similar(orig_ts, stored_ts, original, stored):
                return (
                    f"reconstruction: rank {rank_reduced.rank} exec {j} matched "
                    f"representative {segment_id} but violates the {metric.name} bound"
                )
    return None


# --------------------------------------------------------------------------
# Malformed-rank fallback oracle


def _run_decode_divergence(path: Path, reference: dict[int, object]) -> Optional[str]:
    """Hold ``binio.rank_frames`` to ``reference``: each rank alone, pairs, the whole file.

    ``reference`` maps a rank to its segments, or to the message its
    segmentation fails with.  Every run must give its ranks' normalised
    segments, or fail as its first malformed rank does alone.
    """
    ranks = list(reference)
    for length in sorted({1, 2, max(1, len(ranks))}):
        for at in range(0, len(ranks), length):
            run = ranks[at : at + length]
            messages = [reference[r] for r in run if isinstance(reference[r], str)]
            expected: object = messages[0] if messages else [
                [segment.relative_to_start() for segment in reference[r]] for r in run
            ]
            try:
                outcome: object = [
                    [frame.segment(i) for i in range(frame.n_segments)]
                    for frame in binio.rank_frames(path, run)
                ]
            except SegmentationError as exc:
                outcome = str(exc)
            if outcome != expected:
                return (
                    f"rank_frames ranks {run[0]}..{run[-1]}: decode disagrees with "
                    "in-memory segmentation"
                )
    return None


def oracle_malformed_fallback(ctx: CaseContext) -> Optional[str]:
    """Malformed ranks fail identically on every decode path; good ranks decode.

    The reference outcome per rank comes from driving :func:`iter_segments`
    over the raw records.  Every decoder must raise a :class:`SegmentationError`
    with the *same message* for malformed ranks (the ``.rpb`` file's
    ``iter_rank_segments`` and ``rank_frames``, whatever the run, and the text
    file's frames up to its first malformed rank), while well-formed ranks must
    decode to the same segments on every path.
    """
    reference: dict[int, object] = {}
    for rank_trace in ctx.trace.ranks:
        try:
            reference[rank_trace.rank] = list(iter_segments(rank_trace.records))
        except SegmentationError as exc:
            reference[rank_trace.rank] = str(exc)
    malformed = [rank for rank, ref in reference.items() if isinstance(ref, str)]
    if not malformed:
        return "malformed family produced a fully well-formed trace"

    for rank, ref in reference.items():
        # Path 1: streaming segment decode from the binary file.
        try:
            segments = list(binio.iter_rank_segments(ctx.rpb_path, rank))
            outcome: object = segments
        except SegmentationError as exc:
            outcome = str(exc)
        if isinstance(ref, str) != isinstance(outcome, str):
            got = "segments" if not isinstance(outcome, str) else f"error {outcome!r}"
            want = "segments" if not isinstance(ref, str) else f"error {ref!r}"
            return f"binio rank {rank}: expected {want}, got {got}"
        if outcome != ref:
            return f"binio rank {rank}: decode disagrees with in-memory segmentation"
    # Path 2: columnar frame decode (fast path with scalar fallback), each
    # rank alone and in runs; frames materialize the *normalised* segments.
    divergence = _run_decode_divergence(ctx.rpb_path, reference)
    if divergence:
        return divergence
    # The text path must agree as well (the malformed family stays on the grid).
    reread = read_trace(ctx.text_path, name=ctx.trace.name)
    for orig, back in zip(ctx.trace.ranks, reread.ranks):
        if orig.records != back.records:
            return f"text round trip: malformed rank {orig.rank} records changed"
    # Path 3: the text file's frames (its column reader) stop at the first
    # malformed rank, with that rank's reference error.
    decoded, outcome = [], None
    try:
        for rank, frame in rank_frame_streams(ctx.text_path):
            decoded.append((rank, [frame.segment(i) for i in range(frame.n_segments)]))
    except SegmentationError as exc:
        outcome = str(exc)
    good = list(reference)[: list(reference).index(malformed[0])]
    expected = [(rank, [s.relative_to_start() for s in reference[rank]]) for rank in good]
    if (decoded, outcome) != (expected, reference[malformed[0]]):
        return "text frames: the ranks before the first malformed one, or its error, disagree"
    return None


# --------------------------------------------------------------------------
# Registry and runner


ORACLES: dict[str, Callable[[CaseContext], Optional[str]]] = {
    "frame_path": oracle_frame_path,
    "pipeline_inline": oracle_pipeline_inline,
    "pipeline_shard": oracle_pipeline_shard,
    "pipeline_payload": oracle_pipeline_payload,
    "pipeline_streamed": oracle_pipeline_streamed,
    "sweep_grid": oracle_sweep_grid,
    "session_checkpoint": oracle_session_checkpoint,
    "rpb_roundtrip": oracle_rpb_roundtrip,
    "text_roundtrip": oracle_text_roundtrip,
    "reconstruction": oracle_reconstruction,
    "malformed_fallback": oracle_malformed_fallback,
}

ORACLE_NAMES: tuple[str, ...] = tuple(ORACLES)

#: The equivalence matrix run on every segmentable case.
EQUIVALENCE_ORACLES: tuple[str, ...] = (
    "frame_path",
    "pipeline_inline",
    "pipeline_shard",
    "pipeline_payload",
    "pipeline_streamed",
    "sweep_grid",
    "session_checkpoint",
    "rpb_roundtrip",
    "text_roundtrip",
    "reconstruction",
)


def applicable_oracles(family) -> tuple[str, ...]:
    """Which oracles a family's cases run (family = :class:`GeneratorFamily`)."""
    if not family.segmentable:
        return ("malformed_fallback",)
    if not family.text_safe:
        return tuple(n for n in EQUIVALENCE_ORACLES if n != "text_roundtrip")
    return EQUIVALENCE_ORACLES


def run_oracles(
    trace: Trace,
    config: CaseConfig,
    workdir: Path,
    names: Sequence[str],
    seed: int = 0,
) -> list[OracleOutcome]:
    """Run the named oracles over one case, capturing crashes as failures."""
    ctx = CaseContext(trace, config, workdir, seed=seed)
    outcomes: list[OracleOutcome] = []
    for name in names:
        oracle = ORACLES[name]
        try:
            divergence = oracle(ctx)
        except OracleSkip as skip:
            outcomes.append(OracleOutcome(name, "skip", str(skip)))
            continue
        except Exception as exc:  # a pathway crash is a finding
            tail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            outcomes.append(OracleOutcome(name, "fail", f"crash: {tail}"))
            continue
        if divergence:
            outcomes.append(OracleOutcome(name, "fail", divergence))
        else:
            outcomes.append(OracleOutcome(name, "pass"))
    return outcomes
