"""Seeded deterministic workload generators for the fuzzer.

Each *family* is a small DSL program that turns a :class:`CaseSpec` (family
name, seed, JSON-able params) into a raw :class:`~repro.trace.trace.Trace` —
per-rank :class:`~repro.trace.records.TraceRecord` streams, exactly what the
tracer would have written.  All randomness flows through
:func:`repro.util.rng.rng_for`, so the same spec always produces
byte-identical records (``serialize_records`` output is the determinism
contract tested in ``tests/fuzz/test_generators.py``).

Two kinds of families exist:

* **Workload families** model communication patterns the simulator does not
  cover: ``stencil`` (halo exchange), ``master_worker`` (rank-0 fan-out with
  ragged reply counts), ``bursty`` (rare latency spikes), ``phase_change``
  (event structure changes mid-run), ``ragged`` (wildly uneven segment
  counts per rank, including empty-event segments).
* **Adversarial families** are engineered against specific mechanisms:
  ``threshold_edge`` bisects float64 bit patterns to place probe segments
  within one ulp on either side of the metric's match boundary,
  ``prune_stress`` builds a deep single-structure bucket with permuted
  (norm-identical) vectors and zero vectors to stress the dense kernel's
  row-wise norms and first-match order, and ``malformed`` emits record
  streams that violate segmentation rules to hit the malformed-rank fallback
  in :mod:`repro.trace.binio`.

Timestamps in *text-safe* families are multiples of 0.25 µs so the lossy
``"%.2f"`` text format round-trips them exactly; the ulp-precision families
declare ``text_safe=False`` and the harness skips the text oracle for them
(``.rpb`` stores float64 exactly, so every other oracle still applies).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.core.metrics import DEFAULT_THRESHOLDS, METRIC_NAMES, THRESHOLD_STUDY, create_metric
from repro.trace.events import MpiCallInfo
from repro.trace.records import RecordKind, TraceRecord
from repro.trace.segments import Segment, iter_segments
from repro.trace.trace import RankTrace, Trace
from repro.util.rng import rng_for

__all__ = [
    "CaseConfig",
    "CaseSpec",
    "GeneratorFamily",
    "FAMILIES",
    "FAMILY_NAMES",
    "DISTANCE_METRICS",
    "generate_case",
    "trace_from_records",
    "boundary_deltas",
]

#: Time grid of the text-safe families: every timestamp is a multiple of this,
#: which the "%.2f" text format represents exactly.
TICK = 0.25

#: Metrics with a numeric distance threshold — the ones threshold_edge can
#: bisect against (iter_k counts occurrences and iter_avg is unconditional).
DISTANCE_METRICS = (
    "relDiff",
    "absDiff",
    "manhattan",
    "euclidean",
    "chebyshev",
    "avgWave",
    "haarWave",
)


@dataclass(frozen=True)
class CaseSpec:
    """What to generate: a family, its seed, and its parameters."""

    family: str
    seed: int
    params: Mapping = field(default_factory=dict)

    def rng(self, *labels) -> np.random.Generator:
        return rng_for(self.seed, "fuzz", self.family, *labels)


@dataclass(frozen=True)
class CaseConfig:
    """How to reduce the generated trace."""

    method: str
    threshold: Optional[float]

    def describe(self) -> str:
        if self.threshold is None:
            return self.method
        return f"{self.method}/t={self.threshold:g}"

    def as_dict(self) -> dict:
        return {"method": self.method, "threshold": self.threshold}

    @classmethod
    def from_dict(cls, data: Mapping) -> "CaseConfig":
        return cls(method=data["method"], threshold=data["threshold"])


def random_config(rng: np.random.Generator) -> CaseConfig:
    """Draw a reduction config: any metric and a studied threshold."""
    method = METRIC_NAMES[int(rng.integers(0, len(METRIC_NAMES)))]
    if method == "iter_avg":
        threshold = None
    else:
        choices = list(THRESHOLD_STUDY.get(method, ())) or [DEFAULT_THRESHOLDS[method]]
        threshold = choices[int(rng.integers(0, len(choices)))]
        if method == "iter_k":
            threshold = int(threshold)
    return CaseConfig(method=method, threshold=threshold)


# --------------------------------------------------------------------------
# Record-building DSL


class _RankScript:
    """Accumulates one rank's record stream on the tick grid."""

    def __init__(self, rank: int):
        self.rank = rank
        self.records: list[TraceRecord] = []
        self._clock = 0  # in ticks

    def advance(self, ticks: int) -> None:
        self._clock += max(0, int(ticks))

    @property
    def now(self) -> float:
        return self._clock * TICK

    def _emit(self, kind: RecordKind, name: str, mpi: Optional[MpiCallInfo] = None) -> None:
        self.records.append(
            TraceRecord(kind=kind, rank=self.rank, timestamp=self.now, name=name, mpi=mpi)
        )

    def begin_segment(self, context: str, gap: int = 0) -> None:
        self.advance(gap)
        self._emit(RecordKind.SEGMENT_BEGIN, context)

    def end_segment(self, context: str, gap: int = 0) -> None:
        self.advance(gap)
        self._emit(RecordKind.SEGMENT_END, context)

    def call(self, name: str, duration: int, mpi: Optional[MpiCallInfo] = None, gap: int = 1) -> None:
        """One ENTER/EXIT pair: ``gap`` ticks of idle, then ``duration`` ticks inside."""
        self.advance(gap)
        self._emit(RecordKind.ENTER, name, mpi)
        self.advance(max(1, int(duration)))
        self._emit(RecordKind.EXIT, name)

    def raw(self, kind: RecordKind, name: str, gap: int = 1) -> None:
        """Emit a bare record — the malformed family's rule-breaking escape hatch."""
        self.advance(gap)
        self._emit(kind, name)


def trace_from_records(name: str, records_by_rank: Sequence[Sequence[TraceRecord]]) -> Trace:
    """Assemble a raw :class:`Trace` from per-rank record lists (rank = index).

    Records are re-stamped with their positional rank so shrunk cases that
    dropped ranks stay contiguous — the text writer requires ranks 0..n-1.
    """
    ranks = []
    for rank, records in enumerate(records_by_rank):
        fixed = [
            rec if rec.rank == rank else TraceRecord(rec.kind, rank, rec.timestamp, rec.name, rec.mpi)
            for rec in records
        ]
        ranks.append(RankTrace(rank=rank, records=fixed))
    return Trace(name=name, ranks=ranks)


# --------------------------------------------------------------------------
# Workload families


def _gen_stencil(spec: CaseSpec) -> Trace:
    """1-D stencil halo exchange: compute, then send/recv with both neighbours."""
    p = spec.params
    nprocs, iters = int(p["nprocs"]), int(p["iterations"])
    nbytes = int(p.get("nbytes", 4096))
    rng = spec.rng("timing")
    scripts = [_RankScript(r) for r in range(nprocs)]
    for it in range(iters):
        for s in scripts:
            r = s.rank
            left, right = (r - 1) % nprocs, (r + 1) % nprocs
            s.begin_segment("main.1", gap=1)
            # Jitter only sometimes, so some iterations match exactly.
            jitter = int(rng.integers(0, 6)) if rng.random() < 0.5 else 0
            s.call("compute", 8 + jitter)
            s.call("MPI_Send", 2, MpiCallInfo(op="send", peer=left, tag=7, nbytes=nbytes))
            s.call("MPI_Recv", 2 + int(rng.integers(0, 3)), MpiCallInfo(op="recv", peer=right, tag=7, nbytes=nbytes))
            s.call("MPI_Allreduce", 3, MpiCallInfo(op="allreduce", nbytes=8))
            s.end_segment("main.1", gap=1)
    return trace_from_records("fuzz-stencil", [s.records for s in scripts])


def _params_stencil(rng: np.random.Generator) -> dict:
    return {
        "nprocs": int(rng.integers(2, 5)),
        "iterations": int(rng.integers(4, 12)),
        "nbytes": int(rng.integers(1, 64)) * 256,
    }


def _gen_master_worker(spec: CaseSpec) -> Trace:
    """Rank 0 fans work out; reply counts vary round to round (ragged events)."""
    p = spec.params
    nprocs, rounds = int(p["nprocs"]), int(p["rounds"])
    rng = spec.rng("timing")
    scripts = [_RankScript(r) for r in range(nprocs)]
    master, workers = scripts[0], scripts[1:]
    for rd in range(rounds):
        active = [w for w in workers if rng.random() < 0.8] or workers[:1]
        master.begin_segment("main.1", gap=1)
        for w in active:
            master.call("MPI_Send", 1, MpiCallInfo(op="send", peer=w.rank, tag=rd % 3, nbytes=512))
        for w in active:
            master.call("MPI_Recv", 1 + int(rng.integers(0, 2)), MpiCallInfo(op="recv", peer=w.rank, tag=rd % 3, nbytes=128))
        master.end_segment("main.1", gap=1)
        for w in workers:
            w.begin_segment("main.1", gap=1)
            if w in active:
                w.call("MPI_Recv", 1, MpiCallInfo(op="recv", peer=0, tag=rd % 3, nbytes=512))
                w.call("work", 4 + int(rng.integers(0, 9)))
                w.call("MPI_Send", 1, MpiCallInfo(op="send", peer=0, tag=rd % 3, nbytes=128))
            else:
                w.call("idle", 2)
            w.end_segment("main.1", gap=1)
    return trace_from_records("fuzz-master-worker", [s.records for s in scripts])


def _params_master_worker(rng: np.random.Generator) -> dict:
    return {"nprocs": int(rng.integers(3, 6)), "rounds": int(rng.integers(4, 10))}


def _gen_bursty(spec: CaseSpec) -> Trace:
    """Near-constant iterations with rare large latency bursts on one rank."""
    p = spec.params
    nprocs, iters = int(p["nprocs"]), int(p["iterations"])
    burst_every, burst_scale = int(p["burst_every"]), int(p["burst_scale"])
    rng = spec.rng("timing")
    scripts = [_RankScript(r) for r in range(nprocs)]
    slow_rank = int(rng.integers(0, nprocs))
    for it in range(iters):
        for s in scripts:
            burst = burst_scale if (s.rank == slow_rank and it % burst_every == burst_every - 1) else 1
            s.begin_segment("main.1", gap=1)
            s.call("compute", 6 * burst)
            s.call("MPI_Barrier", 2, MpiCallInfo(op="barrier"))
            s.end_segment("main.1", gap=1)
    return trace_from_records("fuzz-bursty", [s.records for s in scripts])


def _params_bursty(rng: np.random.Generator) -> dict:
    return {
        "nprocs": int(rng.integers(2, 5)),
        "iterations": int(rng.integers(6, 16)),
        "burst_every": int(rng.integers(3, 6)),
        "burst_scale": int(rng.integers(8, 40)),
    }


def _gen_phase_change(spec: CaseSpec) -> Trace:
    """Event structure changes between phases: new calls, new segment context."""
    p = spec.params
    nprocs, per_phase = int(p["nprocs"]), int(p["iterations_per_phase"])
    rng = spec.rng("timing")
    scripts = [_RankScript(r) for r in range(nprocs)]
    phases = (
        ("main.1", ["compute", "MPI_Allreduce"]),
        ("main.1", ["compute", "exchange", "MPI_Bcast"]),
        ("main.2", ["solve", "MPI_Reduce"]),
    )
    mpi_for = {
        "MPI_Allreduce": MpiCallInfo(op="allreduce", nbytes=64),
        "MPI_Bcast": MpiCallInfo(op="bcast", root=0, nbytes=1024),
        "MPI_Reduce": MpiCallInfo(op="reduce", root=0, nbytes=64),
    }
    for context, names in phases:
        for it in range(per_phase):
            for s in scripts:
                s.begin_segment(context, gap=1)
                for name in names:
                    jitter = int(rng.integers(0, 3)) if rng.random() < 0.3 else 0
                    s.call(name, 4 + jitter, mpi_for.get(name))
                s.end_segment(context, gap=1)
    return trace_from_records("fuzz-phase-change", [s.records for s in scripts])


def _params_phase_change(rng: np.random.Generator) -> dict:
    return {"nprocs": int(rng.integers(2, 5)), "iterations_per_phase": int(rng.integers(3, 8))}


def _gen_ragged(spec: CaseSpec) -> Trace:
    """Wildly uneven segment counts per rank, incl. empty-event segments."""
    p = spec.params
    nprocs, max_segments = int(p["nprocs"]), int(p["max_segments"])
    rng = spec.rng("timing")
    scripts = [_RankScript(r) for r in range(nprocs)]
    for s in scripts:
        n_segments = 1 + (s.rank * 7 + int(rng.integers(0, 3))) % max_segments
        for i in range(n_segments):
            context = "main.1" if i % 3 else "main.2"
            s.begin_segment(context, gap=1)
            n_events = int(rng.integers(0, 4))  # zero-event segments included
            for _ in range(n_events):
                s.call("step", 2 + int(rng.integers(0, 4)))
            s.end_segment(context, gap=1)
    return trace_from_records("fuzz-ragged", [s.records for s in scripts])


def _params_ragged(rng: np.random.Generator) -> dict:
    return {"nprocs": int(rng.integers(2, 7)), "max_segments": int(rng.integers(4, 12))}


# --------------------------------------------------------------------------
# Adversarial families


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def boundary_deltas(pred: Callable[[float], bool], lo: float, hi: float) -> tuple[float, float]:
    """Bisect float64 *bit patterns* to the decision boundary of ``pred``.

    ``pred(lo)`` must be True and ``pred(hi)`` False, with ``0 <= lo < hi``.
    Returns adjacent floats ``(last_true, first_false)`` — one ulp apart.
    For non-negative floats the IEEE-754 bit pattern is monotone in the
    value, so binary search over the integer representation converges to
    adjacent representable values in at most 63 steps.
    """
    if not pred(lo):
        raise ValueError("pred(lo) must hold")
    if pred(hi):
        raise ValueError("pred(hi) must not hold")
    lo_b, hi_b = _float_bits(lo), _float_bits(hi)
    while hi_b - lo_b > 1:
        mid_b = (lo_b + hi_b) // 2
        if pred(_bits_float(mid_b)):
            lo_b = mid_b
        else:
            hi_b = mid_b
    return _bits_float(lo_b), _bits_float(hi_b)


class UnreachableBoundary(ValueError):
    """No end-perturbation of this segment shape can miss at this threshold."""


def edge_boundary_ends(
    base: Segment, method: str, threshold: float
) -> tuple[float, float]:
    """Last-matching and first-missing values of the final segment-end timestamp.

    The probe segment is ``base`` with only its SEGMENT_END timestamp raised;
    the predicate replays *exactly* what the reducer does with a candidate —
    ``relative_to_start()`` then the metric's scalar ``similar`` against the
    stored representative — so the returned adjacent floats straddle the real
    match boundary of the scan-path ground truth, one ulp apart.
    """
    metric = create_metric(method, threshold)
    stored = base.relative_to_start()
    stored_ts = np.asarray(stored.timestamps(), dtype=float)

    def matches(end_value: float) -> bool:
        probe = Segment(
            context=base.context,
            rank=base.rank,
            start=base.start,
            end=end_value,
            events=list(base.events),
            index=base.index,
        ).relative_to_start()
        probe_ts = np.asarray(probe.timestamps(), dtype=float)
        return bool(metric.similar(probe_ts, stored_ts, probe, stored))

    end0 = float(base.end)
    if not matches(end0):  # pragma: no cover - identical vectors always match
        raise RuntimeError(f"{method} t={threshold} rejects an identical segment")
    hi = end0 + max(1.0, end0 - base.start)
    # Find an upper probe that misses.  For scale-relative metrics the limit
    # grows with the perturbed coordinate, so the distance/limit ratio can
    # asymptote below 1 — some (threshold, shape) pairs have no boundary.
    while matches(hi):
        hi = base.start + (hi - base.start) * 4.0
        if hi - base.start > 1e9 * max(1.0, end0 - base.start):
            raise UnreachableBoundary(
                f"{method} t={threshold} matches every end-perturbation of this shape"
            )
    return boundary_deltas(matches, end0, hi)


def _edge_group_records(
    rank: int, start_tick: int, context: str, durations: Sequence[int], method: str, threshold: float
) -> list[TraceRecord]:
    """Records for one boundary probe group: base, copy, edge-match, edge-miss.

    All five segments occupy the *same* absolute time window (timestamps are
    not required to be monotone across segments), because shifting a probe in
    time would re-round the ulp-precision end value under ``(t + off)``
    arithmetic and move it off the boundary.
    """
    script = _RankScript(rank)
    script.advance(start_tick)
    script.begin_segment(context)
    for d in durations:
        script.call("compute", int(d))
    script.end_segment(context, gap=1)
    base_records = list(script.records)
    base = next(iter_segments(base_records))
    end_match, end_miss = edge_boundary_ends(base, method, threshold)

    def probe_records(end_value: float) -> list[TraceRecord]:
        last = base_records[-1]
        return base_records[:-1] + [TraceRecord(last.kind, rank, end_value, last.name)]

    out: list[TraceRecord] = []
    for end_value in (base.end, base.end, end_match, end_miss):
        out.extend(probe_records(end_value))
    # One more exact copy after the miss is stored: first-match must still
    # pick the original representative over the newer boundary-miss one.
    out.extend(probe_records(base.end))
    return out


def _gen_threshold_edge(spec: CaseSpec) -> Trace:
    p = spec.params
    method, threshold = str(p["method"]), float(p["threshold"])
    rng = spec.rng("shape")
    records: list[TraceRecord] = []
    for i in range(int(p["pairs"])):
        # The boundary's existence depends on the segment shape for the
        # scale-relative metrics; redraw (deterministically) until reachable.
        for _ in range(20):
            durations = [int(d) for d in rng.integers(2, 30, size=int(rng.integers(2, 5)))]
            try:
                group = _edge_group_records(0, 1000 * i, f"edge.{i}", durations, method, threshold)
            except UnreachableBoundary:
                continue
            records.extend(group)
            break
        else:  # pragma: no cover - t<1 filters make a boundary reachable
            raise RuntimeError(f"no reachable {method} t={threshold} boundary in 20 draws")
    return trace_from_records("fuzz-threshold-edge", [records])


def _params_threshold_edge(rng: np.random.Generator) -> dict:
    method = DISTANCE_METRICS[int(rng.integers(0, len(DISTANCE_METRICS)))]
    choices = list(THRESHOLD_STUDY.get(method, ())) or [DEFAULT_THRESHOLDS[method]]
    if method != "absDiff":
        # Scale-relative limits grow with the perturbed coordinate: at t >= 1
        # the distance can never exceed the limit, so no boundary exists.
        choices = [v for v in choices if v < 1.0] or [DEFAULT_THRESHOLDS[method]]
    threshold = float(choices[int(rng.integers(0, len(choices)))])
    return {
        "method": method,
        "threshold": threshold,
        "pairs": int(rng.integers(2, 5)),
        # The case must be reduced with the metric the probes were built for.
        "config": {"method": method, "threshold": threshold},
    }


def _gen_prune_stress(spec: CaseSpec) -> Trace:
    """A deep single-structure bucket built to stress the dense kernel.

    (The name is historical; case ids hash it, so it stays.)

    * ``depth`` distinct-timing segments of one structure grow the candidate
      bucket to 70–120 rows, or 560 for one draw in five.
    * Permuted-duration probes have *identical* norms to a stored row —
      the kernel must tell them apart row by row.
    * Zero-vector segments (no events, zero duration) and tiny-duration
      segments push the scale-free corners of the match limits.
    """
    p = spec.params
    depth = int(p["depth"])
    s = _RankScript(0)
    for i in range(depth):
        s.begin_segment("deep.1", gap=1)
        a, b = 2 + 3 * i, 5 + 2 * (i % 7)
        s.call("stepA", a)
        s.call("stepB", b)
        s.end_segment("deep.1", gap=1)
        if i % 5 == 0:
            # Same two durations in swapped order: equal p-norms, different vector.
            s.begin_segment("deep.1", gap=1)
            s.call("stepA", b)
            s.call("stepB", a)
            s.end_segment("deep.1", gap=1)
    for _ in range(int(p["zeros"])):
        # Zero-duration, zero-event segments: all-zero feature vectors.
        s.begin_segment("zero.1", gap=1)
        s.end_segment("zero.1", gap=0)
    for _ in range(int(p["tiny"])):
        s.begin_segment("tiny.1", gap=1)
        s.call("blip", 1, gap=0)
        s.end_segment("tiny.1", gap=0)
    return trace_from_records("fuzz-prune-stress", [s.records])


def _params_prune_stress(rng: np.random.Generator) -> dict:
    # One draw in five is far deeper than any paper workload's bucket.
    depth = 560 if rng.random() < 0.2 else int(rng.integers(70, 120))
    return {
        "depth": depth,
        "zeros": int(rng.integers(3, 8)),
        "tiny": int(rng.integers(2, 6)),
        # Small threshold so distinct timings actually stay distinct.
        "config": {"method": "euclidean", "threshold": 0.05},
    }


#: Ways a rank's record stream can violate the segmentation rules.
MALFORMED_KINDS = (
    "exit_without_enter",
    "nested_segment",
    "event_outside_segment",
    "name_mismatch",
    "unclosed_segment",
    "end_without_begin",
)


def _gen_malformed(spec: CaseSpec) -> Trace:
    """Well-formed ranks plus one malformed rank (the binio fallback target)."""
    p = spec.params
    nprocs, kind = int(p["nprocs"]), str(p["kind"])
    rng = spec.rng("timing")
    scripts = [_RankScript(r) for r in range(nprocs)]
    for s in scripts[:-1]:
        for _ in range(3):
            s.begin_segment("main.1", gap=1)
            s.call("compute", 3 + int(rng.integers(0, 3)))
            s.end_segment("main.1", gap=1)
    bad = scripts[-1]
    bad.begin_segment("main.1", gap=1)
    bad.call("compute", 3)
    if kind == "exit_without_enter":
        bad.raw(RecordKind.EXIT, "ghost")
        bad.end_segment("main.1", gap=1)
    elif kind == "nested_segment":
        bad.begin_segment("main.1.1", gap=1)
        bad.end_segment("main.1.1", gap=1)
        bad.end_segment("main.1", gap=1)
    elif kind == "event_outside_segment":
        bad.end_segment("main.1", gap=1)
        bad.call("stray", 2)
    elif kind == "name_mismatch":
        bad.raw(RecordKind.ENTER, "alpha")
        bad.raw(RecordKind.EXIT, "beta")
        bad.end_segment("main.1", gap=1)
    elif kind == "unclosed_segment":
        bad.call("tail", 2)
        # no SEGMENT_END
    elif kind == "end_without_begin":
        bad.end_segment("main.1", gap=1)
        bad.end_segment("main.1", gap=1)
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return trace_from_records("fuzz-malformed", [s.records for s in scripts])


def _params_malformed(rng: np.random.Generator) -> dict:
    return {
        "nprocs": int(rng.integers(2, 4)),
        "kind": MALFORMED_KINDS[int(rng.integers(0, len(MALFORMED_KINDS)))],
    }


# --------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class GeneratorFamily:
    """One named generator: builder, param sampler, and oracle applicability."""

    name: str
    build: Callable[[CaseSpec], Trace]
    default_params: Callable[[np.random.Generator], dict]
    #: All timestamps survive the "%.2f" text format exactly.
    text_safe: bool = True
    #: The stream segments cleanly (malformed sets this False, which flips
    #: the harness from the equivalence oracles to the fallback oracle).
    segmentable: bool = True


FAMILIES: dict[str, GeneratorFamily] = {
    f.name: f
    for f in (
        GeneratorFamily("stencil", _gen_stencil, _params_stencil),
        GeneratorFamily("master_worker", _gen_master_worker, _params_master_worker),
        GeneratorFamily("bursty", _gen_bursty, _params_bursty),
        GeneratorFamily("phase_change", _gen_phase_change, _params_phase_change),
        GeneratorFamily("ragged", _gen_ragged, _params_ragged),
        GeneratorFamily("threshold_edge", _gen_threshold_edge, _params_threshold_edge, text_safe=False),
        GeneratorFamily("prune_stress", _gen_prune_stress, _params_prune_stress),
        GeneratorFamily("malformed", _gen_malformed, _params_malformed, segmentable=False),
    )
}

FAMILY_NAMES: tuple[str, ...] = tuple(FAMILIES)


def generate_case(spec: CaseSpec) -> Trace:
    """Build the trace for one case spec (deterministic in the spec)."""
    try:
        family = FAMILIES[spec.family]
    except KeyError:
        raise ValueError(f"unknown fuzz family {spec.family!r}; expected one of {FAMILY_NAMES}") from None
    return family.build(spec)
