"""SPMD program model for the simulator.

A :class:`Program` is, for every rank, a flat list of operations:

* :class:`SegmentBegin` / :class:`SegmentEnd` — segment markers (Figure 1 of
  the paper: ``init``, one marker pair per loop iteration, ``final``);
* :class:`Compute` — a local work region with a nominal duration in µs;
* :class:`MpiOp` — an MPI call with its parameters.

Benchmark and application generators build programs through
:class:`RankProgramBuilder`, which offers loop/segment helpers so the marking
scheme of the paper falls out naturally.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

from repro.trace.events import MpiCallInfo
from repro.util.validation import check_non_negative, check_rank

__all__ = [
    "SegmentBegin",
    "SegmentEnd",
    "Compute",
    "MpiOp",
    "Op",
    "Program",
    "RankProgramBuilder",
    "build_program",
]


@dataclass(frozen=True, slots=True)
class SegmentBegin:
    """Start of a segment with hierarchical context name (e.g. ``main.2.1``)."""

    context: str


@dataclass(frozen=True, slots=True)
class SegmentEnd:
    """End of the segment with the same context name."""

    context: str


@dataclass(frozen=True, slots=True)
class Compute:
    """A local work region.

    ``duration`` is the nominal duration in µs; the engine may add noise.
    """

    name: str
    duration: float

    def __post_init__(self) -> None:
        check_non_negative(f"duration of compute {self.name!r}", self.duration)


@dataclass(frozen=True, slots=True)
class MpiOp:
    """An MPI call: traced function name plus call parameters."""

    name: str
    info: MpiCallInfo


Op = Union[SegmentBegin, SegmentEnd, Compute, MpiOp]


@dataclass(slots=True)
class Program:
    """A complete SPMD program: one op list per rank."""

    name: str
    nprocs: int
    rank_ops: list[list[Op]]

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {self.nprocs}")
        if len(self.rank_ops) != self.nprocs:
            raise ValueError(
                f"program {self.name!r} has op lists for {len(self.rank_ops)} ranks "
                f"but nprocs={self.nprocs}"
            )

    @property
    def num_ops(self) -> int:
        return sum(len(ops) for ops in self.rank_ops)

    def ops_for(self, rank: int) -> list[Op]:
        check_rank(rank, self.nprocs)
        return self.rank_ops[rank]


_DEFAULT_NAMES = {
    "send": "MPI_Send",
    "ssend": "MPI_Ssend",
    "recv": "MPI_Recv",
    "sendrecv": "MPI_Sendrecv",
    "barrier": "MPI_Barrier",
    "bcast": "MPI_Bcast",
    "scatter": "MPI_Scatter",
    "gather": "MPI_Gather",
    "reduce": "MPI_Reduce",
    "allgather": "MPI_Allgather",
    "allreduce": "MPI_Allreduce",
    "alltoall": "MPI_Alltoall",
}


class RankProgramBuilder:
    """Builds the op list of one rank.

    The builder is handed to a body function by :func:`build_program`; the body
    calls compute / MPI / segment helpers in program order.
    """

    def __init__(self, rank: int, nprocs: int):
        check_rank(rank, nprocs)
        self.rank = rank
        self.nprocs = nprocs
        self.ops: list[Op] = []
        self._open_segments: list[str] = []
        self._calls: dict[tuple, MpiOp] = {}

    # -- segments -----------------------------------------------------------

    @contextmanager
    def segment(self, context: str) -> Iterator[None]:
        """Wrap the enclosed ops in a SEGMENT_BEGIN/SEGMENT_END pair."""
        self.begin_segment(context)
        try:
            yield
        finally:
            self.end_segment(context)

    def begin_segment(self, context: str) -> None:
        if self._open_segments:
            raise ValueError(
                f"segment {context!r} would nest inside {self._open_segments[-1]!r}; "
                "segments must not nest (stop the outer segment first)"
            )
        self._open_segments.append(context)
        self.ops.append(SegmentBegin(context))

    def end_segment(self, context: str) -> None:
        if not self._open_segments or self._open_segments[-1] != context:
            raise ValueError(f"end_segment({context!r}) does not match an open segment")
        self._open_segments.pop()
        self.ops.append(SegmentEnd(context))

    def loop(self, context: str, iterations: int) -> Iterator[int]:
        """Iterate ``iterations`` times, wrapping each iteration in a segment.

        Mirrors the paper's loop marking: a new segment starts at the top of
        each iteration and stops at the bottom.
        """
        if iterations < 0:
            raise ValueError(f"loop {context!r} cannot have negative iterations")
        for i in range(iterations):
            self.begin_segment(context)
            yield i
            self.end_segment(context)

    # -- local work ---------------------------------------------------------

    def compute(self, name: str, duration: float) -> None:
        """Add a local work region of ``duration`` µs."""
        self.ops.append(Compute(name=name, duration=float(duration)))

    # -- point-to-point -----------------------------------------------------

    def send(self, dest: int, *, tag: int = 0, nbytes: int = 1024, name: str | None = None) -> None:
        """Standard-mode (eager) send: completes locally, never blocks."""
        check_rank(dest, self.nprocs)
        self._mpi("send", name, peer=dest, tag=tag, nbytes=nbytes)

    def ssend(self, dest: int, *, tag: int = 0, nbytes: int = 1024, name: str | None = None) -> None:
        """Synchronous send: blocks until the matching receive has been posted."""
        check_rank(dest, self.nprocs)
        self._mpi("ssend", name, peer=dest, tag=tag, nbytes=nbytes)

    def recv(self, source: int, *, tag: int = 0, nbytes: int = 1024, name: str | None = None) -> None:
        """Blocking receive."""
        check_rank(source, self.nprocs)
        self._mpi("recv", name, peer=source, tag=tag, nbytes=nbytes)

    def sendrecv(
        self,
        dest: int,
        *,
        source: int | None = None,
        tag: int = 0,
        nbytes: int = 1024,
        name: str | None = None,
    ) -> None:
        """Combined send to ``dest`` and receive from ``source``.

        ``source`` defaults to ``dest`` (a symmetric pairwise exchange); a
        shift pattern such as a ring halo exchange passes a different source
        (``sendrecv(dest=right, source=left)``), exactly like ``MPI_Sendrecv``.
        The call blocks until the incoming message has arrived; the outgoing
        message is sent eagerly.
        """
        check_rank(dest, self.nprocs)
        if source is None:
            source = dest
        check_rank(source, self.nprocs)
        self._mpi("sendrecv", name, peer=dest, source=source, tag=tag, nbytes=nbytes)

    # -- collectives ---------------------------------------------------------

    def barrier(self, *, name: str | None = None) -> None:
        self._mpi("barrier", name, nbytes=0)

    def bcast(self, root: int, *, nbytes: int = 1024, name: str | None = None) -> None:
        check_rank(root, self.nprocs)
        self._mpi("bcast", name, root=root, nbytes=nbytes)

    def scatter(self, root: int, *, nbytes: int = 1024, name: str | None = None) -> None:
        check_rank(root, self.nprocs)
        self._mpi("scatter", name, root=root, nbytes=nbytes)

    def gather(self, root: int, *, nbytes: int = 1024, name: str | None = None) -> None:
        check_rank(root, self.nprocs)
        self._mpi("gather", name, root=root, nbytes=nbytes)

    def reduce(self, root: int, *, nbytes: int = 1024, name: str | None = None) -> None:
        check_rank(root, self.nprocs)
        self._mpi("reduce", name, root=root, nbytes=nbytes)

    def allgather(self, *, nbytes: int = 1024, name: str | None = None) -> None:
        self._mpi("allgather", name, nbytes=nbytes)

    def allreduce(self, *, nbytes: int = 1024, name: str | None = None) -> None:
        self._mpi("allreduce", name, nbytes=nbytes)

    def alltoall(self, *, nbytes: int = 1024, name: str | None = None) -> None:
        self._mpi("alltoall", name, nbytes=nbytes)

    # -- MPI environment -----------------------------------------------------

    def mpi_init(self) -> None:
        """``MPI_Init``: modelled as a barrier so all ranks start together."""
        self._mpi("barrier", "MPI_Init", nbytes=0)

    def mpi_finalize(self) -> None:
        """``MPI_Finalize``: modelled as a barrier at the end of the run."""
        self._mpi("barrier", "MPI_Finalize", nbytes=0)

    # -- internals -----------------------------------------------------------

    def _mpi(
        self,
        op: str,
        name: str | None,
        *,
        root: int | None = None,
        peer: int | None = None,
        source: int | None = None,
        tag: int | None = None,
        nbytes: int = 0,
    ) -> None:
        # One frozen MpiOp per distinct call, shared by every op list entry that makes it.
        key = (op, name, root, peer, source, tag, nbytes)
        call = self._calls.get(key)
        if call is None:
            info = MpiCallInfo(op=op, root=root, peer=peer, source=source, tag=tag, nbytes=nbytes)
            call = self._calls[key] = MpiOp(name=name or _DEFAULT_NAMES[op], info=info)
        self.ops.append(call)

    def finish(self) -> list[Op]:
        """Validate and return the built op list."""
        if self._open_segments:
            raise ValueError(f"segments still open at end of program: {self._open_segments}")
        return self.ops


BodyFn = Callable[[RankProgramBuilder, int], None]


def build_program(name: str, nprocs: int, body: BodyFn) -> Program:
    """Build an SPMD program by running ``body(builder, rank)`` for every rank."""
    rank_ops: list[list[Op]] = []
    for rank in range(nprocs):
        builder = RankProgramBuilder(rank, nprocs)
        body(builder, rank)
        rank_ops.append(builder.finish())
    return Program(name=name, nprocs=nprocs, rank_ops=rank_ops)
