"""Discrete-event execution engine.

The engine executes a :class:`~repro.simulator.program.Program` on the virtual
machine model and produces a raw :class:`~repro.trace.trace.Trace`.  Each rank
has its own monotonic virtual clock; MPI blocking semantics are:

* ``recv`` blocks until the matching send has been *posted* (so a late sender
  makes the receiver wait — the Late Sender pattern);
* ``ssend`` blocks until the matching receive has been posted (Late Receiver);
* ``send`` (standard mode) completes locally, eager-protocol style;
* ``sendrecv`` synchronises the two partners pairwise;
* rooted fan-out collectives (``bcast``/``scatter``) make non-roots wait for
  the root (Late Broadcast);
* rooted fan-in collectives (``gather``/``reduce``) make the root wait for the
  last sender (Early Gather/Reduce) while non-roots leave immediately;
* symmetric collectives (``barrier``/``allreduce``/``allgather``/``alltoall``)
  make everyone wait for the last arrival (Wait at Barrier / Wait at N×N).

Compute regions may be inflated by a :class:`~repro.simulator.noise.NoiseModel`
(system interference).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.simulator.machine import MachineModel
from repro.simulator.noise import NoiseModel, NullNoise
from repro.simulator.program import Compute, MpiOp, Op, Program, SegmentBegin, SegmentEnd
from repro.trace.events import MpiCallInfo
from repro.trace.records import RecordColumns, RecordKind
from repro.trace.trace import RankTrace, Trace
from repro.util.rng import rng_for

__all__ = ["SimulatorConfig", "SimulationEngine", "DeadlockError", "simulate"]


class DeadlockError(RuntimeError):
    """Raised when no rank can make progress (mismatched MPI operations)."""


@dataclass(frozen=True, slots=True)
class SimulatorConfig:
    """Engine configuration.

    Attributes
    ----------
    machine:
        Interconnect/MPI cost model.
    noise:
        Compute-time interference model (defaults to no noise).
    start_skew:
        Maximum random per-rank offset of the virtual clock at program start,
        in µs.  Real MPI processes never start in perfect lockstep; a small
        skew avoids artificial exact ties before ``MPI_Init``.
    seed:
        Seed for the start skew.
    """

    machine: MachineModel = field(default_factory=MachineModel)
    noise: NoiseModel = field(default_factory=NullNoise)
    start_skew: float = 10.0
    seed: int = 0


@dataclass(slots=True)
class _Posting:
    """One rank's pending MPI call."""

    rank: int
    enter: float
    info: MpiCallInfo
    name: str


@dataclass(slots=True)
class _RankState:
    rank: int
    ops: list
    records: RecordColumns
    pc: int = 0
    clock: float = 0.0
    blocked: bool = False
    finished: bool = False


class SimulationEngine:
    """Executes one program and produces its raw trace."""

    def __init__(self, program: Program, config: SimulatorConfig | None = None):
        self.program = program
        self.config = config or SimulatorConfig()
        self._machine = self.config.machine
        self._noise = self.config.noise
        self._states: list[_RankState] = []
        # collective matching: per-rank collective sequence counter and
        # per-sequence pending postings
        self._coll_seq: list[int] = [0] * program.nprocs
        self._pending_coll: Dict[int, Dict[int, _Posting]] = {}
        # point-to-point matching: FIFO queues keyed by (src, dst, tag)
        self._pending_sends: Dict[Tuple[int, int, int], Deque[_Posting]] = {}
        self._pending_recvs: Dict[Tuple[int, int, int], Deque[_Posting]] = {}
        # rank -> exit time, filled when a pending MPI call resolves
        self._completions: Dict[int, float] = {}

    # -- public API ----------------------------------------------------------

    def run(self) -> Trace:
        """Execute the program to completion and return the raw trace."""
        self._init_states()
        states = self._states
        while not all(state.finished for state in states):
            progressed = False
            for state in states:
                progressed |= self._advance(state)
            if not progressed:
                blocked = [
                    f"rank {s.rank} at op {s.pc} ({self._describe_current(s)})"
                    for s in states
                    if not s.finished
                ]
                raise DeadlockError(
                    "no rank can make progress; blocked ranks: " + "; ".join(blocked)
                )
        ranks = [RankTrace(rank=s.rank, records=s.records) for s in states]
        return Trace(name=self.program.name, ranks=ranks)

    # -- internals -----------------------------------------------------------

    def _init_states(self) -> None:
        rng = rng_for(self.config.seed, "start_skew", self.program.name)
        skews = (
            rng.uniform(0.0, self.config.start_skew, size=self.program.nprocs)
            if self.config.start_skew > 0
            else [0.0] * self.program.nprocs
        )
        self._states = [
            _RankState(
                rank=r, ops=self.program.ops_for(r), records=RecordColumns(r), clock=float(skews[r])
            )
            for r in range(self.program.nprocs)
        ]

    def _describe_current(self, state: _RankState) -> str:
        if state.pc >= len(state.ops):
            return "<end>"
        op = state.ops[state.pc]
        if isinstance(op, MpiOp):
            return f"{op.name}[{op.info.op}]"
        return type(op).__name__

    def _advance(self, state: _RankState) -> bool:
        """Advance one rank as far as possible; return True if progress was made."""
        if state.finished:
            return False
        progressed = False
        record = state.records.append
        if state.blocked:
            exit_time = self._completions.pop(state.rank, None)
            if exit_time is None:
                return False
            op = state.ops[state.pc]
            assert isinstance(op, MpiOp)
            record(RecordKind.EXIT, exit_time, op.name)
            state.clock = exit_time
            state.blocked = False
            state.pc += 1
            progressed = True

        while state.pc < len(state.ops):
            op = state.ops[state.pc]
            if isinstance(op, SegmentBegin):
                record(RecordKind.SEGMENT_BEGIN, state.clock, op.context)
                state.pc += 1
            elif isinstance(op, SegmentEnd):
                record(RecordKind.SEGMENT_END, state.clock, op.context)
                state.pc += 1
            elif isinstance(op, Compute):
                extra = self._noise.extra_delay(state.rank, state.clock, op.duration)
                start = state.clock
                end = start + op.duration + extra
                record(RecordKind.ENTER, start, op.name)
                record(RecordKind.EXIT, end, op.name)
                state.clock = end
                state.pc += 1
            elif isinstance(op, MpiOp):
                record(RecordKind.ENTER, state.clock, op.name, op.info)
                self._post_mpi(state.rank, state.clock, op)
                exit_time = self._completions.pop(state.rank, None)
                if exit_time is None:
                    state.blocked = True
                    return True
                record(RecordKind.EXIT, exit_time, op.name)
                state.clock = exit_time
                state.pc += 1
            else:  # pragma: no cover - op union is exhaustive
                raise TypeError(f"unknown op type {type(op).__name__}")
            progressed = True

        if not state.finished:
            state.finished = True
            progressed = True
        return progressed

    # -- MPI matching --------------------------------------------------------

    def _post_mpi(self, rank: int, enter: float, op: MpiOp) -> None:
        info = op.info
        posting = _Posting(rank=rank, enter=enter, info=info, name=op.name)
        if info.is_collective:
            self._post_collective(posting)
        elif info.op == "send":
            # Eager send: completes locally, but is registered so the matching
            # receive can compute when the data becomes available.
            self._completions[rank] = enter + self._machine.local_send_cost(info.nbytes)
            key = (rank, self._require_peer(posting), self._tag(info))
            self._pending_sends.setdefault(key, deque()).append(posting)
            self._match_p2p(key)
        elif info.op == "ssend":
            key = (rank, self._require_peer(posting), self._tag(info))
            self._pending_sends.setdefault(key, deque()).append(posting)
            self._match_p2p(key)
        elif info.op == "recv":
            key = (self._require_peer(posting), rank, self._tag(info))
            self._pending_recvs.setdefault(key, deque()).append(posting)
            self._match_p2p(key)
        elif info.op == "sendrecv":
            # The send half is eager (registered so the destination can match
            # it); the call blocks until the receive half has been satisfied.
            dest = self._require_peer(posting)
            source = info.source if info.source is not None else dest
            send_key = (rank, dest, self._tag(info))
            recv_key = (source, rank, self._tag(info))
            self._pending_sends.setdefault(send_key, deque()).append(posting)
            self._match_p2p(send_key)
            self._pending_recvs.setdefault(recv_key, deque()).append(posting)
            self._match_p2p(recv_key)
        else:  # pragma: no cover - MpiCallInfo validates op names
            raise ValueError(f"unknown MPI op {info.op!r}")

    @staticmethod
    def _tag(info: MpiCallInfo) -> int:
        return info.tag if info.tag is not None else 0

    @staticmethod
    def _require_peer(posting: _Posting) -> int:
        if posting.info.peer is None:
            raise ValueError(
                f"{posting.info.op} on rank {posting.rank} requires a peer rank"
            )
        return posting.info.peer

    def _post_collective(self, posting: _Posting) -> None:
        rank = posting.rank
        seq = self._coll_seq[rank]
        self._coll_seq[rank] += 1
        group = self._pending_coll.setdefault(seq, {})
        if group:
            reference = next(iter(group.values()))
            if reference.info.op != posting.info.op or reference.info.root != posting.info.root:
                raise DeadlockError(
                    f"collective mismatch at sequence {seq}: rank {reference.rank} called "
                    f"{reference.info.op} (root={reference.info.root}) but rank {rank} called "
                    f"{posting.info.op} (root={posting.info.root})"
                )
        group[rank] = posting
        if len(group) == self.program.nprocs:
            self._resolve_collective(group)
            del self._pending_coll[seq]

    def _resolve_collective(self, group: Dict[int, _Posting]) -> None:
        nprocs = self.program.nprocs
        postings = [group[r] for r in range(nprocs)]
        op = postings[0].info.op
        nbytes = max(p.info.nbytes for p in postings)
        cost = self._machine.collective_cost(nprocs, nbytes)
        last_enter = max(p.enter for p in postings)
        if op in ("barrier", "allreduce", "allgather", "alltoall"):
            for p in postings:
                self._completions[p.rank] = last_enter + cost
        elif op in ("bcast", "scatter"):
            root = postings[0].info.root
            root_enter = group[root].enter
            for p in postings:
                if p.rank == root:
                    self._completions[p.rank] = root_enter + cost
                else:
                    self._completions[p.rank] = max(p.enter, root_enter) + cost
        elif op in ("gather", "reduce"):
            root = postings[0].info.root
            for p in postings:
                if p.rank == root:
                    self._completions[p.rank] = last_enter + cost
                else:
                    self._completions[p.rank] = p.enter + self._machine.local_send_cost(
                        p.info.nbytes
                    )
        else:  # pragma: no cover - collective set is exhaustive
            raise ValueError(f"unknown collective {op!r}")

    def _match_p2p(self, key: Tuple[int, int, int]) -> None:
        sends = self._pending_sends.get(key)
        recvs = self._pending_recvs.get(key)
        while sends and recvs:
            send = sends.popleft()
            recv = recvs.popleft()
            nbytes = send.info.nbytes
            if send.info.op == "ssend":
                # Synchronous handshake: neither side proceeds before both arrived.
                rendezvous = max(send.enter, recv.enter)
                self._completions[send.rank] = rendezvous + self._machine.local_send_cost(nbytes)
                self._completions[recv.rank] = (
                    rendezvous + self._machine.transfer_time(nbytes) + self._machine.mpi_overhead
                )
            else:
                # Eager send: data is on the wire at send.enter; receiver waits
                # for it if it arrived at the receive first.
                data_ready = send.enter + self._machine.transfer_time(nbytes)
                self._completions[recv.rank] = (
                    max(recv.enter, data_ready) + self._machine.mpi_overhead
                )

def simulate(program: Program, config: SimulatorConfig | None = None) -> Trace:
    """Convenience wrapper: execute ``program`` and return its raw trace."""
    return SimulationEngine(program, config).run()
