"""Tests for the discrete-event engine and its MPI blocking semantics."""

import pytest

from repro.simulator.engine import DeadlockError, SimulationEngine, SimulatorConfig, simulate
from repro.simulator.machine import MachineModel
from repro.simulator.noise import NoiseSource, PeriodicNoise
from repro.simulator.program import build_program
from repro.trace.records import RecordKind


def _events_by_rank(trace):
    segmented = trace.segmented()
    return {r.rank: list(r.events()) for r in segmented.ranks}


def _event(events, name, occurrence=0):
    found = [e for e in events if e.name == name]
    return found[occurrence]


def _config(**kwargs):
    kwargs.setdefault("start_skew", 0.0)
    return SimulatorConfig(**kwargs)


def _run(nprocs, body, **config_kwargs):
    program = build_program("test", nprocs, body)
    return simulate(program, _config(**config_kwargs))


class TestBasicExecution:
    def test_compute_duration_recorded(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("work", 123.0)

        events = _events_by_rank(_run(1, body))
        work = _event(events[0], "work")
        assert work.duration == pytest.approx(123.0)

    def test_records_well_formed(self):
        def body(b, rank):
            with b.segment("init"):
                b.mpi_init()
            for _ in b.loop("main.1", 2):
                b.compute("w", 10.0)
                b.barrier()

        trace = _run(2, body)
        for rank_trace in trace.ranks:
            kinds = [r.kind for r in rank_trace.records]
            assert kinds.count(RecordKind.ENTER) == kinds.count(RecordKind.EXIT)
            assert kinds.count(RecordKind.SEGMENT_BEGIN) == kinds.count(RecordKind.SEGMENT_END)
            times = [r.timestamp for r in rank_trace.records]
            assert times == sorted(times), "rank-local clock must be monotonic"

    def test_deterministic_given_seed(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 10.0)
                b.barrier()

        program = build_program("test", 2, body)
        t1 = simulate(program, SimulatorConfig(seed=5))
        t2 = simulate(program, SimulatorConfig(seed=5))
        ts1 = [r.timestamp for rank in t1.ranks for r in rank.records]
        ts2 = [r.timestamp for rank in t2.ranks for r in rank.records]
        assert ts1 == ts2

    def test_start_skew_bounded(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 1.0)

        trace = simulate(build_program("t", 4, body), SimulatorConfig(start_skew=25.0, seed=1))
        starts = [rank.records[0].timestamp for rank in trace.ranks]
        assert all(0.0 <= s <= 25.0 for s in starts)
        assert len(set(starts)) > 1

    def test_empty_program(self):
        trace = _run(2, lambda b, rank: None)
        assert trace.nprocs == 2
        assert trace.num_records == 0


class TestPointToPoint:
    def test_late_sender_makes_receiver_wait(self):
        def body(b, rank):
            with b.segment("s"):
                if rank == 0:
                    b.compute("w", 500.0)
                    b.send(1)
                else:
                    b.compute("w", 100.0)
                    b.recv(0)

        events = _events_by_rank(_run(2, body))
        recv = _event(events[1], "MPI_Recv")
        send = _event(events[0], "MPI_Send")
        # receiver entered at ~100 and cannot leave before the send at ~500
        assert recv.start == pytest.approx(100.0, abs=1.0)
        assert recv.end > send.start
        assert recv.duration > 350.0

    def test_early_sender_receiver_does_not_wait(self):
        def body(b, rank):
            with b.segment("s"):
                if rank == 0:
                    b.compute("w", 10.0)
                    b.send(1)
                else:
                    b.compute("w", 500.0)
                    b.recv(0)

        events = _events_by_rank(_run(2, body))
        recv = _event(events[1], "MPI_Recv")
        assert recv.duration < 50.0

    def test_standard_send_does_not_block(self):
        def body(b, rank):
            with b.segment("s"):
                if rank == 0:
                    b.send(1)
                    b.compute("after_send", 1.0)
                else:
                    b.compute("w", 1000.0)
                    b.recv(0)

        events = _events_by_rank(_run(2, body))
        send = _event(events[0], "MPI_Send")
        assert send.duration < 50.0, "eager send completes locally"

    def test_ssend_blocks_until_receiver_arrives(self):
        def body(b, rank):
            with b.segment("s"):
                if rank == 0:
                    b.compute("w", 100.0)
                    b.ssend(1)
                else:
                    b.compute("w", 600.0)
                    b.recv(0)

        events = _events_by_rank(_run(2, body))
        ssend = _event(events[0], "MPI_Ssend")
        recv = _event(events[1], "MPI_Recv")
        assert ssend.end >= recv.start
        assert ssend.duration > 400.0

    def test_message_order_preserved_per_tag(self):
        def body(b, rank):
            with b.segment("s"):
                if rank == 0:
                    b.compute("w", 10.0)
                    b.send(1, tag=5)
                    b.compute("w", 10.0)
                    b.send(1, tag=5)
                else:
                    b.recv(0, tag=5)
                    b.recv(0, tag=5)

        events = _events_by_rank(_run(2, body))
        recvs = [e for e in events[1] if e.name == "MPI_Recv"]
        assert recvs[0].end <= recvs[1].end

    def test_sendrecv_synchronises_pair(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 100.0 if rank == 0 else 400.0)
                b.sendrecv(1 - rank)

        events = _events_by_rank(_run(2, body))
        a = _event(events[0], "MPI_Sendrecv")
        b_ = _event(events[1], "MPI_Sendrecv")
        # both calls finish shortly after the late rank arrived
        assert a.end == pytest.approx(b_.end, abs=50.0)
        assert a.duration > 250.0  # rank 0 waited for rank 1
        assert b_.duration < 100.0  # rank 1 found its message already waiting

    def test_sendrecv_ring_shift_does_not_deadlock(self):
        """A ring halo exchange (send right, receive from left) must progress —
        the send half is eager, so no cyclic blocking occurs."""
        nprocs = 4

        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 50.0 * (rank + 1))
                b.sendrecv((rank + 1) % nprocs, source=(rank - 1) % nprocs)

        events = _events_by_rank(_run(nprocs, body))
        for rank in range(nprocs):
            assert _event(events[rank], "MPI_Sendrecv").duration >= 0.0

    def test_deadlock_detected(self):
        def body(b, rank):
            with b.segment("s"):
                b.recv(1 - rank)

        with pytest.raises(DeadlockError):
            _run(2, body)

    def test_deadlock_names_each_blocked_rank_and_its_op(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 5.0)
                b.recv(1 - rank)

        blocked = "rank 0 at op 2 (MPI_Recv[recv]); rank 1 at op 2 (MPI_Recv[recv])"
        with pytest.raises(DeadlockError) as raised:
            _run(2, body)
        assert str(raised.value) == f"no rank can make progress; blocked ranks: {blocked}"


class TestCollectives:
    def test_barrier_everyone_leaves_after_last_arrival(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 100.0 * (rank + 1))
                b.barrier()

        events = _events_by_rank(_run(4, body))
        exits = [ _event(events[r], "MPI_Barrier").end for r in range(4) ]
        enters = [ _event(events[r], "MPI_Barrier").start for r in range(4) ]
        assert max(enters) == pytest.approx(400.0, abs=1.0)
        assert all(e == pytest.approx(exits[0], abs=1e-6) for e in exits)
        assert exits[0] > max(enters)

    def test_bcast_receivers_wait_for_root(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 500.0 if rank == 0 else 50.0)
                b.bcast(0)

        events = _events_by_rank(_run(4, body))
        root = _event(events[0], "MPI_Bcast")
        other = _event(events[2], "MPI_Bcast")
        assert other.duration > 400.0
        assert root.duration < 100.0

    def test_bcast_root_does_not_wait_for_receivers(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 50.0 if rank == 0 else 500.0)
                b.bcast(0)

        events = _events_by_rank(_run(4, body))
        root = _event(events[0], "MPI_Bcast")
        assert root.duration < 100.0

    def test_gather_root_waits_for_last_sender(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 50.0 if rank == 0 else 500.0)
                b.gather(0)

        events = _events_by_rank(_run(4, body))
        root = _event(events[0], "MPI_Gather")
        sender = _event(events[3], "MPI_Gather")
        assert root.duration > 400.0
        assert sender.duration < 100.0

    def test_reduce_non_root_leaves_quickly(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 50.0 if rank == 1 else 300.0)
                b.reduce(1)

        events = _events_by_rank(_run(4, body))
        assert _event(events[1], "MPI_Reduce").duration > 200.0
        assert _event(events[0], "MPI_Reduce").duration < 100.0

    def test_alltoall_waits_for_last(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 100.0 * (rank + 1))
                b.alltoall()

        events = _events_by_rank(_run(3, body))
        fastest = _event(events[0], "MPI_Alltoall")
        slowest = _event(events[2], "MPI_Alltoall")
        assert fastest.duration > slowest.duration

    def test_collective_mismatch_raises(self):
        def body(b, rank):
            with b.segment("s"):
                if rank == 0:
                    b.barrier()
                else:
                    b.bcast(1)

        with pytest.raises(DeadlockError, match="mismatch"):
            _run(2, body)

    def test_mismatch_message_names_both_calls(self):
        def body(b, rank):
            with b.segment("s"):
                if rank:
                    b.barrier()
                else:
                    b.bcast(0)

        with pytest.raises(DeadlockError) as raised:
            _run(2, body)
        assert str(raised.value) == (
            "collective mismatch at sequence 0: rank 0 called bcast (root=0) "
            "but rank 1 called barrier (root=None)"
        )

    def test_root_mismatch_raises(self):
        def body(b, rank):
            with b.segment("s"):
                b.bcast(rank)  # every rank names a different root

        with pytest.raises(DeadlockError, match="mismatch"):
            _run(2, body)


class TestNoiseInteraction:
    def test_noise_inflates_compute(self):
        noise = PeriodicNoise([[NoiseSource(period=50.0, duration=10.0, phase=0.0)]])

        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 200.0)

        quiet = _events_by_rank(_run(1, body))
        noisy = _events_by_rank(_run(1, body, noise=noise))
        assert _event(noisy[0], "w").duration > _event(quiet[0], "w").duration

    def test_noise_does_not_affect_other_ranks(self):
        noise = PeriodicNoise([[NoiseSource(50.0, 10.0)], []])

        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 200.0)

        events = _events_by_rank(_run(2, body, noise=noise))
        assert _event(events[1], "w").duration == pytest.approx(200.0)
        assert _event(events[0], "w").duration > 200.0


class TestEngineReuse:
    def test_engine_run_returns_trace_named_after_program(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", 1.0)

        program = build_program("my_program", 1, body)
        trace = SimulationEngine(program, _config()).run()
        assert trace.name == "my_program"
