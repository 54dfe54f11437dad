"""Tests for the SPMD program model and builder."""

import pytest

from repro.simulator.program import (
    Compute,
    MpiOp,
    Program,
    RankProgramBuilder,
    SegmentBegin,
    SegmentEnd,
    build_program,
)


class TestOps:
    def test_compute_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Compute(name="w", duration=-1.0)

    def test_program_validates_rank_count(self):
        with pytest.raises(ValueError):
            Program(name="p", nprocs=2, rank_ops=[[]])

    def test_program_num_ops(self):
        program = Program(name="p", nprocs=1, rank_ops=[[Compute("w", 1.0)]])
        assert program.num_ops == 1

    def test_ops_for_checks_rank(self):
        program = Program(name="p", nprocs=1, rank_ops=[[]])
        with pytest.raises(ValueError):
            program.ops_for(1)


class TestBuilderSegments:
    def test_segment_context_manager(self):
        b = RankProgramBuilder(0, 2)
        with b.segment("init"):
            b.compute("w", 1.0)
        ops = b.finish()
        assert isinstance(ops[0], SegmentBegin) and ops[0].context == "init"
        assert isinstance(ops[-1], SegmentEnd) and ops[-1].context == "init"

    def test_nested_segments_rejected(self):
        b = RankProgramBuilder(0, 2)
        b.begin_segment("a")
        with pytest.raises(ValueError, match="nest"):
            b.begin_segment("b")

    def test_mismatched_end_rejected(self):
        b = RankProgramBuilder(0, 2)
        b.begin_segment("a")
        with pytest.raises(ValueError):
            b.end_segment("b")

    def test_unclosed_segment_rejected_at_finish(self):
        b = RankProgramBuilder(0, 2)
        b.begin_segment("a")
        with pytest.raises(ValueError, match="still open"):
            b.finish()

    def test_loop_wraps_each_iteration(self):
        b = RankProgramBuilder(0, 2)
        for i in b.loop("main.1", 3):
            b.compute("w", float(i))
        ops = b.finish()
        begins = [op for op in ops if isinstance(op, SegmentBegin)]
        ends = [op for op in ops if isinstance(op, SegmentEnd)]
        assert len(begins) == len(ends) == 3
        assert all(op.context == "main.1" for op in begins)

    def test_loop_zero_iterations(self):
        b = RankProgramBuilder(0, 2)
        for _ in b.loop("main.1", 0):
            pytest.fail("loop body should not run")
        assert b.finish() == []

    def test_loop_negative_rejected(self):
        b = RankProgramBuilder(0, 2)
        with pytest.raises(ValueError):
            list(b.loop("main.1", -1))


class TestBuilderMpi:
    def test_default_function_names(self):
        b = RankProgramBuilder(0, 4)
        with b.segment("s"):
            b.send(1)
            b.recv(1)
            b.barrier()
            b.alltoall()
        names = [op.name for op in b.finish() if isinstance(op, MpiOp)]
        assert names == ["MPI_Send", "MPI_Recv", "MPI_Barrier", "MPI_Alltoall"]

    def test_name_override(self):
        b = RankProgramBuilder(0, 4)
        with b.segment("s"):
            b.recv(1, name="pmpi_recv")
        op = [op for op in b.finish() if isinstance(op, MpiOp)][0]
        assert op.name == "pmpi_recv"
        assert op.info.op == "recv"

    def test_peer_validation(self):
        b = RankProgramBuilder(0, 4)
        with pytest.raises(ValueError):
            b.send(4)

    def test_root_validation(self):
        b = RankProgramBuilder(0, 4)
        with pytest.raises(ValueError):
            b.bcast(7)

    def test_mpi_init_finalize_are_barriers(self):
        b = RankProgramBuilder(0, 2)
        with b.segment("init"):
            b.mpi_init()
        with b.segment("final"):
            b.mpi_finalize()
        mpi_ops = [op for op in b.finish() if isinstance(op, MpiOp)]
        assert [op.name for op in mpi_ops] == ["MPI_Init", "MPI_Finalize"]
        assert all(op.info.op == "barrier" for op in mpi_ops)

    def test_one_op_object_per_distinct_call(self):
        b = RankProgramBuilder(0, 4)
        for _ in b.loop("main", 3):
            b.send(1, tag=2)
            b.send(1, tag=3)
            b.send(1, tag=2, name="pmpi_send")
            b.barrier()
        ops = [op for op in b.finish() if isinstance(op, MpiOp)]
        assert len({id(op) for op in ops}) == len({id(op.info) for op in ops}) == 4
        assert ops[:4] == ops[4:8] == ops[8:]
        assert [op.name for op in ops[:3]] == ["MPI_Send", "MPI_Send", "pmpi_send"]
        assert [op.info.tag for op in ops[:3]] == [2, 3, 2]


class TestBuildProgram:
    def test_builds_all_ranks(self):
        def body(b, rank):
            with b.segment("s"):
                b.compute("w", float(rank))

        program = build_program("p", 3, body)
        assert program.nprocs == 3
        durations = [
            op.duration for ops in program.rank_ops for op in ops if isinstance(op, Compute)
        ]
        assert durations == [0.0, 1.0, 2.0]

    def test_body_error_propagates(self):
        def body(b, rank):
            b.begin_segment("s")  # never closed

        with pytest.raises(ValueError):
            build_program("p", 2, body)
