"""Shared fixtures: the paper's worked example segments and small workloads."""

from __future__ import annotations

import pytest

from repro.benchmarks_ats import dyn_load_balance, late_sender
from repro.trace.events import Event, MpiCallInfo
from repro.trace.segments import Segment


def stored_view(reduced) -> list[tuple[int, Segment, int]]:
    """A reduced rank's representatives as ``(id, normalised segment, count)``:
    what the scalar reference stores, for comparing two reductions."""
    return list(zip(range(reduced.n_stored), reduced.segments(), reduced.counts.tolist()))


def make_event(
    name: str,
    start: float,
    end: float,
    *,
    rank: int = 0,
    mpi: MpiCallInfo | None = None,
) -> Event:
    """Convenience constructor used throughout the tests."""
    return Event(name=name, start=start, end=end, rank=rank, mpi=mpi)


def make_segment(
    context: str,
    events: list[tuple[str, float, float]],
    *,
    start: float = 0.0,
    end: float | None = None,
    rank: int = 0,
    index: int = 0,
    mpi_for: dict[str, MpiCallInfo] | None = None,
) -> Segment:
    """Build a segment from (name, start, end) triples."""
    mpi_for = mpi_for or {}
    evs = [
        make_event(name, s, e, rank=rank, mpi=mpi_for.get(name)) for name, s, e in events
    ]
    seg_end = end if end is not None else (max(e for _, _, e in events) + 1 if events else start)
    return Segment(context=context, rank=rank, start=start, end=seg_end, events=evs, index=index)


ALLGATHER = MpiCallInfo(op="allgather", nbytes=1024)


def _paper_segment(index: int, do_work: tuple[float, float], allgather: tuple[float, float], end: float) -> Segment:
    """One of the main.1 segments of Figure 2 (timestamps relative to segment start)."""
    return make_segment(
        "main.1",
        [("do_work", *do_work), ("MPI_Allgather", *allgather)],
        start=0.0,
        end=end,
        index=index,
        mpi_for={"MPI_Allgather": ALLGATHER},
    )


@pytest.fixture
def paper_segments() -> dict[str, Segment]:
    """The three segments of the paper's Figure 2 worked example.

    Measurement vectors (segment end, event start/end pairs):
    s0 = (50, 1, 20, 21, 49), s1 = (51, 1, 40, 41, 50), s2 = (49, 1, 17, 18, 48).
    """
    return {
        "s0": _paper_segment(0, (1.0, 20.0), (21.0, 49.0), 50.0),
        "s1": _paper_segment(1, (1.0, 40.0), (41.0, 50.0), 51.0),
        "s2": _paper_segment(2, (1.0, 17.0), (18.0, 48.0), 49.0),
    }


@pytest.fixture(scope="session")
def small_late_sender_trace():
    """A tiny late_sender workload's segmented trace (session-cached)."""
    return late_sender(nprocs=4, iterations=6, seed=3).run_segmented()


@pytest.fixture(scope="session")
def small_late_sender_prepared():
    """The same workload prepared for evaluation: frames, full size, diagnosis (session-cached)."""
    from repro.evaluation.runner import PreparedWorkload

    return PreparedWorkload.from_workload(late_sender(nprocs=4, iterations=6, seed=3))


@pytest.fixture(scope="session")
def small_dynlb_trace():
    """A tiny dyn_load_balance workload's segmented trace (session-cached)."""
    return dyn_load_balance(nprocs=4, iterations=12, rebalance_period=4, seed=5).run_segmented()
