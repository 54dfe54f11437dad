"""A reduced rank pickles as arrays: no representative object crosses the boundary.

Pool workers ship reduced ranks back to the parent and a checkpoint pickles
a session's reduced output, so what a pickled rank holds is what they pay
for.  The scan reads the classes a pickle names (``pickletools``) and
requires that no ``Segment``, ``Event`` or ``StoredSegment`` is among them.
"""

import pickle
import pickletools

import pytest

from repro.benchmarks_ats import late_sender
from repro.core.frames import RankFrame
from repro.core.metrics import create_metric
from repro.core.reducer import TraceReducer
from repro.service import ReductionSession, SessionConfig, session_state

OBJECTS = {"Segment", "Event", "StoredSegment"}
STRINGS = {"SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8", "UNICODE"}


def named_classes(data: bytes) -> set[tuple[str, str]]:
    """Every ``(module, name)`` a pickle looks up: its ``GLOBAL`` and ``STACK_GLOBAL`` opcodes."""
    memo, pushed, top, found = [], [], None, set()
    for opcode, arg, _ in pickletools.genops(data):
        name = opcode.name
        if name == "MEMOIZE":
            memo.append(top)
            continue
        if name in STRINGS:
            top = arg
        elif name in ("BINGET", "LONG_BINGET"):
            top = memo[arg]
        elif name == "STACK_GLOBAL":
            found.add((pushed[-2], pushed[-1]))
            top = None
        elif name == "GLOBAL":
            found.add(tuple(arg.split(" ", 1)))
            top = None
        else:
            top = None
        if top is not None:
            pushed.append(top)
    return found


@pytest.fixture(scope="module")
def trace():
    return late_sender(nprocs=4, iterations=8, seed=4).run().segmented()


@pytest.mark.parametrize("method", ["relDiff", "iter_avg"])
def test_a_reduce_result_pickles_no_object(trace, method):
    reduced = TraceReducer(create_metric(method)).reduce(trace)
    for rank in reduced.ranks:
        classes = {name for _, name in named_classes(pickle.dumps(rank))}
        assert not classes & OBJECTS, classes
        assert {"ReducedRankTrace", "RankFrame"} <= classes  # the scan sees the globals


@pytest.mark.parametrize("method", ["relDiff", "iter_avg"])
def test_a_session_state_pickles_no_object(trace, method):
    session = ReductionSession("t", SessionConfig(method))
    for rank in trace.ranks:  # two chunks a rank: a representative continued across them
        session.append(RankFrame.from_segments(rank.rank, rank.segments[:7]))
        session.append(RankFrame.from_segments(rank.rank, rank.segments[7:]))
    classes = {name for _, name in named_classes(session_state(session))}
    assert not classes & OBJECTS, classes
    assert {"ReducedRankTrace", "RankFrame"} <= classes
    # A store is an index of the rank's rows: a restore rebuilds it.
    assert not classes & {"CandidateList", "RepresentativeStore"}, classes
