"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.trace.segments import Segment

from tests.conftest import make_segment

#: Durations in µs, kept well-conditioned (no NaN/inf, bounded magnitude).
durations = st.floats(min_value=0.5, max_value=50_000.0, allow_nan=False, allow_infinity=False)

#: Power-of-two sized float vectors for wavelet transforms.
pow2_vectors = st.integers(min_value=0, max_value=5).flatmap(
    lambda k: st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32),
        min_size=2**k,
        max_size=2**k,
    )
)


@st.composite
def iteration_segments(draw, min_segments=1, max_segments=12, n_events=2):
    """Structurally identical segments with varying measurements.

    Models repeated executions of one loop body: every segment has the same
    context and the same event names, but event durations differ.
    """
    count = draw(st.integers(min_value=min_segments, max_value=max_segments))
    segments: list[Segment] = []
    clock = 0.0
    for index in range(count):
        start = clock
        t = 0.0
        events = []
        for e in range(n_events):
            gap = draw(durations)
            length = draw(durations)
            events.append((f"f{e}", t + gap, t + gap + length))
            t += gap + length
        end = t + draw(durations)
        segments.append(
            make_segment("main.1", events, start=0.0, end=end, index=index).shifted(start)
        )
        clock += end + draw(durations)
    return segments


#: Stretch factors of :func:`interleaved_segments`: exact repeats (match even
#: at threshold 0), near repeats (match at strict thresholds) and far ones.
_STRETCH = (1.0, 1.0, 1.0, 1.001, 1.3, 4.0, 60.0)


@st.composite
def interleaved_segments(draw, min_segments=1, max_segments=14):
    """Segments of up to three structures, interleaved in drawn order.

    Structure ``k`` has ``k`` events (``k = 0`` is the empty segment), so the
    keys differ in feature width as well as in name; each segment stretches
    its structure's base timings by one of a few factors, so a rank has
    repeats, near misses and strangers under every key.  What the reducer
    does with one key then shows in the ids it hands out under the others.
    """
    count = draw(st.integers(min_value=min_segments, max_value=max_segments))
    segments: list[Segment] = []
    clock = 0.0
    for index in range(count):
        k = draw(st.integers(min_value=0, max_value=2))
        stretch = draw(st.sampled_from(_STRETCH))
        t = 0.0
        events = []
        for e in range(k):
            t += 8.0 * (e + 1) * stretch
            events.append((f"f{e}", t, t + 40.0 * (k + e) * stretch))
            t += 40.0 * (k + e) * stretch
        end = t + 16.0 * stretch
        segments.append(
            make_segment(f"loop.{k}", events, start=0.0, end=end, index=index).shifted(clock)
        )
        # A whole-number clock keeps the unstretched repeats bit-exact after
        # the reducer subtracts it again.
        clock += math.ceil(end) + 5.0
    return segments
