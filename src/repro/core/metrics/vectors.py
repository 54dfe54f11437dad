"""Measurement-vector layouts used by the distance methods.

The paper uses two slightly different vector layouts:

* the Minkowski distances compare the vector
  ``(segment end, e0.start, e0.end, e1.start, e1.end, ...)`` — the worked
  example in Section 3.2.1 builds ``(49, 1, 17, 18, 48)`` for a segment with
  two events and a relative end time of 49;
* the wavelet transforms compare the vector
  ``(0, e0.start, e0.end, ..., segment end)`` zero-padded to the next power of
  two (the leading element is the segment's relative start, which is always
  zero after normalisation).

Both are stated here one segment at a time (each metric family's
``build_vector``); the columnar core builds the same rows in bulk from
frame columns.
"""

from __future__ import annotations

import numpy as np

from repro.trace.segments import Segment

__all__ = ["minkowski_vector", "wavelet_vector", "next_power_of_two"]


def minkowski_vector(segment: Segment) -> np.ndarray:
    """Vector layout used by the Minkowski distances (segment end first).

    The leading element is the segment *duration* ``end - start``,
    unconditionally: branching on the truthiness of ``start`` (as an earlier
    revision did) silently treats ``start == 0.0`` differently from every
    other offset, which only coincidentally produced the same number.
    """
    values = [segment.end - segment.start]
    for event in segment.events:
        values.append(event.start)
        values.append(event.end)
    return np.asarray(values, dtype=float)


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def wavelet_vector(segment: Segment, *, pad: bool = True) -> np.ndarray:
    """Vector layout used by the wavelet transforms.

    Leading relative start (always 0 after normalisation), event start/end
    pairs, segment end; zero-padded to the next power of two when ``pad`` is
    True (the transforms require a power-of-two length).
    """
    values = [0.0]
    for event in segment.events:
        values.append(event.start)
        values.append(event.end)
    values.append(segment.end - segment.start)
    arr = np.asarray(values, dtype=float)
    if not pad:
        return arr
    target = next_power_of_two(arr.size)
    if target == arr.size:
        return arr
    padded = np.zeros(target, dtype=float)
    padded[: arr.size] = arr
    return padded
