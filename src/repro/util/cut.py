"""Cutting an ordered list of sized items into contiguous runs."""

from __future__ import annotations

from typing import Sequence

__all__ = ["cut_by_bytes"]


def cut_by_bytes(lengths: Sequence[int], n_batches: int) -> list[range]:
    """Cut ``len(lengths)`` items, in order, into runs of near-equal bytes.

    The bytes are divided into ``n_batches`` slots of ``target = ceil(total /
    n_batches)`` and an item goes with the slot its first byte falls in: the
    runs are contiguous, none is empty, there are at most ``n_batches``, and
    a run without its last item is shorter than the target — an item bigger
    than the target ends its run.  Lengths come from a file's footer:
    anything below one byte weighs one, so a damaged index still cuts (and
    fails where it is decoded).
    """
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    weights = [max(1, length) for length in lengths]
    target = -(-sum(weights) // n_batches)
    runs: list[range] = []
    start = slot = before = 0
    for at, weight in enumerate(weights):
        if before // target != slot:
            runs.append(range(start, at))
            start, slot = at, before // target
        before += weight
    if weights:
        runs.append(range(start, len(weights)))
    return runs
