"""Two store names the benchmark's layer replay (``bench/layers.py``) imports.

The store and its counters live in :mod:`repro.core.candidates`, next to the
buckets they fill; the rest of the package imports them from there.
"""

from __future__ import annotations

from repro.core.candidates import RepresentativeStore, StoreCounters

__all__ = ["StoreCounters", "create_store"]


def create_store(capacity: None = None) -> RepresentativeStore:
    """A fresh representative store; ``capacity`` must be None (it keeps everything)."""
    if capacity is not None:
        raise ValueError(f"a store keeps every representative, got capacity {capacity}")
    return RepresentativeStore()
