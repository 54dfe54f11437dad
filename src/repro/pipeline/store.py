"""The pipeline's name for the reducer's representative store.

The store itself — one class, unbounded or LRU-bounded by ``capacity`` — and
its counters live in :mod:`repro.core.candidates`, next to the buckets they
fill; the pipeline (one per rank and config of a sweep) and the service
build one per rank through :func:`create_store`.
"""

from __future__ import annotations

from repro.core.candidates import RepresentativeStore, StoreCounters

__all__ = ["StoreCounters", "RepresentativeStore", "create_store"]

#: ``create_store(capacity=None)``: ``None`` means unbounded.
create_store = RepresentativeStore
