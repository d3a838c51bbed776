"""Long-lived seeding service: warm state, request batching, answer cache.

This package is the serving layer over the batch engine: load a graph
once, keep RR collections / pools / realization streams warm, and answer
concurrent queries through an asyncio JSON-over-HTTP API.

* :mod:`repro.service.cache` — bounded LRU answer cache with counters.
* :mod:`repro.service.state` — :class:`ServiceState`: registered graphs,
  warm collections, deterministic per-state RNG streams.
* :mod:`repro.service.batcher` — :class:`RequestBatcher`: coalesces
  concurrent queries into fused batch evaluations.
* :mod:`repro.service.api` — :class:`SeedingServer`: the stdlib-only
  asyncio HTTP server with graceful, idempotent shutdown.
* :mod:`repro.service.loadgen` — open/closed-loop load generator
  recording p50/p99 latency and queries/sec.

Only the dependency-free cache module is imported eagerly; everything
else loads lazily so :mod:`repro.core.oracle` can import the LRU cache
without dragging the whole serving stack (and a circular import) in.
"""

from __future__ import annotations

from repro.service.cache import CacheStats, LRUCache, mask_digest

__all__ = [
    "CacheStats",
    "LRUCache",
    "mask_digest",
    "ServiceState",
    "RequestBatcher",
    "SeedingServer",
]

_LAZY = {
    "ServiceState": ("repro.service.state", "ServiceState"),
    "RequestBatcher": ("repro.service.batcher", "RequestBatcher"),
    "SeedingServer": ("repro.service.api", "SeedingServer"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
