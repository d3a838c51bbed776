"""Bounded LRU answer cache with hit/miss/eviction accounting.

The serving layer answers many queries whose expensive part — generating
an RR collection, running a budgeted greedy, replaying realizations — is
a pure function of ``(graph version, residual state, frozen parameters,
query)``.  :class:`LRUCache` memoises those answers under a hard capacity
bound so a long-lived service cannot grow without limit, and exposes the
counters (:class:`CacheStats`) the ``/metrics`` endpoint and the load
generator report.

The same class replaces two older ad-hoc caches in
:mod:`repro.core.oracle`:

* the hand-rolled single-entry collection cache of ``RISSpreadOracle``
  (capacity 1 reproduces its hit semantics bit-for-bit), and
* the previously unbounded possible-world memo of ``ExactSpreadOracle``.

:func:`mask_digest` gives a residual activity mask the short, stable
name that cache keys carry.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, Optional, Tuple

import numpy as np

from repro.utils.exceptions import ValidationError

#: Marker distinguishing "key absent" from a cached ``None`` value.
_MISSING = object()


@dataclass
class CacheStats:
    """Live counters of one :class:`LRUCache` (mutated in place)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0

    @property
    def queries(self) -> int:
        """Total lookups seen (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.queries
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (what ``/metrics`` serialises)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "inserts": self.inserts,
            "hit_rate": self.hit_rate,
        }


@dataclass
class LRUCache:
    """A bounded least-recently-used mapping with usage counters.

    ``capacity`` is a hard bound on the number of entries; inserting into
    a full cache evicts the least recently *used* entry (both :meth:`get`
    hits and :meth:`put` overwrites refresh recency).  ``capacity=0``
    disables caching entirely: every lookup misses, every insert is
    dropped — callers never need a separate "cache off" branch.

    The implementation is a plain ``OrderedDict`` move-to-end scheme
    under one lock per cache, so every operation is atomic: the service
    reads its answer cache on the event-loop thread (the cache fast path)
    while the batch thread reads and fills it, and an eviction landing
    between a lookup and its recency refresh would otherwise raise
    ``KeyError``.
    """

    capacity: int
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.capacity = int(self.capacity)
        if self.capacity < 0:
            raise ValidationError(
                f"cache capacity must be >= 0, got {self.capacity}"
            )
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Non-counting, recency-neutral membership probe."""
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.keys())

    def get(self, key: Hashable, default: Any = None, count: bool = True) -> Any:
        """Lookup: a hit refreshes recency, a miss returns ``default``.

        ``count=False`` leaves the hit/miss counters alone, for a lookup
        whose query was already counted by an earlier one.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                if count:
                    self.stats.misses += 1
                return default
            if count:
                self.stats.hits += 1
            self._entries.move_to_end(key)
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Uncounted lookup that leaves recency untouched (introspection)."""
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when over capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self.stats.inserts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key`` (uncounted; ``default`` when absent)."""
        with self._lock:
            return self._entries.pop(key, default)

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def keys(self) -> Tuple[Hashable, ...]:
        """Current keys, least recently used first."""
        with self._lock:
            return tuple(self._entries.keys())


# --------------------------------------------------------------------- #
# key building
# --------------------------------------------------------------------- #


def mask_digest(active_mask: Optional[np.ndarray]) -> str:
    """Short stable digest of a residual activity mask.

    ``None`` (no residual restriction — the all-active base graph) maps to
    the distinguished digest ``"full"`` so fully-active views and missing
    masks share cache entries.  Anything else hashes the mask's bytes with
    BLAKE2b; 16 hex chars keep keys compact while collisions stay
    negligible for cache purposes.
    """
    if active_mask is None:
        return "full"
    mask = np.ascontiguousarray(np.asarray(active_mask, dtype=bool))
    if bool(mask.all()):
        return "full"
    return hashlib.blake2b(mask.tobytes(), digest_size=8).hexdigest()
