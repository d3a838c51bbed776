"""Unit tests of the bounded LRU answer cache and its mask digest."""

import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

from repro.service.cache import CacheStats, LRUCache, mask_digest
from repro.utils.exceptions import ValidationError


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.inserts == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a → b becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_put_overwrites_and_refreshes(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_capacity_one_is_single_entry(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 1
        assert cache.get("a") is None
        assert cache.get("b") == 2

    def test_capacity_zero_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            LRUCache(-1)

    def test_peek_and_contains_do_not_count_or_refresh(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert "a" in cache
        assert cache.stats.queries == 0
        cache.put("c", 3)  # "a" stayed LRU despite the peek
        assert "a" not in cache

    def test_uncounted_get_still_refreshes(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a", count=False) == 1
        assert cache.get("z", count=False) is None
        assert cache.stats.queries == 0
        cache.put("c", 3)  # the uncounted hit made "b" the LRU entry
        assert "a" in cache and "b" not in cache

    def test_pop_and_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a", "gone") == "gone"
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_keys_in_lru_order(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")
        assert cache.keys() == ("b", "c", "a")

    def test_cached_none_still_counts_as_hit(self):
        # _MISSING sentinel: a stored None must not read as a miss.
        cache = LRUCache(2)
        cache.put("a", None)
        assert cache.get("a", "default") is None
        assert cache.stats.hits == 1


    def test_eviction_cannot_land_inside_a_lookup(self):
        # The service reads its answer cache on the event-loop thread
        # while the batch thread fills it.  Here the lookup itself lets a
        # second thread put a key that evicts the one being looked up.
        cache = LRUCache(1)
        cache.put("a", 1)
        racers = []

        class RacingEntries(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                if not racers:
                    racer = threading.Thread(target=cache.put, args=("b", 2))
                    racers.append(racer)
                    racer.start()
                    racer.join(timeout=0.1)  # the put waits for the lookup
                return value

        cache._entries = RacingEntries(cache._entries)
        assert cache.get("a") == 1
        racers[0].join(timeout=5.0)
        assert not racers[0].is_alive()
        assert cache.keys() == ("b",)
        assert cache.stats.hits == 1 and cache.stats.evictions == 1

    def test_concurrent_use_keeps_counters_exact(self):
        # More threads than cores on a 1 µs switch interval: a lookup torn
        # by an eviction raises, and a lost counter update breaks a sum.
        cache = LRUCache(2)
        keys = ("a", "b", "c")
        lookups = [0] * 4
        errors = []
        stop = time.monotonic() + 0.3

        def worker(slot):
            step = slot
            try:
                while time.monotonic() < stop:
                    cache.get(keys[step % 3])
                    cache.put(keys[(step + 1) % 3], step)
                    lookups[slot] += 1
                    step += 1
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.stats.hits + cache.stats.misses == sum(lookups)
        assert cache.stats.inserts == sum(lookups)
        assert len(cache) == 2


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.queries == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0

    def test_as_dict_round_trip(self):
        stats = CacheStats(hits=1, misses=2, evictions=3, inserts=4)
        d = stats.as_dict()
        assert d["hits"] == 1 and d["evictions"] == 3
        assert "hit_rate" in d


class TestKeyHelpers:
    def test_mask_digest_full_aliases_none(self):
        assert mask_digest(None) == "full"
        assert mask_digest(np.ones(5, dtype=bool)) == "full"

    def test_mask_digest_distinguishes_masks(self):
        a = np.array([True, False, True])
        b = np.array([True, True, False])
        assert mask_digest(a) != mask_digest(b)
        assert mask_digest(a) == mask_digest(a.copy())
