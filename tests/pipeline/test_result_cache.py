"""ResultCache basics: memoisation, namespaces, eviction, stats."""

import pytest

from repro.pipeline import ResultCache, content_key


class TestResultCache:
    def test_get_or_compute_memoises(self):
        cache = ResultCache()
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute("ns", "content", compute) == 42
        assert cache.get_or_compute("ns", "content", compute) == 42
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_namespaces_do_not_collide(self):
        cache = ResultCache()
        cache.get_or_compute("a", "x", lambda: 1)
        assert cache.get_or_compute("b", "x", lambda: 2) == 2

    def test_content_key_parts_are_length_prefixed(self):
        assert content_key("ns", "ab", "c") != content_key("ns", "a", "bc")

    def test_eviction_respects_max_entries(self):
        cache = ResultCache(max_entries=2)
        for i in range(5):
            cache.put(f"k{i}", i)
        assert len(cache) == 2

    def test_stats_shape(self):
        cache = ResultCache()
        cache.get_or_compute("ns", "x", lambda: 1)
        cache.get_or_compute("ns", "x", lambda: 1)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_clear_resets_counters(self):
        cache = ResultCache()
        cache.get_or_compute("ns", "x", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
