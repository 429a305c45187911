"""ResultCache under thread pressure: counts must stay exact.

The pre-observability cache bumped plain ints for hits/misses on paths
that released the entry lock first, so concurrent lookups could lose
increments.  Counters are now self-locking instruments; these tests
hammer the cache from many threads and require *exact* totals.
"""

import threading

from repro.obs import MetricRegistry, NullRegistry, Observability
from repro.pipeline import ResultCache


class TestThreadedCounts:
    def test_hits_plus_misses_equals_lookups_exactly(self):
        cache = ResultCache()
        n_threads, n_lookups = 16, 500
        barrier = threading.Barrier(n_threads)

        def hammer(thread_index):
            barrier.wait()
            for i in range(n_lookups):
                # Heavy key overlap across threads: plenty of both
                # hits and misses, racing on the same entries.
                cache.get_or_compute("stress", i % 50,
                                     lambda: thread_index)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = n_threads * n_lookups
        assert cache.hits + cache.misses == total
        # Every distinct key misses at least once; duplicates may
        # double-compute under a race, but never lose a count.
        assert 50 <= cache.misses <= total
        assert len(cache) == 50

    def test_stats_totals_match_counters(self):
        cache = ResultCache()
        for i in range(20):
            cache.get_or_compute("ns", i % 4, lambda: i)
        stats = cache.stats()
        assert stats["hits"] == cache.hits == 16
        assert stats["misses"] == cache.misses == 4
        assert stats["hits"] + stats["misses"] == 20
        assert stats["hit_rate"] == 16 / 20

    def test_get_counts_default_as_miss(self):
        cache = ResultCache()
        assert cache.get("absent", "fallback") == "fallback"
        assert cache.misses == 1
        cache.put("present", 1)
        assert cache.get("present") == 1
        assert cache.hits == 1

    def test_clear_resets_counters(self):
        cache = ResultCache()
        cache.get_or_compute("ns", "a", lambda: 1)
        cache.get_or_compute("ns", "a", lambda: 1)
        cache.clear()
        assert cache.hits == cache.misses == 0
        assert len(cache) == 0


class TestRegistryDelegation:
    def test_counters_live_in_the_shared_registry(self):
        registry = MetricRegistry()
        cache = ResultCache(name="syntax", registry=registry)
        cache.get_or_compute("ns", "x", lambda: 1)
        cache.get_or_compute("ns", "x", lambda: 1)
        assert registry.counters("cache.syntax.") == {
            "cache.syntax.hits": 1, "cache.syntax.misses": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_registry_counters_surface_in_run_report(self):
        obs = Observability()
        cache = ResultCache(name="eval", registry=obs.registry)
        cache.get_or_compute("ns", "x", lambda: 1)
        cache.get_or_compute("ns", "x", lambda: 1)
        cache.get_or_compute("ns", "y", lambda: 2)
        assert obs.run_report().cache_stats() == {
            "eval": {"hits": 1, "misses": 2}}

    def test_null_registry_falls_back_to_private_counters(self):
        # A noop registry would swallow the counts a run's trace
        # needs; the cache must keep counting privately.
        cache = ResultCache(name="c", registry=NullRegistry())
        cache.get_or_compute("ns", "x", lambda: 1)
        cache.get_or_compute("ns", "x", lambda: 1)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_bound_still_holds(self):
        cache = ResultCache(max_entries=3)
        for i in range(10):
            cache.put(str(i), i)
        assert len(cache) == 3
