"""ResultCache tiers: true LRU memory, length-prefixed keys, disk spill.

Pins the two bug fixes in the memory tier — eviction is LRU (a ``get``
refreshes recency; the old code evicted in pure insertion order) and
``content_key`` length-prefixes the namespace (the old concatenation
let a namespace/part boundary shift collide) — plus the contract of the
optional persistent tier: memory misses probe the disk, hits promote,
puts write through, and the disk counters surface in shared registries.
"""

from repro.obs import MetricRegistry, Observability
from repro.pipeline import DiskCache, ResultCache, content_key


class TestMemoryLRU:
    def test_get_refreshes_recency(self):
        """The fixed behaviour: a read keeps an entry alive.  Under the
        old FIFO eviction ``a`` would be evicted here despite being the
        hottest entry."""
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.get("b", "evicted") == "evicted"

    def test_repeated_insert_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b", "evicted") == "evicted"


class TestContentKey:
    def test_namespace_boundary_cannot_collide(self):
        """The old scheme hashed ``namespace + encoded(parts)`` with no
        framing, so moving bytes across the namespace/part boundary
        produced the same digest.  Length prefixes make the boundary
        part of the hash."""
        assert content_key("ab") != content_key("a", "b")
        assert content_key("ns", "ab") != content_key("nsa", "b")
        assert content_key("ns", "a", "b") != content_key("ns", "ab")

    def test_length_prefix_bytes_cannot_alias(self):
        # A part that *looks like* another part's length prefix plus
        # payload must still hash differently.
        part = b"x" * 3
        framed = len(part).to_bytes(8, "little") + part
        assert content_key("ns", part) != content_key("ns", framed)

    def test_str_and_bytes_parts_supported(self):
        assert content_key("ns", "text") == content_key("ns", "text")
        assert content_key("ns", b"raw") == content_key("ns", b"raw")
        assert content_key("ns", 42) == content_key("ns", 42)

    def test_distinct_namespaces_do_not_share_keys(self):
        assert content_key("syntax", "code") != content_key("rank", "code")


class TestDiskTier:
    def test_memory_miss_probes_disk_and_promotes(self, tmp_path):
        disk = DiskCache(tmp_path)
        warm = ResultCache(disk=disk)
        warm.put("k", "value")
        # A fresh memory tier over the same directory: the first get is
        # served from disk and promoted, the second from memory.
        cold = ResultCache(disk=DiskCache(tmp_path))
        assert cold.get("k") == "value"
        assert "k" in cold  # promoted into the memory tier
        assert cold.stats()["disk"]["hits"] == 1
        assert cold.get("k") == "value"
        assert cold.stats()["disk"]["hits"] == 1  # no second probe

    def test_disk_hit_counts_as_overall_hit(self, tmp_path):
        ResultCache(disk=DiskCache(tmp_path)).put("k", 1)
        rerun = ResultCache(disk=DiskCache(tmp_path))
        assert rerun.get("k") == 1
        assert rerun.hits == 1 and rerun.misses == 0

    def test_true_miss_counts_both_tiers(self, tmp_path):
        cache = ResultCache(disk=DiskCache(tmp_path))
        assert cache.get("absent", "fallback") == "fallback"
        assert cache.misses == 1
        assert cache.stats()["disk"]["misses"] == 1

    def test_corrupt_entry_recomputed_never_served(self, tmp_path):
        first = ResultCache(disk=DiskCache(tmp_path))
        key = content_key("ns", "module m; endmodule")
        first.put(key, "clean")
        path = first.disk.path_for(key)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x40
        path.write_bytes(bytes(raw))
        rerun = ResultCache(disk=DiskCache(tmp_path))
        calls = []

        def compute():
            calls.append(1)
            return "recomputed"

        assert rerun.get_or_compute("ns", "module m; endmodule",
                                    compute) == "recomputed"
        assert calls == [1]
        assert rerun.stats()["disk"]["corrupt"] == 1
        # The recomputed value was written through and is healthy again.
        third = ResultCache(disk=DiskCache(tmp_path))
        assert third.get(key) == "recomputed"

    def test_eviction_counter_reports_sweeps(self, tmp_path):
        cache = ResultCache(
            disk=DiskCache(tmp_path, max_entries=2))
        for i in range(5):
            cache.put(f"k{i}", i)
        assert cache.stats()["disk"]["evictions"] == 3
        assert len(cache.disk) == 2

    def test_clear_keeps_the_disk_tier(self, tmp_path):
        cache = ResultCache(disk=DiskCache(tmp_path))
        cache.put("k", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") == 1  # served from disk, re-promoted

    def test_sync_disk_is_safe_with_and_without_tier(self, tmp_path):
        ResultCache().sync_disk()  # no disk: a no-op
        cache = ResultCache(disk=DiskCache(tmp_path))
        cache.put("k", 1)
        cache.sync_disk()


class TestRegistryIntegration:
    def test_disk_counters_live_in_shared_registry(self, tmp_path):
        registry = MetricRegistry()
        seed = ResultCache(name="curation", registry=MetricRegistry(),
                           disk=DiskCache(tmp_path))
        seed.put("k", 1)
        cache = ResultCache(name="curation", registry=registry,
                            disk=DiskCache(tmp_path))
        cache.get("k")
        cache.get("absent")
        assert registry.counters("cache.curation.disk.") == {
            "cache.curation.disk.hits": 1,
            "cache.curation.disk.misses": 1,
            "cache.curation.disk.corrupt": 0,
            "cache.curation.disk.evictions": 0,
        }

    def test_diskless_cache_adds_no_disk_counter_names(self):
        """Existing golden run reports must not grow counter rows just
        because the disk tier exists as a feature."""
        registry = MetricRegistry()
        cache = ResultCache(name="syntax", registry=registry)
        cache.get("x")
        assert all(".disk." not in name
                   for name in registry.counters("cache."))

    def test_disk_counters_surface_in_run_report(self, tmp_path):
        obs = Observability()
        seed = ResultCache(disk=DiskCache(tmp_path))
        seed.put("k", "v")
        cache = ResultCache(name="curation", registry=obs.registry,
                            disk=DiskCache(tmp_path))
        cache.get("k")
        counters = obs.run_report().metrics["counters"]
        assert counters["cache.curation.disk.hits"] == 1
        assert counters["cache.curation.hits"] == 1
