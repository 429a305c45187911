"""Content-hash result cache for expensive pure per-file work.

Curation and evaluation both repeat expensive pure computations on
identical inputs: the syntax check and ranking judge see duplicate
files, and pass@k sampling regenerates the same completion many times.
:class:`ResultCache` memoises any pure ``content -> result`` function
under a (namespace, blake2b(content)) key, so one cache instance can be
shared across stages — and across whole runs — without collisions.

Two tiers.  The memory tier is a true LRU ``OrderedDict`` (lookups
refresh recency, so under ``max_entries`` pressure hot entries survive
and stale ones go).  Optionally a :class:`~repro.pipeline.diskcache
.DiskCache` spill tier persists entries across processes: a memory miss
probes the disk, promotes hits back into memory, and every ``put``
writes through — which is what lets a re-run over an unchanged corpus
skip recomputation entirely.

The cache is thread-safe (stages may compute from a thread pool).  Hit
and miss counters are :class:`~repro.obs.registry.Counter` instruments
— each locks its own updates, so the counts stay consistent even on
paths that touch them outside the entry lock — and can live in a shared
:class:`~repro.obs.registry.MetricRegistry` (``cache.<name>.hits`` /
``cache.<name>.misses``, plus ``cache.<name>.disk.{hits,misses,corrupt,
evictions}`` when a disk tier is attached) so every cache in a run
reports into the same :class:`~repro.obs.RunReport`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from ..obs.registry import Counter, MetricRegistry, NullRegistry
from .diskcache import CORRUPT, HIT, DiskCache


def content_key(namespace: str, *parts: Any) -> str:
    """A stable key for ``parts`` under ``namespace``.

    Strings hash by their UTF-8 bytes; everything else by ``repr``.
    The namespace and every part are length-prefixed, so neither
    ``("ab", "c")`` / ``("a", "bc")`` nor a namespace that happens to
    end with another key's encoded first part can collide.
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in (namespace,) + parts:
        if isinstance(part, str):
            raw = part.encode("utf-8", "replace")
        elif isinstance(part, bytes):
            raw = part
        else:
            raw = repr(part).encode("utf-8", "replace")
        digest.update(len(raw).to_bytes(8, "little"))
        digest.update(raw)
    return digest.hexdigest()


class ResultCache:
    """Memoisation keyed on content hashes.

    Args:
        max_entries: evict the *least recently used* entries beyond
            this count (``None`` keeps everything — fine for in-process
            runs at our scale).
        name: cache name used in metric names (``cache.<name>.hits``).
        registry: optional shared :class:`MetricRegistry` to own the
            hit/miss counters; private counters otherwise.
        disk: optional persistent spill tier (:class:`DiskCache`).
            Probed on memory misses, written through on every ``put``;
            corrupted or stale entries are discarded and recomputed,
            never served.
    """

    def __init__(self, max_entries: Optional[int] = None,
                 name: str = "default",
                 registry: Optional[MetricRegistry] = None,
                 disk: Optional[DiskCache] = None) -> None:
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.name = name
        self.disk = disk
        if registry is not None and not isinstance(registry, NullRegistry):
            make = registry.counter
        else:
            # A null registry would swallow the counts a run's trace
            # relies on — fall back to private counters.
            make = Counter
        self._hits = make(f"cache.{name}.hits")
        self._misses = make(f"cache.{name}.misses")
        if disk is not None:
            # Created only alongside a disk tier so disk-less caches
            # add no counter names to existing run reports.
            self._disk_hits = make(f"cache.{name}.disk.hits")
            self._disk_misses = make(f"cache.{name}.disk.misses")
            self._disk_corrupt = make(f"cache.{name}.disk.corrupt")
            self._disk_evictions = make(f"cache.{name}.disk.evictions")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _remember(self, key: str, value: Any) -> None:
        """Insert into the memory tier, evicting LRU entries."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if (self.max_entries is not None
                    and len(self._entries) > self.max_entries):
                self._entries.popitem(last=False)

    def _disk_probe(self, key: str, default: Any) -> Any:
        """Second-tier lookup; promotes hits into memory.  Counts the
        overall hit/miss too — a disk hit still means "served without
        recomputing"."""
        status, value = self.disk.get(key)
        if status == HIT:
            self._remember(key, value)
            self._hits.inc()
            self._disk_hits.inc()
            return value
        if status == CORRUPT:
            self._disk_corrupt.inc()
        else:
            self._disk_misses.inc()
        self._misses.inc()
        return default

    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``, counting the hit/miss."""
        with self._lock:
            found = key in self._entries
            if found:
                value = self._entries[key]
                # The lookup is a *use*: refresh recency so eviction
                # under max_entries is LRU, not FIFO.
                self._entries.move_to_end(key)
        # Counters lock themselves; bumping outside the entry lock
        # keeps the hot path short and the counts exact.
        if found:
            self._hits.inc()
            return value
        if self.disk is not None:
            return self._disk_probe(key, default)
        self._misses.inc()
        return default

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def put(self, key: str, value: Any) -> None:
        self._remember(key, value)
        if self.disk is not None:
            evicted = self.disk.put(key, value)
            if evicted:
                self._disk_evictions.inc(evicted)

    def get_or_compute(
        self,
        namespace: str,
        content: Any,
        compute: Callable[[], Any],
    ) -> Any:
        """Return the cached result for ``content`` or compute it.

        ``compute`` runs outside the lock, so concurrent misses on the
        same key may compute twice — harmless for pure functions, and
        it avoids serialising unrelated computations.
        """
        key = content_key(namespace, content)
        sentinel = object()
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        value = compute()
        self.put(key, value)
        return value

    def sync_disk(self) -> None:
        """Flush the disk tier's directory once (curation and evaluation
        call this at the end of a run, making the run's entries durable
        without per-entry fsyncs)."""
        if self.disk is not None:
            self.disk.sync()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            entries = len(self._entries)
        hits, misses = self._hits.value, self._misses.value
        total = hits + misses
        stats: Dict[str, Any] = {
            "entries": entries,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }
        if self.disk is not None:
            stats["disk"] = {
                "entries": len(self.disk),
                "hits": self._disk_hits.value,
                "misses": self._disk_misses.value,
                "corrupt": self._disk_corrupt.value,
                "evictions": self._disk_evictions.value,
            }
        return stats

    def clear(self) -> None:
        """Drop the memory tier and reset counters; the disk tier (when
        present) is deliberately left intact — it outlives runs."""
        with self._lock:
            self._entries.clear()
        self._hits.reset()
        self._misses.reset()
