"""Persistent spill tier for :class:`~repro.pipeline.cache.ResultCache`.

The in-memory result cache dies with the process, so every curation or
evaluation run starts cold and repays the full syntax-check / ranking /
simulation bill even when the corpus has not changed.  :class:`DiskCache`
is the content-addressed tier underneath: one file per cache key (keys
are already blake2b hex digests from :func:`~repro.pipeline.cache
.content_key`), each entry written atomically (unique tmp sibling +
``os.replace``) and verified on the way back in.

Entry layout — schema line, payload digest, payload::

    pyranet-diskcache/v1\\n   <- bumped whenever the layout changes
    blake2b(payload, 16)      <- 16 raw digest bytes
    pickle(value, protocol=4)

A read re-hashes the payload and compares digests, so a torn, truncated
or bit-flipped entry is *detected and discarded* (the file is unlinked
and the caller recomputes) — a corrupted entry is never served.  An
entry from a different schema version is discarded the same way.

Writes skip the per-entry ``fsync`` (``durable=False``): thousands of
small syncs would dominate a cold run.  Instead, a curation or
evaluation run calls :meth:`sync` once when it finishes (through
:meth:`ResultCache.sync_disk`), flushing the directory
so the whole run's entries become durable together (see
:func:`repro.resilience.atomic.fsync_dir` for why the directory needs
the sync, not just the files).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from ..obs import Observability, resolve
from ..resilience.atomic import fsync_dir

#: First line of every entry file; bump when the layout changes so old
#: entries read as stale and are recomputed, never misparsed.
SCHEMA = b"pyranet-diskcache/v1"

_DIGEST_SIZE = 16
_SUFFIX = ".entry"

#: ``get`` statuses.
HIT, MISS, CORRUPT = "hit", "miss", "corrupt"


class DiskCache:
    """One-file-per-key persistent cache with digest-verified reads.

    Args:
        directory: where entries live; created on first use.
        max_entries: evict least-recently-used entries beyond this
            count (``None`` keeps everything).  Recency is file mtime,
            refreshed on every hit.
        durable: fsync every entry write.  Off by default — a run
            makes its entries durable in one :meth:`sync` at the end
            instead of thousands of per-entry syncs.
        obs: observability handle for ``cache.disk.*`` spans; counters
            live in the owning :class:`ResultCache` (``cache.<name>.
            disk.{hits,misses,corrupt,evictions}``).
    """

    def __init__(self, directory: Union[str, Path],
                 max_entries: Optional[int] = None,
                 durable: bool = False,
                 obs: Optional[Observability] = None) -> None:
        self.directory = Path(directory)
        self.max_entries = max_entries
        self.durable = durable
        self.obs = resolve(obs)
        self._lock = threading.Lock()
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.obs.span("cache.disk.open", directory=str(directory)) as span:
            self._count = sum(1 for _ in self.directory.glob("*" + _SUFFIX))
            span.meta["entries"] = self._count

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def path_for(self, key: str) -> Path:
        return self.directory / (key + _SUFFIX)

    # -- read ----------------------------------------------------------

    def get(self, key: str) -> Tuple[str, Any]:
        """Look up ``key``: ``(HIT, value)``, ``(MISS, None)``, or —
        when the entry exists but fails schema/digest/unpickle
        verification — ``(CORRUPT, None)`` after unlinking it."""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return MISS, None
        except OSError:
            return CORRUPT, self._discard(path)
        header = SCHEMA + b"\n"
        payload = raw[len(header) + _DIGEST_SIZE:]
        if (not raw.startswith(header)
                or hashlib.blake2b(payload, digest_size=_DIGEST_SIZE)
                .digest() != raw[len(header):len(header) + _DIGEST_SIZE]):
            return CORRUPT, self._discard(path)
        try:
            value = pickle.loads(payload)
        except Exception:
            return CORRUPT, self._discard(path)
        try:
            os.utime(path)  # refresh recency for LRU eviction
        except OSError:
            pass
        return HIT, value

    def _discard(self, path: Path) -> None:
        """Unlink a bad entry so it is recomputed, not re-served."""
        try:
            path.unlink()
        except OSError:
            return None
        with self._lock:
            self._count = max(0, self._count - 1)
        return None

    # -- write ---------------------------------------------------------

    def put(self, key: str, value: Any) -> int:
        """Persist ``value`` under ``key``; returns entries evicted to
        stay within ``max_entries``.  Unpicklable values are skipped —
        the memory tier still holds them for this run."""
        try:
            payload = pickle.dumps(value, protocol=4)
        except Exception:
            return 0
        digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
        path = self.path_for(key)
        # A unique tmp sibling (pid + thread), unlike a fixed ``.tmp``
        # name, lets concurrent writers of the same key race safely:
        # both renames are atomic and last-write-wins.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with tmp.open("wb") as handle:
                handle.write(SCHEMA + b"\n")
                handle.write(digest)
                handle.write(payload)
                handle.flush()
                if self.durable:
                    os.fsync(handle.fileno())
            existed = path.exists()
            os.replace(tmp, path)
        except OSError:
            return 0
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        with self._lock:
            if not existed:
                self._count += 1
            over = (self.max_entries is not None
                    and self._count > self.max_entries)
        return self._sweep() if over else 0

    def _sweep(self) -> int:
        """Drop least-recently-used entries until within bounds."""
        with self.obs.span("cache.disk.sweep") as span:
            entries = []
            for path in self.directory.glob("*" + _SUFFIX):
                try:
                    entries.append((path.stat().st_mtime_ns, path))
                except OSError:
                    continue
            # Stable tie-breaker: coarse-mtime filesystems can stamp a
            # whole batch with one st_mtime_ns, and glob order is
            # platform-dependent — sort on (mtime, path) so eviction
            # picks the same survivors everywhere.
            entries.sort(key=lambda entry: (entry[0], str(entry[1])))
            evicted = 0
            assert self.max_entries is not None
            for _, path in entries[:max(0, len(entries) - self.max_entries)]:
                try:
                    path.unlink()
                    evicted += 1
                except OSError:
                    continue
            with self._lock:
                self._count = max(0, self._count - evicted)
            span.meta["evicted"] = evicted
        return evicted

    def sync(self) -> None:
        """Make this run's (atomically written, unsynced) entries
        durable with one directory flush."""
        with self.obs.span("cache.disk.sync",
                           directory=str(self.directory)):
            fsync_dir(self.directory)
