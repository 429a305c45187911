"""Shard codec: entry batches <-> compressed, content-addressed blobs.

A shard is a zlib-compressed block of JSONL — the exact per-entry dicts
:func:`~repro.dataset.io.save_jsonl` writes — named by the blake2b
digest of its compressed bytes (``shard-<digest>.jsonl.z``).  Naming by
content makes shards immutable and self-verifying: the reader re-hashes
what it loads and any flipped bit changes the digest.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataset.records import DatasetEntry
from ..obs.reportable import Reportable
from .errors import ShardCorruptionError

#: blake2b hex digest length used for shard names (16 bytes = 32 hex).
DIGEST_SIZE = 16

#: ``shard-<digest>.jsonl.z``
SHARD_SUFFIX = ".jsonl.z"
SHARD_PREFIX = "shard-"


def shard_digest(payload: bytes) -> str:
    """Content digest of a shard's compressed bytes."""
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).hexdigest()


def shard_name(digest: str) -> str:
    return f"{SHARD_PREFIX}{digest}{SHARD_SUFFIX}"


def encode_entry(entry: DatasetEntry) -> bytes:
    """One JSONL line (UTF-8, trailing newline) for ``entry``."""
    return (json.dumps(entry.to_dict(), ensure_ascii=False,
                       sort_keys=True) + "\n").encode("utf-8")


def encode_shard(lines: Sequence[bytes]) -> Tuple[bytes, str, int]:
    """Compress encoded entry ``lines`` into a shard payload.

    Returns ``(payload, digest, raw_size)`` where ``raw_size`` is the
    uncompressed JSONL byte count.
    """
    raw = b"".join(lines)
    payload = zlib.compress(raw, level=6)
    return payload, shard_digest(payload), len(raw)


def decode_shard(payload: bytes, name: str = "<shard>") -> List[DatasetEntry]:
    """Decompress and parse a shard payload back into entries."""
    try:
        raw = zlib.decompress(payload)
    except zlib.error as exc:
        raise ShardCorruptionError(name, f"decompression failed: {exc}")
    entries: List[DatasetEntry] = []
    for number, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entries.append(DatasetEntry.from_dict(
                json.loads(line.decode("utf-8"))))
        except (ValueError, KeyError) as exc:
            raise ShardCorruptionError(
                name, f"line {number}: undecodable entry: {exc}")
    return entries


@dataclass
class ShardInfo(Reportable):
    """Manifest record for one shard.

    ``histogram`` maps layer number (as a string, for JSON) to a
    complexity-name -> count mapping; :meth:`covers` answers whether a
    ``select()`` with the given filters could find rows here without
    opening the shard.
    """

    name: str
    digest: str
    n_entries: int
    byte_size: int
    raw_size: int
    histogram: Dict[str, Dict[str, int]] = field(default_factory=dict)
    origins: Dict[str, int] = field(default_factory=dict)
    #: Design-family summary of this shard's rows (see
    #: :func:`build_families`); zeros/empty for family-free shards.
    families: Dict[str, object] = field(default_factory=dict)
    #: Rows carrying a positive formal verdict (the verified tier);
    #: 0 for shards written before the tier existed.
    verified: int = 0

    def covers(self, layer: Optional[int] = None, complexity=None) -> bool:
        """Could this shard contain rows matching the filters?"""
        if layer is None and complexity is None:
            return self.n_entries > 0
        buckets = (
            [self.histogram.get(str(layer), {})] if layer is not None
            else list(self.histogram.values())
        )
        if complexity is None:
            return any(sum(b.values()) > 0 for b in buckets)
        key = complexity.name if hasattr(complexity, "name") else str(complexity)
        return any(b.get(key, 0) > 0 for b in buckets)

    def layer_counts(self) -> Dict[int, int]:
        return {int(layer): sum(counts.values())
                for layer, counts in self.histogram.items()}


def build_histogram(entries: Sequence[DatasetEntry]) -> Dict[str, Dict[str, int]]:
    """The per-(layer, complexity) histogram of ``entries``."""
    histogram: Dict[str, Dict[str, int]] = {}
    for entry in entries:
        bucket = histogram.setdefault(str(entry.layer), {})
        key = entry.complexity.name
        bucket[key] = bucket.get(key, 0) + 1
    return histogram


def build_origins(entries: Sequence[DatasetEntry]) -> Dict[str, int]:
    """The per-origin row counts of ``entries`` (``github`` / ``llm``
    / ``generated`` / ``repair`` / ...), name-sorted for stable JSON."""
    origins: Dict[str, int] = {}
    for entry in entries:
        origins[entry.origin] = origins.get(entry.origin, 0) + 1
    return {name: origins[name] for name in sorted(origins)}


def build_verified(entries: Sequence[DatasetEntry]) -> int:
    """Rows with a positive formal verdict in ``entries``."""
    return sum(1 for entry in entries
               if getattr(entry, "verified", False))


def build_families(entries: Sequence[DatasetEntry]) -> Dict[str, object]:
    """The design-family summary of ``entries``.

    ``n_families`` counts canonical rows in this shard; ``n_variants``
    counts the variants those canonicals *declare* (dropped or stored
    elsewhere); ``n_variant_rows`` counts variant rows physically in
    this shard (non-zero only for ``keep_variants`` datasets).
    ``sizes`` histograms family size (canonical + declared variants)
    with numerically ordered keys for stable JSON.
    """
    n_families = 0
    n_variants = 0
    n_variant_rows = 0
    sizes: Dict[int, int] = {}
    for entry in entries:
        role = getattr(entry, "family_role", "")
        if role == "canonical":
            n_families += 1
            declared = getattr(entry, "n_family_variants", 0)
            n_variants += declared
            size = 1 + declared
            sizes[size] = sizes.get(size, 0) + 1
        elif role == "variant":
            n_variant_rows += 1
    return {
        "n_families": n_families,
        "n_variants": n_variants,
        "n_variant_rows": n_variant_rows,
        "sizes": {str(size): sizes[size] for size in sorted(sizes)},
    }
