"""The store manifest: the one small file that indexes a store.

``manifest.json`` records every shard — name, content digest, entry
count, compressed/raw byte sizes, and a per-(layer, complexity)
histogram — plus store-level totals.  The histogram doubles as the
layer/complexity index: ``shards_for(layer=1)`` answers "which shards
must I open?" from the manifest alone, without touching shard bytes.

The manifest is written atomically (tmp sibling + ``os.replace``) and
last, so a crashed write leaves either the previous complete store or
no manifest at all — never a manifest pointing at half-written shards.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..obs.reportable import Reportable
from .errors import ManifestError
from .shard import ShardInfo

PathLike = Union[str, Path]

#: File name of the manifest inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Bumped when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1

@dataclass
class StoreManifest(Reportable):
    """Index of a sharded store.

    Serialised by the :class:`~repro.obs.Reportable` rule; loading
    also checks the format version and reports any failure as a
    :class:`ManifestError`.
    """

    schema = "pyranet/store-manifest/v1"

    version: int = FORMAT_VERSION
    n_entries: int = 0
    total_bytes: int = 0
    total_raw_bytes: int = 0
    shards: List[ShardInfo] = field(default_factory=list)
    #: free-form provenance (writer settings, source description, …).
    meta: Dict[str, Any] = field(default_factory=dict)

    # -- the layer/complexity index ------------------------------------

    def shards_for(self, layer: Optional[int] = None,
                   complexity=None) -> List[ShardInfo]:
        """Shards whose histogram says they may hold matching rows."""
        return [info for info in self.shards
                if info.covers(layer=layer, complexity=complexity)]

    def layer_sizes(self) -> Dict[int, int]:
        sizes: Dict[int, int] = {}
        for info in self.shards:
            for layer, count in info.layer_counts().items():
                sizes[layer] = sizes.get(layer, 0) + count
        return dict(sorted(sizes.items()))

    def trainable_layers(self) -> List[int]:
        """Layer numbers present in the store, best first (0 excluded)."""
        return sorted(n for n in self.layer_sizes() if n > 0)

    def complexity_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for info in self.shards:
            for counts in info.histogram.values():
                for name, count in counts.items():
                    label = name.capitalize()
                    histogram[label] = histogram.get(label, 0) + count
        return histogram

    def origin_histogram(self) -> Dict[str, int]:
        """Per-origin row counts across all shards, name-sorted —
        stable JSON key order, matching the facet contract."""
        histogram: Dict[str, int] = {}
        for info in self.shards:
            for name, count in getattr(info, "origins", {}).items():
                histogram[name] = histogram.get(name, 0) + count
        return {name: histogram[name] for name in sorted(histogram)}

    def family_summary(self) -> Dict[str, Any]:
        """Design-family totals across all shards: family and variant
        counts plus the family-size histogram, with numerically
        ordered size keys (the facet contract's stable key order)."""
        n_families = 0
        n_variants = 0
        n_variant_rows = 0
        sizes: Dict[int, int] = {}
        for info in self.shards:
            summary = getattr(info, "families", {}) or {}
            n_families += summary.get("n_families", 0)
            n_variants += summary.get("n_variants", 0)
            n_variant_rows += summary.get("n_variant_rows", 0)
            for size, count in summary.get("sizes", {}).items():
                sizes[int(size)] = sizes.get(int(size), 0) + count
        return {
            "n_families": n_families,
            "n_variants": n_variants,
            "n_variant_rows": n_variant_rows,
            "sizes": {str(size): sizes[size] for size in sorted(sizes)},
        }

    def verified_summary(self) -> Dict[str, Any]:
        """The verified-tier totals across all shards: how many rows
        carry a positive formal verdict, and the yield against layer 1
        (the tier it refines).  Zeros materialised for stable JSON."""
        n_verified = sum(getattr(info, "verified", 0)
                         for info in self.shards)
        n_layer_1 = self.layer_sizes().get(1, 0)
        return {
            "n_verified": n_verified,
            "n_layer_1": n_layer_1,
        }

    def facets(self) -> Dict[str, Any]:
        """The full (layer, complexity) histogram as one stable,
        JSON-ready document.

        Key order is part of the contract: layers appear in numeric
        order (as strings, since they are JSON keys) and every
        complexity mapping carries all four labels in canonical
        ``Basic`` -> ``Expert`` order, zeros included — so two stores
        with the same contents facet to byte-identical JSON.
        """
        from ..dataset.records import Complexity

        labels = [member.name.capitalize() for member in Complexity]
        layers: Dict[str, Dict[str, Any]] = {}
        for layer in sorted(self.layer_sizes()):
            merged: Dict[str, int] = {}
            for info in self.shards:
                for name, count in info.histogram.get(str(layer),
                                                      {}).items():
                    label = name.capitalize()
                    merged[label] = merged.get(label, 0) + count
            layers[str(layer)] = {
                "n_entries": sum(merged.values()),
                "complexity": {label: merged.get(label, 0)
                               for label in labels},
            }
        totals = self.complexity_histogram()
        return {
            "n_entries": self.n_entries,
            "layers": layers,
            "complexity": {label: totals.get(label, 0)
                           for label in labels},
            "origins": self.origin_histogram(),
            "families": self.family_summary(),
            "verified": self.verified_summary(),
        }

    # -- loading -------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StoreManifest":
        try:
            version = data.get("version", FORMAT_VERSION)
            if version != FORMAT_VERSION:
                raise ManifestError(
                    f"unsupported manifest version {version!r} "
                    f"(this reader understands {FORMAT_VERSION})")
            missing = [key for key in ("n_entries", "total_bytes")
                       if key not in data]
            if missing:
                raise ManifestError(
                    f"malformed manifest: missing {', '.join(missing)}")
            return super().from_dict(data)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "StoreManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- disk ----------------------------------------------------------

    def save(self, directory: PathLike) -> Path:
        """Atomically write ``manifest.json`` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / MANIFEST_NAME
        tmp = path.with_name(path.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                handle.write(self.to_json(indent=2))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
        return path

    @classmethod
    def load(cls, directory: PathLike) -> "StoreManifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise ManifestError(f"no manifest at {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))
