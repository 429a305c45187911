"""Design families: near-duplicate variant graphs from dedup decisions.

The dedup funnel (PR 5/6) drops every file whose exact Jaccard
similarity to an earlier kept file meets the threshold — and until now
threw the variant structure away.  This module turns those drop
decisions into *design families*: each family records the canonical
member (the kept entry), its variants with the per-pair similarity the
dedup pass already computed, and detection evidence explaining *why*
the pair was linked (``LSH_BUCKET`` — the signatures collided and exact
Jaccard confirmed; ``NAME_PATTERN`` — the files declare modules with a
shared name stem).

Construction reuses the existing MinHash signatures end to end: family
clustering is union-find over the candidate pairs dedup already
verifies, plus the LSH collision graph the band keys already imply.
No shingle is re-hashed (``MinHasher`` counts digests so tests can
assert this counter-exactly), and the streaming band-partitioned path
produces byte-identical :class:`FamilyReport` documents — workers emit
partial union-find forests per band partition and the parent merges
them (see :mod:`.streaming`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from ..obs.reportable import Reportable
from .dedup import (
    BANDS,
    N_PERM,
    BandKey,
    DedupReport,
    MinHasher,
    deduplicate,
    signature_band_keys,
    tokenize_for_dedup,
)

#: Evidence kinds attached to family edges.
LSH_BUCKET = "LSH_BUCKET"
NAME_PATTERN = "NAME_PATTERN"

_MODULE_DECL_RE = re.compile(r"\bmodule\s+([A-Za-z_][A-Za-z0-9_$]*)")


def module_names(code: str) -> List[str]:
    """Declared module names, in order, duplicates removed.

    A cheap regex scan (not a parse): family metadata is captured at
    dedup time, before the syntax stage has run, so it must not assume
    the file parses.
    """
    seen: List[str] = []
    for match in _MODULE_DECL_RE.finditer(code):
        name = match.group(1)
        if name not in seen:
            seen.append(name)
    return seen


def _stem(name: str) -> str:
    """A module name's family stem: trailing digits/underscores and
    case stripped, so ``Counter_2``/``counter3`` share ``counter``."""
    stripped = re.sub(r"[\d_]+$", "", name)
    return (stripped or name).lower()


@dataclass
class Evidence(Reportable):
    """Why a variant was linked to its canonical."""

    kind: str
    confidence: float
    detail: str = ""


def name_pattern_evidence(
    canonical_modules: Sequence[str],
    variant_modules: Sequence[str],
) -> Optional[Evidence]:
    """``NAME_PATTERN`` evidence when the two files declare modules
    with overlapping name stems; confidence is the stem-set Jaccard."""
    a = {_stem(name) for name in canonical_modules}
    b = {_stem(name) for name in variant_modules}
    if not a or not b:
        return None
    shared = sorted(a & b)
    if not shared:
        return None
    confidence = len(shared) / len(a | b)
    return Evidence(kind=NAME_PATTERN, confidence=confidence,
                    detail="shared module-name stem(s): "
                           + ", ".join(shared))


class FamilyForest:
    """Union-find over corpus indices with deterministic structure.

    The representative of every component is its **minimum index**, so
    :meth:`compressed` is a pure function of the component partition —
    independent of union order, partition count, or merge order.  That
    is what lets spilled curation's workers build partial forests over
    their band partition's keys and the parent merge them into exactly
    the forest the in-memory path computes.
    """

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}

    def find(self, node: int) -> int:
        parent = self._parent
        if node not in parent:
            return node
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:  # path compression
            parent[node], node = root, parent[node]
        return root

    def union(self, a: int, b: int) -> None:
        parent = self._parent
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        # min-index root keeps the forest canonical under any order.
        low, high = min(root_a, root_b), max(root_a, root_b)
        parent[high] = low

    def merge(self, parent_map: Dict[int, int]) -> None:
        """Fold another forest's ``compressed()`` map into this one.

        A root's self-entry only registers the root; the entries below
        a root each cost one :meth:`union`."""
        parent = self._parent
        for node, root in parent_map.items():
            if node == root:
                parent.setdefault(node, node)
            else:
                self.union(node, root)

    def compressed(self) -> Dict[int, int]:
        """``node -> min index of its component`` for every known node."""
        return {node: self.find(node) for node in self._parent}

    def component_sizes(self) -> Dict[int, int]:
        """``min-root -> component size`` over known nodes."""
        sizes: Dict[int, int] = {}
        for node in self._parent:
            root = self.find(node)
            sizes[root] = sizes.get(root, 0) + 1
        return sizes

    def component_size_of(self, node: int) -> int:
        """Size of ``node``'s component (1 if the node never collided)."""
        if node not in self._parent:
            return 1
        root = self.find(node)
        return sum(1 for other in self._parent
                   if self.find(other) == root)


def collision_forest(
        keyed_indices: Iterable[Tuple[BandKey, int]]) -> FamilyForest:
    """The LSH collision graph of ``(band key, index)`` emissions as a
    union-find forest: two indices are joined when they share a key.

    The in-memory reduce feeds it every survivor's keys; a spilled
    run's partition workers feed it their partition's keys, and the
    parent merges the partial forests into the same forest (the
    representative is the minimum index, whatever the grouping).  Band
    keys are cheap blake2b digests over already-computed signature
    lanes: **no shingle is re-hashed here**.
    """
    forest = FamilyForest()
    first: Dict[BandKey, int] = {}
    for key, index in keyed_indices:
        root = first.setdefault(key, index)
        if root != index:
            forest.union(root, index)
    return forest


@dataclass
class FamilyVariant(Reportable):
    """One near-duplicate member of a family (a dedup-dropped file)."""

    index: int
    similarity: float
    path: str = ""
    origin: str = ""
    modules: List[str] = field(default_factory=list)
    entry_id: str = ""
    evidence: List[Evidence] = field(default_factory=list)


@dataclass
class Family(Reportable):
    """A canonical member plus its dedup-linked variants."""

    family_id: str
    canonical_index: int
    canonical_path: str = ""
    canonical_origin: str = ""
    canonical_modules: List[str] = field(default_factory=list)
    canonical_entry_id: str = ""
    #: Size of the canonical's LSH collision component — members beyond
    #: the family are near-miss neighbours that collided in some band
    #: but were verified below the threshold (or belong to another
    #: family in the same component).
    component_size: int = 0
    #: Multi-granularity descriptions of the canonical member
    #: (``module`` paragraph + ``blocks`` list); filled only when the
    #: canonical survives curation into the final dataset.
    descriptions: Dict[str, Any] = field(default_factory=dict)
    variants: List[FamilyVariant] = field(default_factory=list)

    @property
    def size(self) -> int:
        return 1 + len(self.variants)

    @property
    def n_lsh_neighbours(self) -> int:
        """Collision-component members that are not family members."""
        return max(0, self.component_size - self.size)

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        data["n_lsh_neighbours"] = self.n_lsh_neighbours
        return data


def family_id_for(seed: int, canonical_index: int) -> str:
    """Stable family id: derived from the corpus index of the
    canonical, which both curate paths number identically."""
    return f"fam-{seed}-{canonical_index:06d}"


class FamilyIndex:
    """All families of one curation run, queryable by corpus index."""

    def __init__(self, families: List[Family], seed: int,
                 threshold: float) -> None:
        self.families = sorted(families,
                               key=lambda fam: fam.canonical_index)
        self.seed = seed
        self.threshold = threshold
        self._by_index: Dict[int, Tuple[Family, str]] = {}
        self._similarity: Dict[int, float] = {}
        for family in self.families:
            self._by_index[family.canonical_index] = (family, "canonical")
            for variant in family.variants:
                self._by_index[variant.index] = (family, "variant")
                self._similarity[variant.index] = variant.similarity

    @classmethod
    def build(
        cls,
        duplicate_of: Dict[int, int],
        similarities: Dict[int, float],
        forest: FamilyForest,
        meta: Dict[int, Dict[str, Any]],
        seed: int,
        threshold: float,
    ) -> "FamilyIndex":
        """Cluster dedup's drop decisions into families.

        Args:
            duplicate_of: ``dropped index -> kept canonical index`` —
                the exact provenance dedup records.
            similarities: the verified Jaccard similarity of each drop
                pair, keyed by the dropped index.
            forest: the LSH collision forest over survivor indices
                (in-memory: :func:`collision_forest`; streaming: the
                merge of worker partial forests).  Only component sizes
                of canonicals are consulted.
            meta: per-index ``{"path", "origin", "modules"}`` for every
                index in ``duplicate_of`` (keys and values).
            seed / threshold: run parameters, recorded on the report.

        The construction is a pure function of its arguments, so the
        in-memory and streaming paths — which provably feed it
        identical inputs — yield byte-identical reports.
        """
        sizes = forest.component_sizes()
        compressed = forest.compressed()
        grouped: Dict[int, List[int]] = {}
        for dropped, canonical in duplicate_of.items():
            grouped.setdefault(canonical, []).append(dropped)

        families: List[Family] = []
        for canonical in sorted(grouped):
            canonical_meta = meta.get(canonical, {})
            canonical_modules = list(canonical_meta.get("modules", []))
            root = compressed.get(canonical, canonical)
            family = Family(
                family_id=family_id_for(seed, canonical),
                canonical_index=canonical,
                canonical_path=canonical_meta.get("path", ""),
                canonical_origin=canonical_meta.get("origin", ""),
                canonical_modules=canonical_modules,
                component_size=sizes.get(root, 1),
            )
            for dropped in sorted(grouped[canonical]):
                dropped_meta = meta.get(dropped, {})
                similarity = similarities.get(dropped, 0.0)
                evidence = [Evidence(
                    kind=LSH_BUCKET, confidence=similarity,
                    detail="signatures collided in an LSH band; exact "
                           "Jaccard verified at drop time")]
                names = name_pattern_evidence(
                    canonical_modules, dropped_meta.get("modules", []))
                if names is not None:
                    evidence.append(names)
                family.variants.append(FamilyVariant(
                    index=dropped,
                    similarity=similarity,
                    path=dropped_meta.get("path", ""),
                    origin=dropped_meta.get("origin", ""),
                    modules=list(dropped_meta.get("modules", [])),
                    evidence=evidence,
                ))
            families.append(family)
        return cls(families, seed, threshold)

    # -- queries --------------------------------------------------------

    @property
    def n_families(self) -> int:
        return len(self.families)

    @property
    def n_variants(self) -> int:
        return sum(len(family.variants) for family in self.families)

    def family_of(self, index: int) -> Optional[Family]:
        pair = self._by_index.get(index)
        return pair[0] if pair else None

    def role_of(self, index: int) -> str:
        """``"canonical"``, ``"variant"``, or ``""`` (not in a family)."""
        pair = self._by_index.get(index)
        return pair[1] if pair else ""

    def similarity_of(self, index: int) -> float:
        return self._similarity.get(index, 0.0)

    # -- late attachment (assemble time) --------------------------------

    def attach_entry(self, index: int, entry_id: str) -> None:
        """Record the dataset entry id a surviving index assembled to."""
        pair = self._by_index.get(index)
        if pair is None:
            return
        family, role = pair
        if role == "canonical":
            family.canonical_entry_id = entry_id
            return
        for variant in family.variants:
            if variant.index == index:
                variant.entry_id = entry_id
                return

    def attach_descriptions(self, index: int,
                            descriptions: Dict[str, Any]) -> None:
        """Attach multi-granularity descriptions to a canonical."""
        pair = self._by_index.get(index)
        if pair is not None and pair[1] == "canonical":
            pair[0].descriptions = dict(descriptions)

    def report(self) -> "FamilyReport":
        return FamilyReport(seed=self.seed, threshold=self.threshold,
                            families=list(self.families))


@dataclass
class FamilyReport(Reportable):
    """The versioned design-family document of one curation run."""

    schema: str = field(default="pyranet/family-report/v1", init=False)
    seed: int = 0
    threshold: float = 0.8
    families: List[Family] = field(default_factory=list)

    @property
    def n_families(self) -> int:
        return len(self.families)

    @property
    def n_variants(self) -> int:
        return sum(len(family.variants) for family in self.families)

    def size_histogram(self) -> Dict[str, int]:
        """``family size -> count`` with numerically ordered keys."""
        histogram: Dict[int, int] = {}
        for family in self.families:
            histogram[family.size] = histogram.get(family.size, 0) + 1
        return {str(size): histogram[size] for size in sorted(histogram)}

    def to_dict(self) -> Dict[str, Any]:
        data = super().to_dict()
        data.update(n_families=self.n_families, n_variants=self.n_variants,
                    size_histogram=self.size_histogram())
        return data


def build_family_artifacts(
    codes: Sequence[str],
    indices: Sequence[int],
    meta_for: Callable[[int], Dict[str, Any]],
    threshold: float,
    seed: int,
    hasher: Optional[MinHasher] = None,
    n_perm: int = N_PERM,
    bands: int = BANDS,
    shingle_sets: Optional[Sequence[FrozenSet[str]]] = None,
    band_keys: Optional[Sequence[Sequence[BandKey]]] = None,
) -> Tuple[DedupReport, FamilyIndex]:
    """Dedup + family clustering off **one** set of band keys.

    Shingles are tokenised and MinHash-signed, and each signature's
    band keys derived, exactly once; the same keys drive the drop
    decisions (via the ``deduplicate(shingle_sets=…, band_keys=…)``
    injection point) and the collision forest.  ``indices`` are the
    ascending corpus indices of ``codes``; ``meta_for(index)`` supplies
    the per-file metadata (path/origin/modules) lazily — it is only
    called for indices that end up in a family.  ``shingle_sets`` /
    ``band_keys`` are as :func:`~.dedup.deduplicate`'s: a caller that
    has already signed the codes passes them in and nothing is
    tokenised or hashed here.
    """
    if list(indices) != sorted(indices):
        raise ValueError("indices must be ascending corpus indices")
    if hasher is None:
        hasher = MinHasher(n_perm)
    if shingle_sets is None and band_keys is None:
        shingle_sets = [tokenize_for_dedup(code) for code in codes]
        band_keys = [signature_band_keys(hasher.signature(shingles), bands)
                     for shingles in shingle_sets]
    report = deduplicate(codes, threshold=threshold, bands=bands,
                         hasher=hasher, shingle_sets=shingle_sets,
                         band_keys=band_keys)
    forest = collision_forest(
        (key, index) for index, keys in zip(indices, band_keys)
        for key in keys)

    # Translate batch positions to corpus indices.
    duplicate_of = {indices[later]: indices[earlier]
                    for later, earlier in report.duplicate_of.items()}
    similarities = {indices[later]: similarity
                    for later, similarity in report.similarities.items()}
    involved = set(duplicate_of) | set(duplicate_of.values())
    meta = {index: meta_for(index) for index in sorted(involved)}
    index = FamilyIndex.build(duplicate_of, similarities, forest,
                              meta, seed=seed, threshold=threshold)
    return report, index
