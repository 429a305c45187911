"""Code deduplication: token Jaccard similarity with MinHash/LSH.

The paper deduplicates with "the Jaccard similarity algorithm … the
intersection over the union of the sets" of code tokens, dropping pairs
at or above a threshold.  Pairwise Jaccard is O(n²); for corpus-scale
inputs we index MinHash signatures with locality-sensitive hashing and verify
candidate pairs exactly, which preserves the paper's decision rule
while staying near-linear.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[^\sA-Za-z0-9_]")


def tokenize_for_dedup(code: str) -> FrozenSet[str]:
    """Token shingles used for similarity.

    Comments are stripped first (forked files often only differ in
    headers), then 3-token shingles are formed so ordering matters —
    plain bags of tokens make all small counters look identical.
    """
    text = re.sub(r"//[^\n]*", "", code)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) < 3:
        return frozenset(tokens)
    return frozenset(
        " ".join(tokens[i:i + 3]) for i in range(len(tokens) - 2)
    )


def jaccard(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    """Exact Jaccard similarity of two shingle sets."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    intersection = len(a & b)
    union = len(a) + len(b) - intersection
    return intersection / union


try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the repo
    _np = None

#: Universal-hash modulus: the Mersenne prime 2^61 - 1.  Lanes live in
#: 64-bit words but never exceed p.
_MERSENNE_P = (1 << 61) - 1
#: Parameter bounds chosen so ``a * h + b`` is exact in a uint64 lane:
#: a < 2^31 and h < 2^32 keep the product under 2^63, and b < p keeps
#: the sum under 2^64 — the vectorised path and the pure-Python
#: fallback therefore compute the identical integers.
_A_BOUND = (1 << 31) - 1
_H_MASK = (1 << 32) - 1

#: Below this many shingles the numpy array round-trip costs more than
#: the plain loop it replaces.
_VECTOR_MIN_SHINGLES = 16


def _shingle_hash(text: str) -> int:
    """One blake2b per shingle — the single digest all ``n_perm``
    permutation lanes are derived from."""
    digest = hashlib.blake2b(
        text.encode("utf-8", "replace"), digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little") & _H_MASK


def _perm_params(seed: int, index: int) -> Tuple[int, int]:
    """The (a, b) coefficients of permutation ``index``: a seeded
    blake2b expansion, so signatures are identical on every platform
    and Python version.  ``a`` is non-zero (a zero multiplier would
    collapse the permutation to a constant)."""
    digest = hashlib.blake2b(
        f"minhash:{seed}:{index}".encode("ascii"), digest_size=16,
    ).digest()
    a = 1 + int.from_bytes(digest[:8], "little") % _A_BOUND
    b = int.from_bytes(digest[8:], "little") % _MERSENNE_P
    return a, b


#: MinHash permutations and LSH bands: the defaults of every dedup entry
#: point, and what curation signs and buckets with.
N_PERM = 64
BANDS = 16


@dataclass
class MinHasher:
    """MinHash signatures over shingle sets.

    Each shingle is hashed **once** (blake2b); the ``n_perm``
    permutations are then simulated with a seeded universal-hash mix
    ``(a_i * h + b_i) mod p`` over the Mersenne prime ``p = 2^61 - 1``.
    That turns the per-file cost from ``n_perm × |shingles|`` digest
    calls into ``|shingles|`` digests plus cheap integer lanes — the
    dominant cost of corpus-scale deduplication
    (``benchmarks/test_dedup_throughput.py`` pins the speedup).  The
    lanes are vectorised with numpy when it is importable; the
    pure-Python fallback computes the identical integers.
    """

    n_perm: int = N_PERM
    seed: int = 0

    def __post_init__(self) -> None:
        self._params = [_perm_params(self.seed, index)
                        for index in range(self.n_perm)]
        # Work counters: how many signatures were computed and how many
        # shingles were digested.  Family construction
        # (:mod:`.families`) reuses signatures instead of re-hashing;
        # these counters let tests assert that counter-exactly.
        self.n_signature_calls = 0
        self.n_shingles_hashed = 0
        if _np is not None:
            self._a = _np.array([a for a, _ in self._params],
                                dtype=_np.uint64)[:, None]
            self._b = _np.array([b for _, b in self._params],
                                dtype=_np.uint64)[:, None]

    def signature(self, shingles: FrozenSet[str]) -> Tuple[int, ...]:
        self.n_signature_calls += 1
        if not shingles:
            return tuple([0] * self.n_perm)
        self.n_shingles_hashed += len(shingles)
        hashes = [_shingle_hash(s) for s in shingles]
        if _np is not None and len(hashes) >= _VECTOR_MIN_SHINGLES:
            lanes = (self._a * _np.array(hashes, dtype=_np.uint64)
                     + self._b) % _np.uint64(_MERSENNE_P)
            return tuple(int(lane) for lane in lanes.min(axis=1))
        p = _MERSENNE_P
        return tuple(
            min((a * h + b) % p for h in hashes)
            for a, b in self._params
        )

    @staticmethod
    def estimate(sig_a: Sequence[int], sig_b: Sequence[int]) -> float:
        matches = sum(1 for x, y in zip(sig_a, sig_b) if x == y)
        return matches / len(sig_a)


def band_key(band: int, chunk: Sequence[int]) -> Tuple[int, str]:
    """The LSH bucket key for one signature band.

    The chunk is digested with blake2b over its 64-bit little-endian
    lanes — unlike builtin ``hash(tuple)``, the key is identical across
    platforms, word sizes, and Python versions, so bucket contents (and
    therefore ``candidate_pairs_checked`` in a :class:`DedupReport`)
    are reproducible everywhere.
    """
    raw = b"".join(value.to_bytes(8, "little") for value in chunk)
    return band, hashlib.blake2b(raw, digest_size=8).hexdigest()


BandKey = Tuple[int, str]


def signature_band_keys(signature: Sequence[int],
                        bands: int) -> List[BandKey]:
    """All LSH bucket keys of one signature, band by band."""
    n_perm = len(signature)
    if n_perm % bands != 0:
        raise ValueError(f"bands={bands} must divide n_perm={n_perm}")
    rows = n_perm // bands
    return [band_key(band, signature[band * rows:(band + 1) * rows])
            for band in range(bands)]


@dataclass
class DedupReport:
    """Outcome of :func:`deduplicate`."""

    kept_indices: List[int] = field(default_factory=list)
    #: Mapping duplicate index -> representative (kept) index.
    duplicate_of: Dict[int, int] = field(default_factory=dict)
    candidate_pairs_checked: int = 0
    #: The verified Jaccard similarity of each drop decision, keyed by
    #: the dropped index — exact provenance for every ``(later,
    #: earlier)`` pair in ``duplicate_of`` (same keys).
    similarities: Dict[int, float] = field(default_factory=dict)

    @property
    def n_removed(self) -> int:
        return len(self.duplicate_of)

    def drop_pairs(self) -> List[Tuple[int, int, float]]:
        """Every drop decision as ``(later, earlier, similarity)``,
        ascending by the dropped index — the audit trail of *which*
        kept entry caused each drop."""
        return [(later, self.duplicate_of[later],
                 self.similarities.get(later, 0.0))
                for later in sorted(self.duplicate_of)]

    def decide(self, index: int, shingles: FrozenSet[str],
               candidates: Iterable[Tuple[int, FrozenSet[str]]],
               threshold: float) -> bool:
        """The paper's decision rule for file ``index``; returns whether
        it is dropped.

        ``candidates`` are ``(index, shingle set)`` of the earlier
        *kept* files that share an LSH band key with it, ascending by
        index.  Each is verified with exact Jaccard (and counted in
        ``candidate_pairs_checked``); the first whose similarity is at
        or above ``threshold`` wins and the drop is recorded.  Both
        dedup reduces — :func:`deduplicate` and curation's spilled,
        band-partitioned one — decide through this method.
        """
        for candidate, candidate_shingles in candidates:
            self.candidate_pairs_checked += 1
            similarity = jaccard(shingles, candidate_shingles)
            if similarity >= threshold:
                self.duplicate_of[index] = candidate
                self.similarities[index] = similarity
                return True
        return False


def deduplicate(
    codes: Sequence[str],
    threshold: float = 0.8,
    n_perm: int = N_PERM,
    bands: int = BANDS,
    hasher: Optional[MinHasher] = None,
    shingle_sets: Optional[Sequence[FrozenSet[str]]] = None,
    signatures: Optional[Sequence[Tuple[int, ...]]] = None,
) -> DedupReport:
    """Drop near-duplicates by Jaccard threshold.

    Args:
        codes: the code texts.
        threshold: Jaccard similarity **at or above** which the later
            file is considered a duplicate of the earlier one — the
            paper's decision rule is inclusive, so a pair whose
            similarity equals the threshold exactly is dropped.
        n_perm: MinHash permutations (ignored when ``hasher`` is given).
        bands: LSH bands (must divide the permutation count); more
            bands catch lower similarities at the cost of more
            candidates.
        hasher: an explicit :class:`MinHasher` — injectable so tests
            can pin LSH behaviour against alternative signature
            schemes; candidate *verification* is always exact Jaccard,
            so the hasher only affects which pairs get checked.
        shingle_sets / signatures: precomputed per-code shingle sets
            and MinHash signatures (both or neither).  Callers that
            need the signatures for other work — family clustering in
            :mod:`.families` — pass them in so no shingle is tokenised
            or hashed twice.

    Returns:
        A :class:`DedupReport` whose ``kept_indices`` preserve input
        order (first occurrence wins).
    """
    if hasher is None:
        hasher = MinHasher(n_perm)
    n_perm = hasher.n_perm
    if n_perm % bands != 0:
        raise ValueError(f"bands={bands} must divide n_perm={n_perm}")
    if (shingle_sets is None) != (signatures is None):
        raise ValueError(
            "pass shingle_sets and signatures together or not at all")
    if shingle_sets is None:
        shingle_sets = [tokenize_for_dedup(code) for code in codes]
        signatures = [hasher.signature(s) for s in shingle_sets]
    elif len(shingle_sets) != len(codes) or len(signatures) != len(codes):
        raise ValueError("precomputed shingle_sets/signatures must "
                         "cover every code")

    # Buckets hold kept indices only, so the candidates gathered from
    # them are exactly the earlier kept files sharing a band key.
    report = DedupReport()
    buckets: Dict[BandKey, List[int]] = {}
    for index, signature in enumerate(signatures):
        keys = signature_band_keys(signature, bands)
        candidates: Set[int] = set()
        for key in keys:
            candidates.update(buckets.get(key, ()))
        if report.decide(index, shingle_sets[index],
                         ((candidate, shingle_sets[candidate])
                          for candidate in sorted(candidates)),
                         threshold):
            continue
        report.kept_indices.append(index)
        for key in keys:
            buckets.setdefault(key, []).append(index)
    return report


def dedup_keep_indices(
    codes: Sequence[str], threshold: float = 0.8
) -> List[int]:
    """Convenience adapter for the filter funnel: indices to keep."""
    return deduplicate(codes, threshold).kept_indices


def band_candidate_pairs(
    keyed_indices: Sequence[Tuple[BandKey, int]],
) -> List[Tuple[int, int]]:
    """Map side of partitioned dedup: collision pairs in one partition.

    ``keyed_indices`` are ``(band_key, index)`` emissions for the band
    keys this partition owns.  Every pair of indices sharing a key is
    emitted as ``(earlier, later)``, sorted — keep status is *not*
    consulted here (it cannot be known partition-locally).

    Why curation's spilled reduce, built on this, decides exactly like
    :func:`deduplicate` for any band → partition assignment: the merged
    pairs give each index ``i`` the set of ``j < i`` sharing a band key
    with it.  Resolving indices in ascending order, ``j``'s verdict is
    final when ``i`` is examined, so keeping only the ``j`` still kept
    yields :func:`deduplicate`'s bucket contents, and
    :meth:`DedupReport.decide` then makes the same decisions and counts
    the same checks.
    """
    buckets: Dict[BandKey, List[int]] = {}
    for key, index in keyed_indices:
        buckets.setdefault(key, []).append(index)
    pairs: Set[Tuple[int, int]] = set()
    for members in buckets.values():
        members.sort()
        for pos in range(1, len(members)):
            later = members[pos]
            for earlier in members[:pos]:
                if earlier != later:
                    pairs.add((earlier, later))
    return sorted(pairs)
