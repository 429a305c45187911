"""Curation's phase-1 kernels, pinned byte for byte.

Phase 1 runs on every collected file: the readability filter, then
each survivor's dedup shingles, MinHash signature and LSH band keys.
These tests pin what those kernels return — one sha256 over every
shingle set, signature and band-key list of a seeded scrape, seeded
LLM samples and hand-written edge cases (with numpy and without),
every readability decision on edge cases and on the scrape's broken
files, and the hasher's work counters.  A change meant to make the
kernels cheaper must leave every figure here unchanged; never update
one to make a change pass.
"""

import hashlib
import random
from collections import Counter

import pytest

import repro.dataset.dedup as dedup_module
from repro.corpus import GitHubScrapeSimulator
from repro.corpus.keywords import build_keyword_database
from repro.corpus.llm_sim import SimulatedCommercialLLM
from repro.dataset.dedup import (BANDS, N_PERM, MinHasher, band_key,
                                 signature_band_keys, tokenize_for_dedup)
from repro.dataset.filters import is_readable

#: sha256 over one ``repr((sorted(shingles), signature, band_keys))``
#: line per input of :func:`signing_inputs`.
SIGNING_DIGEST = ("7e55b1f28faa0fac893540d1a26a307a"
                  "cc91fdc9898fd6e895bb19b56b7a1a48")
N_SIGNING_INPUTS = 446

#: ``(signature calls, shingles hashed)`` after :func:`sign_fixed_list`.
COUNTERS = (78, 3502)

EDGE_CASES = [
    "",
    "wire",
    "wire a",
    "wire a;",
    "// only a comment\n",
    "/* only a block comment */",
    "a /* x // y */ b c d",
    "a // x /* y\nb */ c d e",
    "a /* x */ b // y */ c\nd e",
    "module m; /* unterminated\n wire a; endmodule",
    "module möd(input ç, output y);\n"
    "  assign y = \"héllo 世界\";\nendmodule\n",
    "module 模块(input a);\nendmodule\n",
    "module m(input a, output y);\r\n  assign y = a;\r\nendmodule\r\n",
    "module m(input a, output y);\n\tassign\ty =\ta;\nendmodule\n",
]


def signing_inputs():
    """A seeded scrape, seeded LLM samples (raw responses) and the
    hand-written edge cases, in that order."""
    codes = [f.content for f in GitHubScrapeSimulator(seed=3).scrape(400)]
    database = build_keyword_database()
    llm = SimulatedCommercialLLM(seed=5)
    rng = random.Random(6)
    for _ in range(4):
        codes.extend(sample.raw_response for sample in
                     llm.generate_batch(database.sample(rng), n_queries=8))
    return codes + EDGE_CASES


def signing_lines(codes, hasher_for):
    lines = []
    for position, code in enumerate(codes):
        shingles = tokenize_for_dedup(code)
        signature = hasher_for(position).signature(shingles)
        keys = signature_band_keys(signature, BANDS)
        lines.append(repr((sorted(shingles), signature, keys)))
    return lines


def sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def codes():
    return signing_inputs()


class TestSigningGolden:
    def test_one_hasher_for_every_input(self, codes):
        hasher = MinHasher(N_PERM)
        lines = signing_lines(codes, lambda position: hasher)
        assert len(lines) == N_SIGNING_INPUTS
        assert sha256_lines(lines) == SIGNING_DIGEST

    def test_a_fresh_hasher_per_input(self, codes):
        lines = signing_lines(codes, lambda position: MinHasher(N_PERM))
        assert sha256_lines(lines) == SIGNING_DIGEST

    def test_pure_python_fallback(self, codes, monkeypatch):
        monkeypatch.setattr(dedup_module, "_np", None)
        hasher = MinHasher(N_PERM)
        lines = signing_lines(codes, lambda position: hasher)
        assert sha256_lines(lines) == SIGNING_DIGEST

    def test_band_keys_agree_with_band_key(self, codes):
        """``signature_band_keys`` is ``band_key`` over each band's
        lanes, on real signatures and on random 64-bit lanes."""
        hasher = MinHasher(N_PERM)
        rows = N_PERM // BANDS
        signatures = [hasher.signature(tokenize_for_dedup(code))
                      for code in codes]
        rng = random.Random(0)
        signatures += [tuple(rng.getrandbits(64) for _ in range(N_PERM))
                       for _ in range(50)]
        signatures.append(tuple([0] * N_PERM))
        signatures.append(tuple([(1 << 64) - 1] * N_PERM))
        for signature in signatures:
            assert signature_band_keys(signature, BANDS) == [
                band_key(band, signature[band * rows:(band + 1) * rows])
                for band in range(BANDS)]

    def test_band_keys_at_other_band_counts(self):
        signature = MinHasher(24).signature(tokenize_for_dedup(
            "module m(input a, output y); assign y = ~a; endmodule"))
        for bands in (1, 2, 3, 4, 6, 8, 12, 24):
            rows = 24 // bands
            assert signature_band_keys(signature, bands) == [
                band_key(band, signature[band * rows:(band + 1) * rows])
                for band in range(bands)]
        with pytest.raises(ValueError, match="must divide"):
            signature_band_keys(signature, 5)


def sign_fixed_list(hasher):
    """Each edge case's shingles, twice over, then the scrape's first 50
    files: repeated shingles and empty sets included."""
    sets = [tokenize_for_dedup(code) for code in EDGE_CASES] * 2
    sets += [tokenize_for_dedup(f.content) for f in
             GitHubScrapeSimulator(seed=3).scrape(50)]
    for shingles in sets:
        hasher.signature(shingles)


class TestCounters:
    def test_counters_count_shingles_signed(self):
        hasher = MinHasher(N_PERM)
        sign_fixed_list(hasher)
        assert (hasher.n_signature_calls,
                hasher.n_shingles_hashed) == COUNTERS

    def test_counters_without_numpy(self, monkeypatch):
        monkeypatch.setattr(dedup_module, "_np", None)
        hasher = MinHasher(N_PERM)
        sign_fixed_list(hasher)
        assert (hasher.n_signature_calls,
                hasher.n_shingles_hashed) == COUNTERS


def decision(content):
    result = is_readable(content)
    return result.kept, result.stage, result.reason


ENCODING = (False, "empty_broken", "encoding issues")
WHITESPACE = (False, "empty_broken", "whitespace only")
KEPT = (True, "empty_broken", "")

READABILITY_CASES = [
    ("", (False, "empty_broken", "empty file")),
    ("   ", WHITESPACE),
    (" \n\t\n   \n", WHITESPACE),
    ("\n\r\t", WHITESPACE),
    ("\n", WHITESPACE),
    ("a" * 89 + "\x01" * 11, ENCODING),
    ("a" * 90 + "\x01" * 10, KEPT),
    ("a" * 91 + "\x01" * 9, KEPT),
    ("\n" * 89 + "\x7f" * 11, ENCODING),
    ("\t" * 90 + "\x7f" * 10, KEPT),
    ("module m;\x0b endmodule", KEPT),
    ("a\x0b", ENCODING),
    ("a\x0c", ENCODING),
    ("a\x00", ENCODING),
    ("a\u2028", ENCODING),
    ("\u2028", ENCODING),
    ("\x0b\x0c\n", ENCODING),
    ("\u00a0" * 10 + "b" * 90, KEPT),
    ("\u3000" * 11 + "b" * 89, ENCODING),
    ("caf\u00e9 r\u00e9sum\u00e9 na\u00efve", KEPT),
    ("\u6a21\u5757 \u4e16\u754c", KEPT),
    ("module m;\r\nendmodule\r\n", KEPT),
    ("".join(chr(code) for code in range(0x80, 0x100)), ENCODING),
]


class TestReadability:
    @pytest.mark.parametrize("content,expected", READABILITY_CASES)
    def test_edge_case(self, content, expected):
        assert decision(content) == expected

    def test_scraped_files(self):
        """Every decision over a seeded scrape, its broken files
        included."""
        files = GitHubScrapeSimulator(seed=3).scrape(400)
        counts = Counter(decision(f.content) for f in files)
        assert counts == {KEPT: 381, ENCODING: 6, WHITESPACE: 3,
                          (False, "empty_broken", "empty file"): 10}
        junk = Counter(decision(f.content) for f in files
                       if f.truth_status == "junk")
        assert junk == {KEPT: 8, ENCODING: 6, WHITESPACE: 3,
                        (False, "empty_broken", "empty file"): 10}
