"""Curation's band-partitioned dedup reduce ≡ the sequential algorithm.

A spilled :class:`CurationPipeline` run dedups through the
band-partitioned map side (:func:`band_candidate_pairs` per partition)
and one ascending resolve pass; an in-memory run calls
:func:`deduplicate`.  Both must make the same decisions — the dedup
drops, the ``curation.dedup`` span's ``candidate_pairs_checked``, and
the family report — and those must equal :func:`deduplicate`'s over the
texts that pass curation's pre-dedup filters, for every partition count
and every band-key → partition assignment.
"""

import random
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.github_sim import RawFile
from repro.dataset import streaming
from repro.dataset.dedup import (
    MinHasher,
    band_candidate_pairs,
    deduplicate,
    signature_band_keys,
    tokenize_for_dedup,
)
from repro.dataset.filters import has_module, is_readable
from repro.dataset.streaming import CurationPipeline
from repro.obs import Observability
from repro.pipeline import ParallelExecutor

# A tiny vocabulary so random corpora collide often: near-duplicates,
# exact duplicates, and unrelated files all occur.
_WORDS = ["wire", "assign", "input", "output", "reg", "always", "a", "b"]


def _corpus(seed: int, n: int):
    """``n`` files: tiny-vocabulary bodies wrapped as ``module mN …
    endmodule`` (so they pass the pre-dedup filters), copies and edited
    copies of earlier files, and a few bodies with no module that the
    filters drop (so corpus indices and dedup positions differ)."""
    rng = random.Random(seed)
    codes = []
    for _ in range(n):
        roll = rng.random()
        if codes and roll < 0.3:
            code = rng.choice(codes)
            if rng.random() < 0.5:
                code = code.replace(" endmodule",
                                    f" {rng.choice(_WORDS)} endmodule")
        else:
            body = " ".join(rng.choice(_WORDS)
                            for _ in range(rng.randint(4, 24)))
            code = body if roll > 0.9 else (
                f"module m{rng.randrange(3)} {body} endmodule")
        codes.append(code)
    return codes


def corpus_strategy():
    return st.builds(_corpus, st.integers(0, 10_000), st.integers(0, 40))


def curate(codes, threshold=0.8, **kwargs):
    """Curate ``codes`` as scraped files; returns its dedup decisions."""
    obs = Observability()
    files = [RawFile(path=f"rtl/f{index}.v", content=code)
             for index, code in enumerate(codes)]
    result = CurationPipeline(seed=0, batch_size=8, obs=obs,
                              dedup_threshold=threshold,
                              **kwargs).run(files)
    families = result.report.families
    (span,) = [span for span in obs.tracer.export()
               if span["name"] == "curation.dedup"]
    return {
        "duplicate_of": {variant.index: family.canonical_index
                         for family in families.families
                         for variant in family.variants},
        "similarities": {variant.index: variant.similarity
                         for family in families.families
                         for variant in family.variants},
        "pairs_checked": span["meta"]["candidate_pairs_checked"],
        "dedup_drops": result.report.trace.stage("dedup").drops,
        "families": families.to_json(),
    }


def curate_spilled(codes, n_partitions, **kwargs):
    with tempfile.TemporaryDirectory() as spill:
        return curate(codes, n_partitions=n_partitions, spill_dir=spill,
                      **kwargs)


def sequential(codes, threshold=0.8):
    """:func:`deduplicate` over the texts that pass the pre-dedup
    filters, keyed by corpus index."""
    indices = [index for index, code in enumerate(codes)
               if is_readable(code).kept and has_module(code).kept]
    report = deduplicate([codes[index] for index in indices], threshold)
    return {
        "duplicate_of": {indices[later]: indices[earlier]
                         for later, earlier in report.duplicate_of.items()},
        "similarities": {indices[later]: similarity
                         for later, similarity
                         in report.similarities.items()},
        "pairs_checked": report.candidate_pairs_checked,
    }


def assert_same_decisions(codes, spilled, in_memory, threshold=0.8):
    assert spilled == in_memory
    expected = sequential(codes, threshold)
    for name, value in expected.items():
        assert spilled[name] == value, name
    assert (sum(spilled["dedup_drops"].values())
            == len(expected["duplicate_of"]))


def routed_by(partition_of):
    """``_PartitionSpill.add`` with each band key routed to
    ``partition_of(key)`` instead of its band number modulo the
    partition count.  The key is re-labelled so that the spill's own
    routing lands it there; distinct keys stay distinct."""
    add = streaming._PartitionSpill.add

    def routed(self, emissions):
        n = self.n_partitions
        add(self, [((partition_of(key) + n * key[0], key[1]), index)
                   for key, index in emissions])
    return routed


class TestBandKeys:
    def test_band_count_and_determinism(self):
        hasher = MinHasher(64)
        signature = hasher.signature(tokenize_for_dedup(
            "module m wire a assign b endmodule"))
        keys = signature_band_keys(signature, 16)
        assert len(keys) == 16
        assert keys == signature_band_keys(signature, 16)
        assert [band for band, _ in keys] == list(range(16))

    def test_bands_must_divide_permutations(self):
        hasher = MinHasher(64)
        signature = hasher.signature(frozenset({"a b c"}))
        with pytest.raises(ValueError):
            signature_band_keys(signature, 7)

    def test_identical_signatures_share_every_key(self):
        hasher = MinHasher(64)
        shingles = tokenize_for_dedup("module m wire a assign b endmodule")
        first = signature_band_keys(hasher.signature(shingles), 16)
        second = signature_band_keys(hasher.signature(shingles), 16)
        assert first == second


class TestMapSide:
    def test_pairs_are_sorted_unique_ascending(self):
        keyed = [((0, "k"), 3), ((0, "k"), 1), ((0, "k"), 3),
                 ((0, "k"), 0), ((1, "j"), 5)]
        pairs = band_candidate_pairs(keyed)
        assert pairs == [(0, 1), (0, 3), (1, 3)]

    def test_merge_dedups_across_partitions(self):
        # Identical files collide in all 16 bands, so with 16
        # partitions every partition emits the pair; the reduce still
        # checks it once.
        codes = ["module m wire a assign b reg a endmodule"] * 2
        decisions = curate_spilled(codes, n_partitions=16)
        assert decisions["duplicate_of"] == {1: 0}
        assert decisions["pairs_checked"] == 1
        assert_same_decisions(codes, decisions, curate(codes))

    def test_empty(self):
        assert band_candidate_pairs([]) == []
        decisions = curate_spilled([], n_partitions=4)
        assert decisions["duplicate_of"] == {}
        assert decisions["pairs_checked"] == 0


class TestEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(corpus_strategy(), st.integers(1, 8))
    def test_any_partition_count(self, codes, n_partitions):
        assert_same_decisions(codes, curate_spilled(codes, n_partitions),
                              curate(codes))

    @settings(max_examples=20, deadline=None)
    @given(corpus_strategy(), st.integers(1, 8), st.integers(0, 1000))
    def test_random_band_assignment(self, codes, n_partitions,
                                    assignment_seed):
        """Not just band modulo partitions: ANY deterministic key →
        partition function must give identical decisions, because
        collisions are found per key and unioned."""
        def partition_of(key):
            return random.Random(
                f"{assignment_seed}:{key[0]}:{key[1]}"
            ).randrange(n_partitions)

        with mock.patch.object(streaming._PartitionSpill, "add",
                               routed_by(partition_of)):
            spilled = curate_spilled(codes, n_partitions)
        assert_same_decisions(codes, spilled, curate(codes))

    @settings(max_examples=10, deadline=None)
    @given(corpus_strategy())
    def test_executor_mapper(self, codes):
        executor = ParallelExecutor(mode="thread", max_workers=4)
        spilled = curate_spilled(codes, 4, executor=executor)
        assert_same_decisions(codes, spilled, curate(codes))

    def test_threshold_respected(self):
        codes = ["module m wire a assign b endmodule"] * 3
        strict = curate_spilled(codes, 4, threshold=1.0)
        assert strict["duplicate_of"] == {1: 0, 2: 0}
        assert_same_decisions(codes, strict, curate(codes, threshold=1.0),
                              threshold=1.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            deduplicate(["module m endmodule"], bands=7)
        with pytest.raises(ValueError):
            deduplicate(["module m endmodule"],
                        shingle_sets=[frozenset({"module m endmodule"})])


class TestResolve:
    def test_resolve_mirrors_sequential_decisions(self):
        codes = _corpus(11, 60)
        spilled = curate_spilled(codes, 4)
        assert spilled["duplicate_of"]  # the corpus has duplicates
        assert_same_decisions(codes, spilled, curate(codes))
