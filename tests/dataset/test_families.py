"""repro.dataset.families: variant graphs out of dedup decisions.

Covers the forest's order-independence (the property the streaming
partial-forest merge rests on), evidence construction, the zero-rehash
guarantee (counter-exact: family clustering adds not one shingle
digest beyond what dedup itself pays), the drop-provenance side
channel on DedupReport, the ``keep_variants`` pipeline mode, and the
frozen FamilyReport byte layout.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import GitHubScrapeSimulator
from repro.dataset import dedup, families, streaming
from repro.dataset.dedup import (MinHasher, deduplicate, signature_band_keys,
                                 tokenize_for_dedup)
from repro.dataset.families import (
    LSH_BUCKET,
    NAME_PATTERN,
    Evidence,
    Family,
    FamilyForest,
    FamilyReport,
    FamilyVariant,
    build_family_artifacts,
    collision_forest,
    family_id_for,
    module_names,
    name_pattern_evidence,
)
from repro.dataset.pipeline import CurationPipeline, PipelineReport


def _meta_for(index):
    return {"path": f"rtl/file_{index}.v", "origin": "github",
            "modules": [f"mod_{index}"]}


def _variant_codes():
    """Three exact-duplicate groups plus two singletons (comment-only
    edits are invisible to the shingler, so similarity is 1.0)."""
    base_a = ("module counter(input clk, input rst, output reg [7:0] q);\n"
              "  always @(posedge clk) begin\n"
              "    if (rst) q <= 0; else q <= q + 1;\n"
              "  end\nendmodule\n")
    base_b = ("module shifter(input clk, input [3:0] d, output reg [3:0] q);\n"
              "  always @(posedge clk) q <= {q[2:0], d[0]};\n"
              "endmodule\n")
    solo_1 = ("module adder(input [3:0] a, input [3:0] b, "
              "output [4:0] s);\n  assign s = a + b;\nendmodule\n")
    solo_2 = ("module mux(input sel, input x, input y, output z);\n"
              "  assign z = sel ? x : y;\nendmodule\n")
    return [
        base_a,                                    # 0: canonical A
        base_b,                                    # 1: canonical B
        solo_1,                                    # 2: singleton
        "// variant copy\n" + base_a,              # 3: variant of 0
        base_a + "// trailing note\n",             # 4: variant of 0
        solo_2,                                    # 5: singleton
        "// another shifter\n" + base_b,           # 6: variant of 1
    ]


def _emissions():
    """``(band key, index)`` emissions over a dozen keys in four bands,
    so indices collide often."""
    return st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 30)), max_size=60,
    ).map(lambda raw: [((key % 4, f"k{key}"), index)
                       for key, index in raw])


class TestFamilyForest:
    def test_representative_is_minimum_index(self):
        forest = FamilyForest()
        forest.union(7, 3)
        forest.union(3, 9)
        assert forest.find(7) == forest.find(9) == 3
        assert forest.component_size_of(9) == 3
        assert forest.component_size_of(42) == 1

    @given(_emissions(), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_compressed_is_union_order_independent(self, emissions, rng):
        forward = collision_forest(emissions)
        shuffled = list(emissions)
        rng.shuffle(shuffled)
        backward = collision_forest(shuffled)
        assert forward.compressed() == backward.compressed()
        assert forward.component_sizes() == backward.component_sizes()

    @given(_emissions(), st.integers(1, 8), st.integers(0, 1000))
    @settings(deadline=None)
    def test_partitioned_merge_equals_global_forest(self, emissions,
                                                    n_partitions,
                                                    assignment_seed):
        """Partial forests over the emissions of each partition of the
        band keys, merged parent-side, reconstruct the global forest
        for *any* key → partition assignment — the spilled/in-memory
        identity in miniature."""
        def partition_of(key):
            return random.Random(
                f"{assignment_seed}:{key}").randrange(n_partitions)

        whole = collision_forest(emissions)
        merged = FamilyForest()
        for part in range(n_partitions):
            partial = collision_forest(
                [(key, index) for key, index in emissions
                 if partition_of(key) == part])
            merged.merge(partial.compressed())
        assert merged.compressed() == whole.compressed()
        assert merged.component_sizes() == whole.component_sizes()

    def test_collision_forest_joins_band_collisions(self):
        codes = _variant_codes()
        hasher = MinHasher(64)
        forest = collision_forest(
            (key, index) for index, code in enumerate(codes)
            for key in signature_band_keys(
                hasher.signature(tokenize_for_dedup(code)), 16))
        assert forest.find(3) == forest.find(4) == forest.find(0) == 0
        assert forest.find(6) == forest.find(1) == 1
        assert forest.find(2) != forest.find(0)


class TestEvidence:
    def test_module_names_ordered_unique_no_parse_needed(self):
        code = ("module a(); endmodule\nmodule b_2(); endmodule\n"
                "module a(); // redeclared, still once\n"
                "this does not parse (")
        assert module_names(code) == ["a", "b_2"]
        assert module_names("no modules here") == []

    def test_name_pattern_stem_jaccard(self):
        ev = name_pattern_evidence(["counter"], ["Counter_2"])
        assert ev.kind == NAME_PATTERN
        assert ev.confidence == 1.0
        assert "counter" in ev.detail
        partial = name_pattern_evidence(["counter", "fifo"], ["counter_3"])
        assert partial.confidence == 0.5

    def test_name_pattern_none_without_overlap(self):
        assert name_pattern_evidence(["alu"], ["uart"]) is None
        assert name_pattern_evidence([], ["uart"]) is None


class TestBuildFamilyArtifacts:
    @pytest.fixture(scope="class")
    def artifacts(self):
        codes = _variant_codes()
        return build_family_artifacts(
            codes, list(range(len(codes))), _meta_for,
            threshold=0.8, seed=3)

    def test_families_mirror_drop_decisions(self, artifacts):
        report, index = artifacts
        assert report.duplicate_of == {3: 0, 4: 0, 6: 1}
        assert index.n_families == 2
        assert index.n_variants == 3
        fam_a = index.family_of(3)
        assert fam_a.family_id == family_id_for(3, 0)
        assert fam_a.canonical_index == 0
        assert [v.index for v in fam_a.variants] == [3, 4]
        assert index.role_of(0) == "canonical"
        assert index.role_of(4) == "variant"
        assert index.role_of(2) == ""

    def test_similarities_are_the_verified_jaccards(self, artifacts):
        report, index = artifacts
        assert set(report.similarities) == set(report.duplicate_of)
        for dropped, similarity in report.similarities.items():
            assert similarity >= 0.8
            assert index.similarity_of(dropped) == similarity
        assert report.drop_pairs() == [
            (later, report.duplicate_of[later],
             report.similarities[later])
            for later in sorted(report.duplicate_of)]

    def test_every_variant_carries_lsh_evidence(self, artifacts):
        _report, index = artifacts
        for family in index.families:
            for variant in family.variants:
                kinds = [ev.kind for ev in variant.evidence]
                assert kinds[0] == LSH_BUCKET
                assert variant.evidence[0].confidence == variant.similarity

    def test_component_size_covers_the_family(self, artifacts):
        _report, index = artifacts
        for family in index.families:
            assert family.component_size >= family.size
            assert family.n_lsh_neighbours == (family.component_size
                                               - family.size)

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError, match="ascending"):
            build_family_artifacts(["a", "b"], [2, 1], _meta_for,
                                   threshold=0.8, seed=0)


class TestZeroRehash:
    def test_family_clustering_hashes_exactly_what_dedup_does(self):
        """Counter-exact: the family-aware build performs the same
        number of signature calls and shingle digests as plain dedup —
        clustering reuses the signatures, it never re-hashes."""
        codes = [f.content for f
                 in GitHubScrapeSimulator(seed=5).scrape(60)]
        plain = MinHasher(64)
        deduplicate(codes, threshold=0.8, hasher=plain)
        family = MinHasher(64)
        report, index = build_family_artifacts(
            codes, list(range(len(codes))), _meta_for,
            threshold=0.8, seed=5, hasher=family)
        assert family.n_signature_calls == plain.n_signature_calls \
            == len(codes)
        assert family.n_shingles_hashed == plain.n_shingles_hashed > 0
        assert index.n_families > 0  # the corpus does contain dupes

    def test_band_keys_derived_once_per_survivor(self, monkeypatch):
        """An in-memory curation derives each survivor's band keys once,
        for both the dedup buckets and the collision forest."""
        calls = []

        def counting(signature, bands):
            calls.append(bands)
            return signature_band_keys(signature, bands)
        for module in (dedup, families, streaming):
            monkeypatch.setattr(module, "signature_band_keys", counting)
        raw = GitHubScrapeSimulator(seed=0).scrape(200)
        report = CurationPipeline(seed=0).run(raw).report
        assert report.funnel.removed["dedup"] > 0
        assert len(calls) == report.funnel.after_module_decl

    def test_injected_band_keys_must_pair_with_shingles(self):
        with pytest.raises(ValueError):
            deduplicate(["module a(); endmodule"], band_keys=[[(0, "k")]])


class TestKeepVariants:
    @pytest.fixture(scope="class")
    def both(self):
        raw = GitHubScrapeSimulator(seed=9).scrape(150)
        dropped = CurationPipeline(seed=9).run(raw)
        kept = CurationPipeline(seed=9, keep_variants=True).run(raw)
        return dropped, kept

    def test_variant_rows_survive_with_tags(self, both):
        dropped, kept = both
        variants = [e for e in kept.dataset if e.family_role == "variant"]
        assert variants
        assert len(kept.dataset) == len(dropped.dataset) + len(variants)
        for entry in variants:
            assert entry.family_id
            assert entry.family_similarity >= 0.8

    def test_canonical_stream_is_unchanged(self, both):
        dropped, kept = both
        canonical_codes = [e.code for e in kept.dataset
                           if e.family_role != "variant"]
        assert canonical_codes == [e.code for e in dropped.dataset]

    def test_funnel_sees_zero_dedup_drops(self, both):
        _dropped, kept = both
        funnel = kept.report.funnel
        assert funnel.after_dedup == funnel.after_module_decl
        assert kept.report.trace.stage("dedup").n_dropped == 0

    def test_family_structure_identical_between_modes(self, both):
        dropped, kept = both
        a = dropped.report.families
        b = kept.report.families
        assert a.n_families == b.n_families
        assert a.size_histogram() == b.size_histogram()
        assert [f.family_id for f in a.families] == [
            f.family_id for f in b.families]

    def test_variant_entry_ids_attached_only_in_keep_mode(self, both):
        dropped, kept = both
        assert all(v.entry_id == ""
                   for f in dropped.report.families.families
                   for v in f.variants)
        attached = [v.entry_id
                    for f in kept.report.families.families
                    for v in f.variants if v.entry_id]
        assert attached  # surviving variants point at their rows


class TestPipelineReportCarriesFamilies:
    def test_round_trip_and_descriptions(self):
        raw = GitHubScrapeSimulator(seed=9).scrape(150)
        result = CurationPipeline(seed=9).run(raw)
        report = result.report
        assert report.families is not None
        assert report.families.n_families > 0
        described = [f for f in report.families.families
                     if f.descriptions]
        assert described  # canonicals in the dataset get descriptions
        assert described[0].descriptions["module"]
        assert isinstance(described[0].descriptions["blocks"], list)
        restored = PipelineReport.from_json(report.to_json())
        assert restored.families.to_json() == report.families.to_json()

    def test_summary_mentions_families(self):
        raw = GitHubScrapeSimulator(seed=9).scrape(150)
        report = CurationPipeline(seed=9).run(raw).report
        assert any(line.startswith("design families:")
                   for line in report.summary_lines())


#: The committed FamilyReport layout (sorted keys, compact).  Frozen —
#: change the code until these bytes come back, not the literal.
GOLDEN_FAMILY_JSON = (
    '{"families": [{"canonical_entry_id": "e-0002", "canonical_index": 2, '
    '"canonical_modules": ["counter"], "canonical_origin": "github", '
    '"canonical_path": "rtl/counter.v", "component_size": 4, '
    '"descriptions": {"blocks": ["clocked always block"], '
    '"module": "A counter."}, "family_id": "fam-3-000002", '
    '"n_lsh_neighbours": 2, "variants": [{"entry_id": "", "evidence": '
    '[{"confidence": 0.875, "detail": "signatures collided in an LSH '
    'band; exact Jaccard verified at drop time", "kind": "LSH_BUCKET"}, '
    '{"confidence": 1.0, "detail": "shared module-name stem(s): counter", '
    '"kind": "NAME_PATTERN"}], "index": 5, "modules": ["counter_2"], '
    '"origin": "github", "path": "rtl/counter_2.v", '
    '"similarity": 0.875}]}], "n_families": 1, "n_variants": 1, '
    '"schema": "pyranet/family-report/v1", "seed": 3, '
    '"size_histogram": {"2": 1}, "threshold": 0.8}'
)


def _golden_report() -> FamilyReport:
    return FamilyReport(seed=3, threshold=0.8, families=[Family(
        family_id="fam-3-000002",
        canonical_index=2,
        canonical_path="rtl/counter.v",
        canonical_origin="github",
        canonical_modules=["counter"],
        canonical_entry_id="e-0002",
        component_size=4,
        descriptions={"module": "A counter.",
                      "blocks": ["clocked always block"]},
        variants=[FamilyVariant(
            index=5, similarity=0.875, path="rtl/counter_2.v",
            origin="github", modules=["counter_2"],
            evidence=[
                Evidence(kind=LSH_BUCKET, confidence=0.875,
                         detail="signatures collided in an LSH band; "
                                "exact Jaccard verified at drop time"),
                Evidence(kind=NAME_PATTERN, confidence=1.0,
                         detail="shared module-name stem(s): counter"),
            ])],
    )])


class TestGoldenBytes:
    def test_to_json_is_byte_identical(self):
        assert _golden_report().to_json() == GOLDEN_FAMILY_JSON

    def test_round_trip_preserves_bytes(self):
        restored = FamilyReport.from_json(GOLDEN_FAMILY_JSON)
        assert restored.to_json() == GOLDEN_FAMILY_JSON

    def test_size_histogram_numeric_key_order(self):
        report = FamilyReport(families=[
            Family(family_id=family_id_for(0, i), canonical_index=i,
                   variants=[FamilyVariant(index=100 + j, similarity=1.0)
                             for j in range(n)])
            for i, n in enumerate([1, 11, 1, 2])])
        assert list(report.size_histogram()) == ["2", "3", "12"]
        assert report.size_histogram() == {"2": 2, "3": 1, "12": 1}
