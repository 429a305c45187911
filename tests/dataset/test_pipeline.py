"""Integration tests for curation: layering, pipeline, corruption, IO."""

import dataclasses
import itertools
import random

import pytest

from repro.corpus.github_sim import GitHubScrapeSimulator, QualityProfile
from repro.dataset.complexity import classify_code
from repro.dataset.corrupt import shuffle_labels
from repro.dataset.dedup import dedup_keep_indices
from repro.dataset.describe import describe_source
from repro.dataset.io import load_jsonl, save_jsonl
from repro.dataset.layering import assign_layers, layer_for
from repro.dataset.pipeline import (
    CurationPipeline,
    PipelineReport,
    build_pyranet,
)
from repro.dataset.ranking import score_code
from repro.dataset.records import (
    CompileStatus,
    Complexity,
    DatasetEntry,
    PyraNetDataset,
)
from repro.pipeline import ParallelExecutor
from repro.pipeline.cache import ResultCache, content_key
from repro.pipeline.diskcache import DiskCache

from .reference_funnel import run_filter_funnel


def _legacy_curate(raw_files, seed):
    """The seed implementation: one monolithic loop over the legacy
    filter funnel.  Kept here as the golden reference the curation
    dataflow must reproduce byte for byte."""
    contents = [f.content for f in raw_files]
    provenance = [
        {"origin": f.origin, "path": f.path, "description": None}
        for f in raw_files
    ]
    survivors, funnel = run_filter_funnel(
        contents, dedup=lambda texts: dedup_keep_indices(texts, 0.8)
    )
    dataset = PyraNetDataset()
    for position, survivor in enumerate(survivors):
        meta = provenance[survivor.index]
        status = (
            CompileStatus.CLEAN
            if survivor.check_result.status == "clean"
            else CompileStatus.DEPENDENCY
        )
        detail = ""
        if status is CompileStatus.DEPENDENCY:
            issues = survivor.check_result.dependency_issues
            detail = issues[0].message if issues else "dependency issues"
        dataset.add(DatasetEntry(
            entry_id=f"pyranet-{seed}-{position:06d}",
            code=survivor.content,
            description=meta["description"]
            or describe_source(survivor.content),
            ranking=score_code(survivor.content),
            complexity=classify_code(survivor.content),
            compile_status=status,
            compile_detail=detail,
            origin=meta["origin"],
            source_path=meta["path"],
            module_names=list(survivor.check_result.modules),
        ))
    layers = assign_layers(dataset.entries)
    return dataset, funnel, layers


def _entry(ranking, status=CompileStatus.CLEAN, entry_id="e"):
    return DatasetEntry(entry_id=entry_id, code="module m; endmodule",
                        ranking=ranking, compile_status=status)


class TestLayering:
    @pytest.mark.parametrize("ranking,layer", [
        (20, 1), (19, 2), (15, 2), (14, 3), (10, 3),
        (9, 4), (5, 4), (4, 5), (1, 5), (0, 6),
    ])
    def test_rank_ranges(self, ranking, layer):
        assert layer_for(_entry(ranking)) == layer

    def test_dependency_always_layer6(self):
        entry = _entry(20, CompileStatus.DEPENDENCY)
        assert layer_for(entry) == 6

    def test_assign_layers_populates_report(self):
        entries = [_entry(r, entry_id=str(r)) for r in (20, 18, 12, 7, 3, 0)]
        report = assign_layers(entries)
        assert report.sizes == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
        assert all(e.layer > 0 for e in entries)


class TestPipeline:
    @pytest.fixture(scope="class")
    def curated(self):
        scraper = GitHubScrapeSimulator(seed=11)
        pipeline = CurationPipeline(seed=11)
        return pipeline.run(scraper.scrape(250))

    def test_funnel_monotone(self, curated):
        funnel = curated.report.funnel
        assert (funnel.collected >= funnel.after_empty_broken
                >= funnel.after_module_decl >= funnel.after_dedup
                >= funnel.after_syntax)

    def test_no_syntax_entries_survive(self, curated):
        for entry in curated.dataset:
            assert entry.compile_status is not CompileStatus.SYNTAX

    def test_layers_1_to_5_compile_clean(self, curated):
        for entry in curated.dataset:
            if 1 <= entry.layer <= 5:
                assert entry.compile_status is CompileStatus.CLEAN

    def test_layer6_is_dependency_or_rank0(self, curated):
        for entry in curated.dataset.layer(6):
            assert (entry.compile_status is CompileStatus.DEPENDENCY
                    or entry.ranking == 0)

    def test_every_entry_labelled(self, curated):
        for entry in curated.dataset:
            assert entry.description
            assert 0 <= entry.ranking <= 20
            assert isinstance(entry.complexity, Complexity)
            assert entry.module_names

    def test_duplicates_removed(self, curated):
        codes = [e.code for e in curated.dataset]
        assert len(set(codes)) == len(codes)

    def test_curriculum_order_sorted(self, curated):
        for layer in curated.dataset.trainable_layers():
            ordered = curated.dataset.curriculum_order(layer)
            tiers = [int(e.complexity) for e in ordered]
            assert tiers == sorted(tiers)

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_golden_equivalence_with_seed_implementation(self, seed, mode):
        """The curation dataflow reproduces the monolithic seed
        pipeline exactly: same entries (ids, codes, labels), same
        funnel."""
        raw_files = GitHubScrapeSimulator(seed=seed).scrape(150)
        ref_dataset, ref_funnel, ref_layers = _legacy_curate(raw_files, seed)
        result = CurationPipeline(
            seed=seed, executor=ParallelExecutor(mode=mode, max_workers=4)
        ).run(raw_files)
        assert result.report.funnel == ref_funnel
        assert len(result.dataset) == len(ref_dataset)
        for ours, reference in zip(result.dataset, ref_dataset):
            # The seed pipeline predates design-family provenance and
            # the formal tier, so compare everything but those tags…
            assert dataclasses.replace(
                ours, family_id="", family_role="",
                n_family_variants=0, family_similarity=0.0,
                verified=False, verified_detail="") == reference
            # …and check the tags are internally consistent instead.
            if ours.family_role:
                assert ours.family_role == "canonical"
                assert ours.family_id.startswith(f"fam-{seed}-")
        assert result.report.layers.sizes == ref_layers.sizes

    def test_trace_reports_every_stage(self, curated):
        trace = curated.report.trace
        names = [m.name for m in trace.stages]
        assert names == ["empty_broken", "module_decl", "dedup",
                         "syntax_check", "rank_label", "formal_verify",
                         "describe", "assemble", "layer"]
        assert all(m.wall_time_s >= 0.0 for m in trace.stages)
        funnel = curated.report.funnel
        assert trace.stage("empty_broken").n_in == funnel.collected
        assert trace.stage("syntax_check").n_out == funnel.after_syntax
        assert trace.drop_histogram()  # something always gets dropped

    def test_trace_records_dedup_drop_reason(self, curated):
        dedup = curated.report.trace.stage("dedup")
        assert dedup.n_dropped == dedup.drops.get("duplicate", 0)

    @pytest.mark.parametrize("literal", ["4'b1021", "6'o79", "8'd1f"])
    def test_literal_digit_outside_base_drops_as_syntax_error(self,
                                                              literal):
        from repro.corpus.github_sim import RawFile

        good = ("module keep(input [7:0] a, output [7:0] y);\n"
                "  assign y = a;\nendmodule\n")
        bad = ("module lit(output [7:0] y);\n"
               f"  assign y = {literal};\nendmodule\n")
        result = CurationPipeline(seed=0).run(
            [RawFile(path="keep.v", content=good),
             RawFile(path="lit.v", content=bad)])
        assert [e.source_path for e in result.dataset] == ["keep.v"]
        syntax = result.report.trace.stage("syntax_check")
        assert syntax.drops == {"syntax error": 1}

    def test_report_json_round_trip(self, curated):
        restored = PipelineReport.from_json(curated.report.to_json())
        assert restored.funnel == curated.report.funnel
        assert restored.layers == curated.report.layers
        assert restored.trace.to_dict() == curated.report.trace.to_dict()

    def test_shared_cache_hits_on_second_run(self):
        from repro.pipeline import ResultCache

        raw_files = GitHubScrapeSimulator(seed=5).scrape(80)
        cache = ResultCache()
        pipeline = CurationPipeline(seed=5, cache=cache)
        first = pipeline.run(raw_files)
        second = pipeline.run(raw_files)
        syntax = second.report.trace.stage("syntax_check")
        assert syntax.cache_misses == 0
        assert syntax.cache_hits > 0
        assert [e.code for e in first.dataset] == [
            e.code for e in second.dataset]

    def test_build_pyranet_end_to_end(self):
        result = build_pyranet(n_github_files=80, n_llm_prompts=3,
                               n_queries_per_prompt=4, seed=2)
        assert len(result.dataset) > 10
        assert result.report.n_generated_llm == 12
        assert any("llm" == e.origin for e in result.dataset)
        assert any("github" == e.origin for e in result.dataset)
        lines = result.report.summary_lines()
        assert any("layer 6" in line for line in lines)


class TestPipelineContract:
    @pytest.mark.parametrize("field", ["batch_size", "n_partitions"])
    def test_sizes_below_one_are_rejected_up_front(self, tmp_path, field):
        with pytest.raises(ValueError, match=field):
            CurationPipeline(spill_dir=tmp_path, **{field: 0})

    def test_label_cache_entries_without_a_schema_are_not_served(
            self, tmp_path):
        """A label outcome stored under the schema-less key of earlier
        versions (here: "syntax error" for every file, every need) must
        miss on a warm run instead of being served."""
        raw = GitHubScrapeSimulator(seed=4).scrape(40)
        expected = [entry.to_dict() for entry in
                    CurationPipeline(seed=4).run(raw).dataset]
        stale = DiskCache(tmp_path)
        for raw_file, needs in itertools.product(
                raw, itertools.product((False, True), repeat=2)):
            stale.put(content_key("curation/label", raw_file.content,
                                  *needs), None)
        cache = ResultCache(disk=DiskCache(tmp_path))
        warm = CurationPipeline(seed=4, cache=cache).run(raw)
        assert [entry.to_dict() for entry in warm.dataset] == expected
        assert len(warm.dataset) > 0


class TestCorruption:
    def _dataset(self):
        result = build_pyranet(n_github_files=60, n_llm_prompts=2,
                               n_queries_per_prompt=3, seed=4)
        return result.dataset

    def test_shuffle_moves_every_label(self):
        dataset = self._dataset()
        shuffled = shuffle_labels(dataset, seed=1)
        assert len(shuffled) == len(dataset)
        moved = sum(
            1 for a, b in zip(dataset.entries, shuffled.entries)
            if a.description != b.description
        )
        # A derangement moves all labels except accidental equals.
        assert moved > 0.7 * len(dataset)

    def test_codes_unchanged(self):
        dataset = self._dataset()
        shuffled = shuffle_labels(dataset, seed=1)
        assert [e.code for e in dataset] == [e.code for e in shuffled]

    def test_original_untouched(self):
        dataset = self._dataset()
        before = [e.description for e in dataset]
        shuffle_labels(dataset, seed=2)
        assert [e.description for e in dataset] == before

    def test_multiset_of_rankings_preserved(self):
        dataset = self._dataset()
        shuffled = shuffle_labels(dataset, seed=3)
        assert sorted(e.ranking for e in dataset) == sorted(
            e.ranking for e in shuffled)


class TestIO:
    def test_roundtrip(self, tmp_path):
        result = build_pyranet(n_github_files=40, n_llm_prompts=2,
                               n_queries_per_prompt=3, seed=6)
        path = tmp_path / "pyranet.jsonl"
        n = save_jsonl(result.dataset, path)
        assert n == len(result.dataset)
        loaded = load_jsonl(path)
        assert len(loaded) == len(result.dataset)
        for a, b in zip(result.dataset, loaded):
            assert a.code == b.code
            assert a.ranking == b.ranking
            assert a.complexity == b.complexity
            assert a.compile_status == b.compile_status
            assert a.layer == b.layer

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"not": "closed"\n')
        with pytest.raises(ValueError):
            load_jsonl(path)
