"""Repair-trajectory source: determinism, records, streaming path."""

import json

import pytest

from repro.corpus.repair_source import (
    RepairTrajectoryResult,
    candidate_seed,
    repair_trajectories,
    repair_trajectory_batches,
)
from repro.dataset.streaming import CurationPipeline
from repro.obs import Observability
from repro.pipeline import ParallelExecutor
from repro.store.manifest import StoreManifest
from repro.store.reader import StoreReader
from repro.verilog import check


@pytest.fixture(scope="module")
def run():
    return repair_trajectories(n_candidates=12, seed=7, budget=2)


class TestCandidateSeed:
    def test_stable(self):
        assert candidate_seed(7, 3) == candidate_seed(7, 3)

    def test_distinct(self):
        seeds = {candidate_seed(7, i) for i in range(64)}
        seeds |= {candidate_seed(8, i) for i in range(64)}
        assert len(seeds) == 128


class TestTrajectories:
    def test_produces_fixed_records(self, run):
        assert run.n_candidates == 12
        assert run.records, "no candidate was repaired"
        assert 0.0 < run.fix_rate() <= 1.0

    def test_records_carry_repair_origin(self, run):
        for content, provenance in run.records:
            assert provenance["origin"] == "repair"
            assert provenance["path"].startswith("repair/")
            assert check(content).status != "syntax"

    def test_prompt_embeds_broken_source_and_feedback(self, run):
        _, provenance = run.records[0]
        prompt = provenance["description"]
        assert "Repair the broken Verilog module" in prompt
        assert "// broken source:" in prompt
        assert "// applied repairs:" in prompt

    def test_transcripts_round_trip(self, run):
        for transcript in run.transcripts():
            assert transcript.budget == 2

    def test_summary_shape(self, run):
        summary = run.summary()
        assert summary["n_candidates"] == 12
        assert summary["n_records"] == len(run.records)
        assert 0.0 <= summary["fix_rate"] <= 1.0
        assert summary["total_iterations"] >= summary["n_fixed"]

    def test_histogram_and_counters_recorded(self):
        obs = Observability()
        repair_trajectories(n_candidates=4, seed=1, budget=1, obs=obs)
        assert obs.registry.histogram("repair.iterations").count == 4
        assert obs.registry.counter(
            "repair.trajectories.candidates").value == 4


class TestExecutorIndependence:
    def test_serial_thread_process_identical(self):
        blobs = []
        for executor in (ParallelExecutor.serial(),
                         ParallelExecutor(mode="thread", max_workers=3),
                         ParallelExecutor(mode="process", max_workers=2)):
            result = repair_trajectories(
                n_candidates=6, seed=3, budget=2, executor=executor)
            blobs.append(json.dumps(result.payloads, sort_keys=True))
        assert blobs[0] == blobs[1] == blobs[2]


class TestBatches:
    def test_batch_sizes(self):
        batches = list(repair_trajectory_batches(
            n_candidates=12, seed=7, budget=2, batch_size=3))
        flat = [record for batch in batches for record in batch]
        assert all(len(batch) <= 3 for batch in batches)
        assert len(flat) == len(
            repair_trajectories(n_candidates=12, seed=7,
                                budget=2).records)


class TestStreamingIntegration:
    def test_curates_into_store_with_repair_facet(self, tmp_path):
        pipeline = CurationPipeline(seed=7)
        outcome = pipeline.curate_to_store(
            repair_trajectory_batches(n_candidates=12, seed=7,
                                      budget=2, batch_size=4),
            tmp_path / "store", source_token="repair:7")
        facets = StoreManifest.load(tmp_path / "store").facets()
        assert facets["origins"].get("repair", 0) > 0
        assert facets["origins"]["repair"] <= 12
        entries = [entry for entry in StoreReader(tmp_path / "store")
                   if entry.origin == "repair"]
        assert len(entries) == facets["origins"]["repair"]
        assert outcome.manifest.origin_histogram() == facets["origins"]
