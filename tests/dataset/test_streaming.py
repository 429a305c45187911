"""Golden bytes of the curation dataflow.

:class:`CurationPipeline` must produce the pinned bytes — entries,
layer assignment, funnel, per-stage counts and drop histograms, design
families — under every executor mode, batch size, partition count,
spill mode, and across a kill + resume.  The digests were taken from
the engine-based implementation this dataflow replaced, on the same
corpus.
"""

import hashlib
import json
import random

import pytest

from repro.core import PyraNet
from repro.corpus.github_sim import GitHubScrapeSimulator
from repro.corpus.keywords import build_keyword_database
from repro.corpus.llm_sim import SimulatedCommercialLLM
from repro.dataset.streaming import (
    CurationPipeline,
    chain_batches,
    generated_batches,
    raw_file_batches,
)
from repro.obs import Observability
from repro.pipeline import ParallelExecutor
from repro.resilience import Checkpointer, Resilience
from repro.service.handlers import dataset_digest

SEED = 0
N_FILES = 240
N_PROMPTS = 3

#: sha256 digests of the seed-0 corpus's curation outputs.
GOLDEN = {
    "dataset": "2b9fbb5685c61c6fcd609d412a41dd93"
               "2317426c92546e7b9c247402c3c2bd15",
    "funnel": "cdd941c917984d53f6fccd7e1aa32567"
              "294dbc0fd8e812b724a490e3ffd82990",
    "layers": "5429dcf96d05e4602c75999bc9525f52"
              "656d8982566b547ddd9a038c7ef00441",
    "families": "34294595c41538841936b761c2e9170f"
                "503f592e98eeeb09ef3e10a057577dc6",
    "stages": "febae9359a42ecaf23ce421be870cc81"
              "ea55f62829fb570183c690253a369fbe",
}
N_ENTRIES = 76


def make_raw_files():
    return GitHubScrapeSimulator(seed=SEED).scrape(N_FILES)


def make_generated():
    db = build_keyword_database()
    llm = SimulatedCommercialLLM(seed=SEED + 1)
    rng = random.Random(SEED + 2)
    generated = []
    for _ in range(N_PROMPTS):
        generated.extend(llm.generate_batch(db.sample(rng), n_queries=8))
    return generated


@pytest.fixture(scope="module")
def corpus():
    return make_raw_files(), make_generated()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dataset_bytes(dataset) -> bytes:
    return "\n".join(
        json.dumps(entry.to_dict(), sort_keys=True) for entry in dataset
    ).encode("utf-8")


def digests(result):
    """The pinned digests of one curation result."""
    report = result.report
    return {
        "dataset": hashlib.sha256(dataset_bytes(result.dataset)).hexdigest(),
        "funnel": sha256(json.dumps(report.funnel.to_dict(), sort_keys=True)),
        "layers": sha256(json.dumps(report.layers.to_dict(), sort_keys=True)),
        "families": sha256(report.families.to_json()),
        "stages": sha256(json.dumps(
            [[m.name, m.n_in, m.n_out, m.drops] for m in report.trace.stages],
            sort_keys=True)),
    }


def assert_golden(result):
    assert len(result.dataset) == N_ENTRIES
    assert digests(result) == GOLDEN


class TestGoldenParity:
    def test_serial(self, corpus):
        raw_files, generated = corpus
        result = CurationPipeline(seed=SEED).run(raw_files, generated)
        assert_golden(result)

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_batch_size_invariant(self, corpus, batch_size):
        raw_files, generated = corpus
        result = CurationPipeline(
            seed=SEED, batch_size=batch_size).run(raw_files, generated)
        assert_golden(result)

    @pytest.mark.parametrize("n_partitions", [1, 3, 16])
    def test_partition_count_invariant(self, corpus, n_partitions,
                                       tmp_path):
        # Only a spilled run reaches the partitioned reduce.
        raw_files, generated = corpus
        result = CurationPipeline(
            seed=SEED, n_partitions=n_partitions,
            spill_dir=tmp_path / "spill").run(raw_files, generated)
        assert_golden(result)

    def test_thread_executor(self, corpus):
        raw_files, generated = corpus
        result = CurationPipeline(
            seed=SEED, batch_size=32,
            executor=ParallelExecutor(mode="thread", max_workers=4),
        ).run(raw_files, generated)
        assert_golden(result)

    def test_process_executor(self, corpus):
        raw_files, generated = corpus
        executor = ParallelExecutor(mode="process", max_workers=2)
        result = CurationPipeline(
            seed=SEED, batch_size=64, executor=executor,
        ).run(raw_files, generated)
        assert_golden(result)
        assert not executor.fell_back

    def test_disk_spill(self, corpus, tmp_path):
        raw_files, generated = corpus
        spill = tmp_path / "spill"
        result = CurationPipeline(
            seed=SEED, batch_size=32, spill_dir=spill,
        ).run(raw_files, generated)
        assert_golden(result)
        leftovers = [p for p in spill.rglob("*") if p.is_file()]
        assert leftovers == []

    def test_trace_is_streaming_branded(self, corpus):
        raw_files, generated = corpus
        result = CurationPipeline(seed=SEED, batch_size=32).run(
            raw_files, generated)
        trace = result.report.trace
        assert trace.pipeline == "curation"
        assert trace.meta["streaming"]["batch_size"] == 32
        assert trace.meta["streaming"]["spilled"] is False


class TestStreamSources:
    def test_lazy_scrape_source(self):
        """A true batch stream (nothing materialised) gives the golden
        bytes — iter_scrape emits the same population as scrape for the
        same seed."""
        scraper = GitHubScrapeSimulator(seed=SEED)
        source = chain_batches(
            raw_file_batches(scraper.iter_scrape(N_FILES, batch_size=50)),
            generated_batches(make_generated(), batch_size=50),
        )
        result = CurationPipeline(seed=SEED, batch_size=50).run_stream(
            source, source_token="test-lazy")
        assert_golden(result)

    def test_curate_to_store(self, tmp_path):
        from repro.store import StoreReader

        scraper = GitHubScrapeSimulator(seed=SEED)
        source = chain_batches(
            raw_file_batches(scraper.iter_scrape(N_FILES, batch_size=64)),
            generated_batches(make_generated(), batch_size=64),
        )
        out = CurationPipeline(seed=SEED, batch_size=64).curate_to_store(
            source, tmp_path / "store", source_token="test-store")
        assert out.manifest.n_entries == N_ENTRIES
        stored = StoreReader(tmp_path / "store").read_all()
        assert (hashlib.sha256(dataset_bytes(stored)).hexdigest()
                == GOLDEN["dataset"])
        assert (sha256(json.dumps(out.report.funnel.to_dict(),
                                  sort_keys=True))
                == GOLDEN["funnel"])

    def test_observability_spans_and_rss(self, corpus):
        raw_files, generated = corpus
        obs = Observability()
        CurationPipeline(seed=SEED, obs=obs).run(raw_files, generated)
        report = obs.run_report().to_dict()
        names = [span["name"] for span in report["spans"]]
        for expected in ("pipeline.curation", "curation.empty_broken",
                         "curation.dedup", "curation.syntax_check"):
            assert expected in names
        assert "proc.rss_peak_bytes" in report["metrics"]["gauges"]


class TestProcessPool:
    def test_front_end_counts_reach_the_report_in_any_mode(self):
        """Each label batch's memo counts are added to the run's
        counters, so a process-pool run reports what a serial one
        does."""
        raw_files = GitHubScrapeSimulator(seed=3).scrape(120)

        def parse_counts(executor):
            obs = Observability()
            CurationPipeline(seed=3, obs=obs, executor=executor).run(
                raw_files)
            counters = obs.run_report().metrics["counters"]
            return (counters["verilog.frontend.parse.hit"],
                    counters["verilog.frontend.parse.miss"])

        serial = parse_counts(ParallelExecutor.serial())
        pooled = parse_counts(ParallelExecutor(mode="process",
                                               max_workers=2))
        assert serial == pooled
        assert serial[0] > 0 and serial[1] > 0

    def test_warm_facade_run_under_a_process_pool(self, tmp_path):
        """``PyraNet(cache_dir=...)`` reaches curation whatever the
        executor: a second build over the same corpus recomputes no
        label and gives the same dataset."""

        def build():
            pyranet = PyraNet(
                seed=4, cache_dir=str(tmp_path / "cache"),
                executor=ParallelExecutor(mode="process", max_workers=2))
            pyranet.build_dataset(n_github_files=60, n_llm_prompts=2,
                                  n_queries_per_prompt=2)
            counters = pyranet.run_report().metrics["counters"]
            return dataset_digest(pyranet.dataset), counters

        cold_digest, cold = build()
        warm_digest, warm = build()
        assert warm_digest == cold_digest
        assert cold["cache.curation.misses"] > 0
        assert warm["cache.curation.misses"] == 0
        assert warm["cache.curation.hits"] > 0


class _Boom(BaseException):
    """Tears through every retry/fallback layer, like a SIGKILL."""


class _CrashAfter:
    """Wrap a phase worker to crash after ``n`` successful batches."""

    def __init__(self, fn, n):
        self.fn = fn
        self.remaining = n

    def __call__(self, payload):
        if self.remaining == 0:
            raise _Boom()
        self.remaining -= 1
        return self.fn(payload)


class TestCrashResume:
    def run_streaming(self, corpus, journal, batch_size=24):
        raw_files, generated = corpus
        res = Resilience(checkpointer=Checkpointer(journal, interval=4))
        pipeline = CurationPipeline(
            seed=SEED, batch_size=batch_size, resilience=res)
        return pipeline.run(raw_files, generated), res

    @pytest.mark.parametrize("target,n_ok", [("_filter_sign_batch", 3),
                                             ("_label_batch", 2)])
    def test_resume_after_crash(self, corpus, tmp_path, monkeypatch,
                                target, n_ok):
        import repro.dataset.streaming as streaming_mod

        journal = tmp_path / "journal"
        crasher = _CrashAfter(getattr(streaming_mod, target), n_ok)
        monkeypatch.setattr(streaming_mod, target, crasher)
        with pytest.raises(_Boom):
            self.run_streaming(corpus, journal)
        monkeypatch.undo()

        result, res = self.run_streaming(corpus, journal)
        assert_golden(result)
        assert res.summary()["resumed_batches"] > 0

    def test_finished_journal_reruns_from_scratch(self, corpus, tmp_path):
        journal = tmp_path / "journal"
        first, _ = self.run_streaming(corpus, journal)
        assert_golden(first)
        again, res = self.run_streaming(corpus, journal)
        assert_golden(again)
        assert res.summary()["resumed_batches"] == 0

    def test_different_config_does_not_resume(self, corpus, tmp_path):
        """The checkpoint signature covers the run's configuration, so
        a journal from one batch size never feeds a run with another."""
        journal = tmp_path / "journal"
        self.run_streaming(corpus, journal, batch_size=24)
        result, res = self.run_streaming(corpus, journal, batch_size=48)
        assert_golden(result)
        assert res.summary()["resumed_batches"] == 0
