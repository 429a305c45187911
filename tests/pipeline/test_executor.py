"""ParallelExecutor.map: every mode, order preservation, serial fallback."""

import os

import pytest

from repro.corpus.github_sim import GitHubScrapeSimulator
from repro.dataset.streaming import CurationPipeline
from repro.pipeline import ParallelExecutor


# module-level so the process pool can pickle it
def _double(x):
    return x * 2


class TestParallelExecutor:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_map_matches_serial_loop(self, mode):
        executor = ParallelExecutor(mode=mode, max_workers=2)
        items = list(range(23))
        assert executor.map(_double, items) == [x * 2 for x in items]
        # Deterministic order regardless of mode; a pool never fell
        # back on picklable module-level work.
        assert not executor.fell_back

    def test_unpicklable_work_falls_back_to_serial(self):
        executor = ParallelExecutor(mode="process", max_workers=2)
        offset = 10
        result = executor.map(lambda x: x + offset, list(range(8)))
        assert result == [x + 10 for x in range(8)]
        assert executor.fell_back

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            ParallelExecutor(mode="fibers")

    def test_fn_errors_propagate_in_thread_mode(self):
        executor = ParallelExecutor(mode="thread", max_workers=2)

        def boom(x):
            raise KeyError(x)

        with pytest.raises(KeyError):
            executor.map(boom, list(range(4)))

    def test_chunking_covers_all_items(self):
        executor = ParallelExecutor(mode="thread", max_workers=4,
                                    chunk_size=3)
        items = list(range(10))
        assert executor.map(_double, items) == [x * 2 for x in items]


class TestSerialDescription:
    """A serial executor's report is the same on every host."""

    SERIAL = {"mode": "serial", "max_workers": 1}

    def test_serial_holds_one_worker(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert ParallelExecutor.serial().describe() == self.SERIAL
        assert ParallelExecutor(mode="thread").max_workers == 8

    def test_default_curation_trace(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        raw_files = GitHubScrapeSimulator(seed=0).scrape(20)
        result = CurationPipeline(seed=0).run(raw_files)
        assert result.report.trace.meta["executor"] == self.SERIAL
