"""Curation throughput — the curation dataflow's perf baseline.

Runs the same curation three ways — serial executor, thread-pool
executor, and serial again over a warm result cache — and records the
wall times, per-stage split, and cache hit rate into the benchmark JSON
(``--benchmark-json``) via ``extra_info``, so later PRs have a
trajectory to beat.  Also asserts the dataflow's contract: every mode
produces the identical dataset.
"""

from __future__ import annotations

from repro.corpus.github_sim import GitHubScrapeSimulator
from repro.dataset.pipeline import CurationPipeline
from repro.pipeline import ParallelExecutor, ResultCache


def _curate(raw_files, executor=None, cache=None):
    pipeline = CurationPipeline(seed=0, executor=executor, cache=cache)
    return pipeline.run(raw_files)


def test_pipeline_throughput(benchmark, scale, capsys):
    raw_files = GitHubScrapeSimulator(seed=0).scrape(scale.n_github_files)

    serial = benchmark.pedantic(
        _curate, args=(raw_files,), rounds=1, iterations=1
    )
    parallel = _curate(
        raw_files, executor=ParallelExecutor(mode="thread", max_workers=4)
    )
    cache = ResultCache()
    _curate(raw_files, cache=cache)  # cold fill
    warm = _curate(raw_files, cache=cache)

    serial_s = serial.report.trace.wall_time_s
    parallel_s = parallel.report.trace.wall_time_s
    warm_s = warm.report.trace.wall_time_s
    # Per-stage deltas from the warm run only — the run-level cache
    # stats are cumulative across the cold fill too.
    warm_hits = sum(m.cache_hits for m in warm.report.trace.stages)
    warm_misses = sum(m.cache_misses for m in warm.report.trace.stages)
    hit_rate = warm_hits / max(warm_hits + warm_misses, 1)

    benchmark.extra_info["n_files"] = len(raw_files)
    benchmark.extra_info["serial_s"] = round(serial_s, 4)
    benchmark.extra_info["parallel_s"] = round(parallel_s, 4)
    benchmark.extra_info["warm_cache_s"] = round(warm_s, 4)
    benchmark.extra_info["warm_cache_hit_rate"] = round(hit_rate, 4)
    benchmark.extra_info["stage_wall_s"] = {
        metrics.name: round(metrics.wall_time_s, 4)
        for metrics in serial.report.trace.stages
    }

    with capsys.disabled():
        print()
        print("Curation pipeline throughput (CurationPipeline)")
        print(f"  corpus            : {len(raw_files)} files -> "
              f"{len(serial.dataset)} entries")
        print(f"  serial            : {serial_s:8.3f} s")
        print(f"  thread x4         : {parallel_s:8.3f} s")
        print(f"  warm result cache : {warm_s:8.3f} s "
              f"(hit rate {100 * hit_rate:.0f}%)")
        slowest = max(serial.report.trace.stages,
                      key=lambda metrics: metrics.wall_time_s)
        print(f"  slowest stage     : {slowest.name} "
              f"({slowest.wall_time_s:.3f} s)")

    # Same records whatever the execution strategy.
    for other in (parallel, warm):
        assert [e.to_dict() for e in other.dataset] == [
            e.to_dict() for e in serial.dataset]
        assert other.report.funnel == serial.report.funnel
    # The warm pass re-runs only dedup/assembly; per-file work all hits.
    assert hit_rate > 0.9
    assert warm_s < serial_s
