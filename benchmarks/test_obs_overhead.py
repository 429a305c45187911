"""Observability overhead — the cost of telemetry on a real run.

Runs the same curation twice per round, once with a live
:class:`Observability` (registry + tracer collecting every span,
counter, and published trace) and once with the no-op handle the
un-instrumented path resolves to, and compares their CPU times.  The
contract claimed in DESIGN.md is that instrumentation is priced per
*stage and pool chunk*, never per record, so the live handle must stay
within 5% of the no-op path.

The estimator is the median, over rounds, of each round's live/no-op
CPU-time ratio.  The two runs of a round are adjacent, so a ratio
cancels the host's slow drift; the path that runs first alternates
from round to round, so neither one always meets the warmer process;
and the median drops a round that a burst on the host disturbed.
Per-round ratios land in the benchmark JSON via ``extra_info`` so
later PRs can watch the trajectory.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.corpus.github_sim import GitHubScrapeSimulator
from repro.dataset.pipeline import CurationPipeline
from repro.obs import Observability
from repro.pipeline import ParallelExecutor

#: Acceptance bound: live telemetry within 5% of the no-op path.
MAX_OVERHEAD = 0.05

ROUNDS = 20


def _curate_once(raw_files, obs):
    """CPU seconds of one curation (every pool thread included) and
    its result.  Each starts from a collected heap, so neither path
    pays for the garbage the other left."""
    gc.collect()
    started = time.process_time()
    result = CurationPipeline(
        seed=0, executor=ParallelExecutor(mode="thread", max_workers=4),
        obs=obs,
    ).run(raw_files)
    return time.process_time() - started, result


def test_obs_overhead_under_five_percent(benchmark, scale, capsys):
    raw_files = GitHubScrapeSimulator(seed=0).scrape(scale.n_github_files)

    # Warm both paths once (imports, pool spin-up, allocator noise).
    _curate_once(raw_files, Observability.noop())
    _curate_once(raw_files, Observability())

    ratios = []
    live_spans = 0
    for round_index in range(ROUNDS):
        live_first = round_index % 2 == 1
        if live_first:
            obs = Observability()
            live_s, live_result = _curate_once(raw_files, obs)
        noop_s, noop_result = _curate_once(raw_files, Observability.noop())
        if not live_first:
            obs = Observability()
            live_s, live_result = _curate_once(raw_files, obs)
        ratios.append(live_s / noop_s)
        live_spans = len(obs.tracer)
        # Telemetry must never change the data.
        assert [e.to_dict() for e in live_result.dataset] == [
            e.to_dict() for e in noop_result.dataset]

    overhead = statistics.median(ratios) - 1.0

    benchmark.extra_info["n_files"] = len(raw_files)
    benchmark.extra_info["cpu_ratios"] = [round(r, 4) for r in ratios]
    benchmark.extra_info["overhead"] = round(overhead, 4)
    benchmark.extra_info["spans_per_run"] = live_spans

    # One timed pass for pytest-benchmark's own stats (live path).
    benchmark.pedantic(_curate_once, args=(raw_files, Observability()),
                       rounds=1, iterations=1)

    with capsys.disabled():
        print()
        print("Observability overhead (curation, thread x4, CPU time)")
        print(f"  corpus          : {len(raw_files)} files")
        print(f"  live/noop ratios: "
              + " ".join(f"{r:.3f}" for r in ratios)
              + f" ({live_spans} spans/run)")
        print(f"  overhead        : {100 * overhead:+.2f}% "
              f"(median of {ROUNDS} paired rounds, "
              f"bound {100 * MAX_OVERHEAD:.0f}%)")

    assert overhead < MAX_OVERHEAD, (
        f"live observability costs {100 * overhead:.1f}% "
        f"(> {100 * MAX_OVERHEAD:.0f}%) over the no-op path")
