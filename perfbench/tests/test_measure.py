"""The tail-percentile rule (at least ten samples beyond) and the
memory sampler."""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time

import pytest

from perfbench.measure import tail_percentile


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_too_few_samples_have_no_tail(n):
    assert tail_percentile([float(i) for i in range(n)]) is None


@pytest.mark.parametrize("n", list(range(11, 60)) + [99, 100, 101, 160,
                                                      333, 1000, 5000])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    rng = random.Random(n)
    values = [rng.random() for _ in range(n)]
    tail = tail_percentile(values)
    ordered = sorted(values)
    rank = math.ceil(tail.percentile * n / 100)
    assert tail.value == ordered[rank - 1]
    assert tail.n_samples == n
    assert tail.n_beyond == n - rank
    # At least ten samples lie beyond it ...
    assert sum(1 for v in values if v > tail.value) >= 10
    # ... and one whole percentile more would leave fewer than ten.
    if tail.percentile < 100:
        assert n - math.ceil((tail.percentile + 1) * n / 100) < 10


def test_tail_of_known_sizes():
    assert tail_percentile(list(range(11))).percentile == 9
    assert tail_percentile(list(range(100))).percentile == 90
    assert tail_percentile(list(range(1000))).percentile == 99


def test_peak_memory_sees_an_allocation():
    from perfbench.measure import PeakMemory, tree_pss_kib

    before = tree_pss_kib(os.getpid())
    with PeakMemory(interval_s=0.005) as peak:
        block = bytearray(64 * 1024 * 1024)
        block[::4096] = b"x" * len(block[::4096])
        time.sleep(0.05)
        del block
    assert peak.peak_kib - before >= 48 * 1024


def test_peak_memory_counts_pages_shared_with_a_worker_once():
    from perfbench.measure import PeakMemory, tree_pss_kib

    block = bytearray(64 * 1024 * 1024)
    block[::4096] = b"x" * len(block[::4096])
    alone = tree_pss_kib(os.getpid())
    context = multiprocessing.get_context("fork")
    ready, done = context.Event(), context.Event()
    child = context.Process(target=_hold, args=(ready, done))
    child.start()
    try:
        assert ready.wait(10)
        with PeakMemory(interval_s=0.005) as peak:
            time.sleep(0.05)
    finally:
        done.set()
        child.join(10)
    # A forked worker that touches nothing adds its interpreter's own
    # pages, not a second copy of the parent's 64 MiB.
    assert peak.peak_kib < alone + 32 * 1024
    del block


def _hold(ready, done):
    ready.set()
    done.wait(10)
