"""ParallelExecutor's pool driver when the pool itself fails.

``map`` and ``stream_map`` share one driver.  When the pool fails (an
infrastructure error in a pool thread, a worker process that dies),
results and ``fell_back`` are as if nothing happened, and the chunks
the pool already finished are kept rather than recomputed.
"""

import os
import threading

from repro.pipeline import ParallelExecutor


def _failing_in_pool(recomputed):
    """``x * 2``, except that item 3 fails with an infrastructure-class
    error inside a pool thread; calls made in the calling thread (the
    serial recompute) are recorded."""
    def fn(x):
        if threading.current_thread() is threading.main_thread():
            recomputed.append(x)
        elif x == 3:
            raise RuntimeError("pool thread lost")
        return x * 2
    return fn


def _dies_in_worker(item):
    """Module-level (picklable): item 3 kills its worker process, which
    breaks the pool; in the calling process it is an ordinary item."""
    x, parent_pid = item
    if x == 3 and os.getpid() != parent_pid:
        os._exit(1)
    return x * 2


class TestThreadPoolFailure:
    def test_map_recomputes_only_the_failed_chunk(self):
        recomputed = []
        executor = ParallelExecutor(mode="thread", max_workers=2,
                                    chunk_size=1)
        out = executor.map(_failing_in_pool(recomputed), list(range(8)))
        assert out == [x * 2 for x in range(8)]
        assert executor.fell_back
        assert recomputed == [3]

    def test_stream_map_finishes_serially_after_a_failure(self):
        recomputed = []
        executor = ParallelExecutor(mode="thread", max_workers=1)
        out = list(executor.stream_map(_failing_in_pool(recomputed),
                                       range(8), window=1))
        assert out == [x * 2 for x in range(8)]
        assert executor.fell_back
        assert recomputed == [3, 4, 5, 6, 7]


class TestBrokenProcessPool:
    def test_map_survives_a_dead_worker(self):
        executor = ParallelExecutor(mode="process", max_workers=2,
                                    chunk_size=1)
        items = [(x, os.getpid()) for x in range(8)]
        assert executor.map(_dies_in_worker, items) == [
            x * 2 for x in range(8)]
        assert executor.fell_back

    def test_stream_map_survives_a_dead_worker(self):
        executor = ParallelExecutor(mode="process", max_workers=2)
        items = ((x, os.getpid()) for x in range(12))
        out = list(executor.stream_map(_dies_in_worker, items, window=3))
        assert out == [x * 2 for x in range(12)]
        assert executor.fell_back
