"""ParallelExecutor.stream_map under every backend.

stream_map is the spine of the streaming curate path: it must preserve
input order, keep a bounded look-ahead (never materialise the source),
propagate real work errors, and degrade infrastructure failures to a
serial recompute — in serial, thread, and process modes alike.
"""

import pytest

from repro.obs.tracing import Tracer
from repro.pipeline import ParallelExecutor


def _square(x):
    return x * x


def _boom_on_seven(x):
    if x == 7:
        raise ValueError("seven")
    return x


class TestStreamMapOrdering:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_order_preserved(self, mode):
        executor = ParallelExecutor(mode=mode, max_workers=3)
        out = list(executor.stream_map(_square, range(40)))
        assert out == [x * x for x in range(40)]
        assert not executor.fell_back

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_empty_stream(self, mode):
        executor = ParallelExecutor(mode=mode, max_workers=2)
        assert list(executor.stream_map(_square, [])) == []

    def test_window_one(self):
        executor = ParallelExecutor(mode="thread", max_workers=2)
        out = list(executor.stream_map(_square, range(10), window=1))
        assert out == [x * x for x in range(10)]


class TestStreamMapLaziness:
    @pytest.mark.parametrize("mode,window", [("serial", None),
                                             ("thread", 4)])
    def test_bounded_lookahead(self, mode, window):
        """Consuming one result must not drain the source: at most
        ``window`` items may be pulled ahead of the consumer."""
        pulled = []

        def source():
            for x in range(1000):
                pulled.append(x)
                yield x

        executor = ParallelExecutor(mode=mode, max_workers=2)
        stream = executor.stream_map(_square, source(), window=window)
        first = next(stream)
        assert first == 0
        # Serial pulls exactly one; pooled modes at most the window
        # plus the one being resolved.
        limit = 1 if mode == "serial" else (window or 4) + 1
        assert len(pulled) <= limit

    def test_million_item_source_is_not_materialised(self):
        executor = ParallelExecutor(mode="thread", max_workers=2)
        stream = executor.stream_map(_square, iter(range(10**6)),
                                     window=4)
        head = [next(stream) for _ in range(5)]
        assert head == [0, 1, 4, 9, 16]
        stream.close()


class TestStreamMapFailures:
    def test_thread_mode_propagates_work_errors(self):
        executor = ParallelExecutor(mode="thread", max_workers=2)
        with pytest.raises(ValueError, match="seven"):
            list(executor.stream_map(_boom_on_seven, range(10)))

    def test_serial_mode_propagates_work_errors(self):
        executor = ParallelExecutor.serial()
        with pytest.raises(ValueError, match="seven"):
            list(executor.stream_map(_boom_on_seven, range(10)))

    def test_process_mode_unpicklable_falls_back_to_serial(self):
        executor = ParallelExecutor(mode="process", max_workers=2)
        out = list(executor.stream_map(lambda x: x + 1, range(20)))
        assert out == list(range(1, 21))
        assert executor.fell_back


class TestStreamMapTracing:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_worker_spans_recorded(self, mode):
        executor = ParallelExecutor(mode=mode, max_workers=2)
        tracer = Tracer()
        executor.tracer = tracer
        with tracer.span("parent"):
            out = list(executor.stream_map(_square, range(6)))
        assert out == [x * x for x in range(6)]
        names = [span["name"] for span in tracer.export()]
        workers = [name for name in names if name.startswith("worker[")]
        assert len(workers) == 6
