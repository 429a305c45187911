"""Deterministic parallel map over per-record work.

:class:`ParallelExecutor` is the one place curation and evaluation
touch concurrency.  It maps a function over items in **deterministic
input order** regardless of mode, so a run is bit-identical whether it
executes serially, on a thread pool, or on a process pool:

* ``serial``  — a plain loop: what curation and evaluation run when
  given no executor, and the fallback everything degrades to;
* ``thread``  — ``ThreadPoolExecutor`` over deterministic-order chunks
  (our per-file work is pure Python, so threads buy safety and overlap
  with any native work rather than raw speedup);
* ``process`` — ``ProcessPoolExecutor`` for picklable module-level
  functions; anything unpicklable (closures, lambdas) falls back to
  serial instead of failing the run.

Retry and quarantine are not the executor's business: callers wrap the
mapped function with a :class:`~repro.resilience.StageShield` and
settle the results themselves.

When a :class:`~repro.obs.tracing.Tracer` is attached (:func:`attach_run`
does this for the length of a curation or evaluation run), every pool
chunk is wrapped in a ``worker[i]`` span parented under the caller's
innermost open span.  Thread chunks record straight into the shared
tracer; process chunks get a picklable :class:`~repro.obs.SpanContext`,
record into a worker-local tracer, and ship their spans back with the
results for the parent to absorb — so one merged trace sees inside the
pool whatever the mode.
"""

from __future__ import annotations

import contextlib
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs.tracing import SpanContext, Tracer, worker_tracer

MODES = ("serial", "thread", "process")


class ParallelExecutor:
    """Order-preserving map with a serial fallback.

    Args:
        mode: one of ``serial``, ``thread``, ``process``.
        max_workers: pool size (ignored in serial mode); defaults to
            ``os.cpu_count()`` capped at 8.
        chunk_size: items per submitted task; ``None`` picks a chunk
            count of roughly 4 tasks per worker.
    """

    def __init__(
        self,
        mode: str = "thread",
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode={mode!r}; choose from {MODES}")
        self.mode = mode
        self.max_workers = max_workers or min(os.cpu_count() or 1, 8)
        self.chunk_size = chunk_size
        #: True when the last map degraded to serial (pool failure or
        #: unpicklable work in process mode).
        self.fell_back = False
        #: When set, pool chunks run inside ``worker[i]`` spans
        #: (:func:`attach_run` sets it for the length of a run).
        self.tracer: Optional[Tracer] = None

    @classmethod
    def serial(cls) -> "ParallelExecutor":
        return cls(mode="serial")

    def describe(self) -> dict:
        return {"mode": self.mode, "max_workers": self.max_workers}

    def _chunks(self, items: Sequence[Any]) -> List[Sequence[Any]]:
        size = self.chunk_size
        if size is None:
            size = max(1, len(items) // (self.max_workers * 4) or 1)
        return [items[i:i + size] for i in range(0, len(items), size)]

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """``[fn(x) for x in items]``, possibly in parallel.

        Results always come back in input order.  Exceptions raised by
        ``fn`` propagate; infrastructure failures (pool creation,
        pickling) degrade to the serial path.
        """
        self.fell_back = False
        items = list(items)
        if self.mode == "serial" or len(items) <= 1:
            return [fn(item) for item in items]
        try:
            return self._pool_map(fn, items)
        except Exception as exc:
            # Process pools fail on unpicklable work (closures, local
            # functions) in mode-specific ways — PicklingError,
            # AttributeError, BrokenProcessPool — and either pool can
            # hit resource limits at creation.  Degrade to serial for
            # those; let genuine errors raised by ``fn`` propagate
            # (thread pools add no serialisation failure modes, so in
            # thread mode only infrastructure errors are swallowed).
            # Note a SimulatedCrash from fault injection is a
            # BaseException and tears straight through this handler.
            if self.mode == "thread" and not isinstance(
                    exc, (OSError, RuntimeError)):
                raise
            self.fell_back = True
            return [fn(item) for item in items]

    def stream_map(
        self,
        fn: Callable[[Any], Any],
        iterable: Iterable[Any],
        window: Optional[int] = None,
    ) -> Iterator[Any]:
        """Ordered streaming map: a generator with bounded look-ahead.

        Unlike :meth:`map`, the input is never materialised — at most
        ``window`` items (default ``max_workers * 2``) are in flight or
        buffered at once, so mapping over a million-record source holds
        a constant number of items in memory.  Items are submitted one
        per task (streaming callers pass whole batches as items, so
        chunking would only add latency).  Results come back strictly
        in input order.

        Failure semantics mirror :meth:`map`: exceptions raised by
        ``fn`` propagate in thread mode; infrastructure failures (pool
        creation, pickling, a broken process pool) flip
        :attr:`fell_back` and the remainder of the stream is computed
        serially in this process.  The attached :attr:`tracer` is
        honoured: each in-pool item runs inside a ``worker[i]`` span
        exactly like pooled chunks in :meth:`map`.
        """
        self.fell_back = False
        iterator = iter(iterable)
        if self.mode == "serial":
            for item in iterator:
                yield fn(item)
            return
        if window is None:
            window = self.max_workers * 2
        window = max(1, window)
        pool_cls = (ThreadPoolExecutor if self.mode == "thread"
                    else ProcessPoolExecutor)
        tracer = self.tracer
        parent = tracer.current_context() if tracer is not None else None
        try:
            pool = pool_cls(max_workers=self.max_workers)
        except (OSError, RuntimeError):
            self.fell_back = True
            for item in iterator:
                yield fn(item)
            return

        def submit(item: Any, index: int):
            if tracer is None:
                return pool.submit(_run_chunk, (fn, [item]))
            if self.mode == "thread":
                return pool.submit(_run_chunk_thread_traced,
                                   (fn, [item], tracer, parent, index))
            return pool.submit(_run_chunk_process_traced,
                               (fn, [item], parent, index))

        def resolve(future: Any) -> Any:
            out = future.result()
            if tracer is not None and self.mode == "process":
                results, spans = out
                tracer.absorb(spans)
                return results[0]
            return out[0]

        def infra_failure(exc: Exception) -> bool:
            # Same split as map(): thread pools add no serialisation
            # failure modes, so in thread mode only OSError/RuntimeError
            # count as infrastructure; process-mode failures (pickling,
            # BrokenProcessPool) all degrade to serial recompute.
            return self.mode != "thread" or isinstance(
                exc, (OSError, RuntimeError))

        pending: "deque" = deque()
        index = 0
        exhausted = False
        try:
            while True:
                while not exhausted and len(pending) < window:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append((item, submit(item, index)))
                    index += 1
                if not pending:
                    return
                item, future = pending.popleft()
                try:
                    result = resolve(future)
                except Exception as exc:
                    if not infra_failure(exc):
                        raise
                    # The pool is suspect: recompute this item here,
                    # settle whatever is already in flight, then finish
                    # the stream serially.
                    self.fell_back = True
                    yield fn(item)
                    while pending:
                        flight_item, flight_future = pending.popleft()
                        try:
                            yield resolve(flight_future)
                        except Exception as flight_exc:
                            if not infra_failure(flight_exc):
                                raise
                            yield fn(flight_item)
                    for item in iterator:
                        yield fn(item)
                    return
                yield result
        finally:
            pool.shutdown(wait=False)

    def _pool_map(
        self, fn: Callable[[Any], Any], items: List[Any]
    ) -> List[Any]:
        pool_cls = (ThreadPoolExecutor if self.mode == "thread"
                    else ProcessPoolExecutor)
        chunks = self._chunks(items)
        workers = min(self.max_workers, len(chunks))
        tracer = self.tracer
        if tracer is None:
            runner: Callable[[tuple], Any] = _run_chunk
            payloads: List[tuple] = [(fn, chunk) for chunk in chunks]
        elif self.mode == "thread":
            # Pool threads share the tracer; the ambient span stack is
            # thread-local, so the parent is passed explicitly.
            parent = tracer.current_context()
            runner = _run_chunk_thread_traced
            payloads = [(fn, chunk, tracer, parent, index)
                        for index, chunk in enumerate(chunks)]
        else:
            # Workers can't share the tracer object: ship a picklable
            # context, collect the spans with the results.
            parent = tracer.current_context()
            runner = _run_chunk_process_traced
            payloads = [(fn, chunk, parent, index)
                        for index, chunk in enumerate(chunks)]
        with pool_cls(max_workers=workers) as pool:
            chunk_results = list(pool.map(runner, payloads))
        if tracer is not None and self.mode == "process":
            unwrapped = []
            for results, spans in chunk_results:
                tracer.absorb(spans)
                unwrapped.append(results)
            chunk_results = unwrapped
        return [result for chunk in chunk_results for result in chunk]


@contextlib.contextmanager
def attach_run(executor: ParallelExecutor, obs: Any,
               res: Any) -> Iterator[None]:
    """Bind one run's observability for the length of the block.

    The executor records ``worker[i]`` spans on ``obs``'s tracer, and a
    resilience runtime ``res`` that has no handle of its own sends its
    retry/trip/resume counters to ``obs``'s registry.  Both are
    restored on exit: executors and runtimes are shared between runs.
    """
    previous_tracer = executor.tracer
    if obs.enabled:
        executor.tracer = obs.tracer
    previous_res_obs = res.obs
    if res.enabled and res.obs is None:
        res.obs = obs
    try:
        yield
    finally:
        executor.tracer = previous_tracer
        res.obs = previous_res_obs


def _run_chunk(payload: tuple) -> List[Any]:
    """Apply ``fn`` over one chunk (module-level so processes can pickle
    the dispatcher; ``fn`` itself must be picklable in process mode)."""
    fn, chunk = payload
    return [fn(item) for item in chunk]


def _run_chunk_thread_traced(payload: tuple) -> List[Any]:
    """One chunk inside a ``worker[i]`` span on the shared tracer."""
    fn, chunk, tracer, parent, index = payload
    with tracer.span(f"worker[{index}]", parent=parent,
                     n_items=len(chunk), mode="thread"):
        return [fn(item) for item in chunk]


def _run_chunk_process_traced(
    payload: tuple,
) -> Tuple[List[Any], List[dict]]:
    """One chunk in a worker process: record spans into a local tracer
    parented under the shipped context; return them with the results."""
    fn, chunk, parent, index = payload
    tracer = worker_tracer(parent)
    with tracer.span(f"worker[{index}]", parent=parent,
                     n_items=len(chunk), mode="process",
                     pid=os.getpid()):
        results = [fn(item) for item in chunk]
    return results, tracer.export()
