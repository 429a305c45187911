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
        max_workers: pool size; defaults to ``os.cpu_count()`` capped
            at 8.  A serial executor holds and reports 1, so its
            reports do not depend on the host.
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
        self.max_workers = (1 if mode == "serial"
                            else max_workers or min(os.cpu_count() or 1, 8))
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

        Results always come back in input order.  Items go to the pool
        in chunks (:attr:`chunk_size`), all submitted at once.  Failure
        semantics are :meth:`stream_map`'s.
        """
        self.fell_back = False
        items = list(items)
        if self.mode == "serial" or len(items) <= 1:
            return [fn(item) for item in items]
        chunks = self._chunks(items)
        return [result
                for chunk in self._chunk_stream(fn, chunks, len(chunks))
                for result in chunk]

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

        Failures: exceptions raised by ``fn`` propagate in thread mode;
        infrastructure failures (pool creation, pickling, a broken
        process pool) flip :attr:`fell_back`, and the failed task, any
        in-flight task that also fails, and the rest of the input are
        computed serially in this process.  Results the pool already
        delivered are kept.
        """
        self.fell_back = False
        if self.mode == "serial":
            for item in iterable:
                yield fn(item)
            return
        window = max(1, window if window is not None
                     else self.max_workers * 2)
        for results in self._chunk_stream(
                fn, ([item] for item in iterable), window):
            yield results[0]

    def _chunk_stream(
        self, fn: Callable[[Any], Any], chunks: Iterable[Sequence[Any]],
        window: int,
    ) -> Iterator[List[Any]]:
        """The one pool driver: ``[fn(x) for x in chunk]`` per chunk, in
        order, with at most ``window`` chunks submitted ahead of the
        consumer.  With a tracer attached, chunk ``i`` runs inside a
        ``worker[i]`` span."""
        pool_cls = (ThreadPoolExecutor if self.mode == "thread"
                    else ProcessPoolExecutor)
        chunks = iter(chunks)
        try:
            pool = pool_cls(max_workers=min(self.max_workers, window))
        except Exception as exc:
            self._fall_back(exc)
            for chunk in chunks:
                yield _run_chunk((fn, chunk))
            return
        tracer = self.tracer
        parent = tracer.current_context() if tracer is not None else None
        broken = False

        def submit(chunk: Sequence[Any], index: int) -> Any:
            """The chunk's future, or None when the pool has broken."""
            nonlocal broken
            if tracer is None:
                runner, payload = _run_chunk, (fn, chunk)
            elif self.mode == "thread":
                # Pool threads share the tracer; the ambient span stack
                # is thread-local, so the parent is passed explicitly.
                runner = _run_chunk_thread_traced
                payload = (fn, chunk, tracer, parent, index)
            else:
                # Workers can't share the tracer object: ship a
                # picklable context, collect the spans with the results.
                runner = _run_chunk_process_traced
                payload = (fn, chunk, parent, index)
            try:
                return pool.submit(runner, payload)
            except Exception as exc:
                self._fall_back(exc)
                broken = True
                return None

        def settle(chunk: Sequence[Any], future: Any) -> List[Any]:
            """The chunk's results, recomputed here if the pool failed."""
            nonlocal broken
            if future is not None:
                try:
                    out = future.result()
                except Exception as exc:
                    self._fall_back(exc)
                    broken = True
                else:
                    if tracer is not None and self.mode == "process":
                        results, spans = out
                        tracer.absorb(spans)
                        return results
                    return out
            return _run_chunk((fn, chunk))

        pending: "deque" = deque()
        try:
            for index, chunk in enumerate(chunks):
                pending.append((chunk, submit(chunk, index)))
                if len(pending) >= window and not broken:
                    yield settle(*pending.popleft())
                if broken:
                    # The pool is suspect: settle what is in flight,
                    # then finish serially.
                    break
            while pending:
                yield settle(*pending.popleft())
            for chunk in chunks:
                yield _run_chunk((fn, chunk))
        finally:
            # Waits for chunks still in flight, so no work outlives the
            # call — also when ``fn`` raised or the consumer stopped.
            pool.shutdown(wait=True)

    def _fall_back(self, exc: Exception) -> None:
        """Degrade to serial for an infrastructure failure; re-raise
        anything else.  Process pools fail on unpicklable work
        (closures, local functions) in mode-specific ways —
        PicklingError, AttributeError, BrokenProcessPool — so every
        process-mode failure degrades (``fn``'s own errors then recur in
        the serial recompute).  Thread pools add no serialisation
        failure modes, so in thread mode only OSError/RuntimeError
        (resource limits) count as infrastructure and ``fn``'s errors
        propagate.  A SimulatedCrash from fault injection is a
        BaseException and tears straight through."""
        if self.mode == "thread" and not isinstance(
                exc, (OSError, RuntimeError)):
            raise exc
        self.fell_back = True


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
