"""Span-based tracing with cross-worker context propagation.

A :class:`Span` is one named, timed region of a run — wall time from
``time.perf_counter``, CPU time from ``time.process_time``, a free-form
``meta`` dict, and parent/child links.  :class:`Tracer` hands out spans
via a context manager and keeps a per-thread stack, so nesting falls
out of lexical structure::

    with tracer.span("curate.dedup") as span:
        span.meta["n_in"] = len(records)
        ...

Crossing an executor boundary breaks the ambient stack, so parents can
also be named explicitly with a :class:`SpanContext` — a tiny picklable
(trace_id, span_id) pair.  A thread worker opens spans on the shared
tracer with ``parent=ctx``; a process worker builds its own
:class:`Tracer` around the shipped context (see :func:`worker_tracer`),
records locally, and the parent process absorbs the exported span dicts
with :meth:`Tracer.absorb`.  Either way the merged span list reconnects
into one tree under the original trace id.

:class:`NullTracer` is the no-op twin used by disabled observability.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional

from .reportable import Reportable


@dataclass(frozen=True)
class SpanContext(Reportable):
    """The serialisable identity of a span: enough to parent under it
    from another thread or process."""

    trace_id: str
    span_id: str


class Span:
    """One timed region.  Mutable while open; frozen facts after."""

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "meta",
                 "start_s", "wall_time_s", "cpu_time_s", "status",
                 "_wall0", "_cpu0")

    def __init__(self, name: str, span_id: str, trace_id: str,
                 parent_id: Optional[str],
                 start_s: float,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        #: start offset, seconds since the owning tracer's epoch.
        self.start_s = start_s
        self.wall_time_s = 0.0
        self.cpu_time_s = 0.0
        self.status = "ok"
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def _finish(self, error: bool) -> None:
        self.wall_time_s = time.perf_counter() - self._wall0
        self.cpu_time_s = time.process_time() - self._cpu0
        if error:
            self.status = "error"

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_s": round(self.start_s, 9),
            "wall_time_s": self.wall_time_s,
            "cpu_time_s": self.cpu_time_s,
            "status": self.status,
            "meta": dict(self.meta),
        }


class Tracer:
    """Creates, nests, collects, and merges spans for one run.

    Args:
        trace_id: share one id across every tracer participating in a
            run (workers inherit it through :class:`SpanContext`).
        id_prefix: span-id namespace; worker tracers use a pid-derived
            prefix so ids never collide across processes.
        parent: default parent for root-level spans — the shipped
            context when this tracer lives inside a worker.
    """

    def __init__(self, trace_id: Optional[str] = None,
                 id_prefix: str = "s",
                 parent: Optional[SpanContext] = None) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.id_prefix = id_prefix
        self.root_parent = parent
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._counter = 0
        self._finished: List[Dict[str, Any]] = []
        self._local = threading.local()

    # -- internals -----------------------------------------------------

    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{self.id_prefix}{self._counter:04d}"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- the public surface --------------------------------------------

    @contextmanager
    def span(self, name: str, parent: Optional[SpanContext] = None,
             **meta: Any) -> Iterator[Span]:
        """Open a span; nests under the calling thread's innermost open
        span unless ``parent`` overrides it explicitly."""
        stack = self._stack()
        if parent is not None and parent.span_id:
            parent_id: Optional[str] = parent.span_id
        elif stack:
            parent_id = stack[-1].span_id
        elif self.root_parent is not None:
            parent_id = self.root_parent.span_id
        else:
            parent_id = None
        span = Span(
            name=name,
            span_id=self._next_id(),
            trace_id=self.trace_id,
            parent_id=parent_id,
            start_s=time.perf_counter() - self.epoch,
            meta=meta,
        )
        stack.append(span)
        try:
            yield span
        except BaseException:
            span._finish(error=True)
            raise
        else:
            span._finish(error=False)
        finally:
            stack.pop()
            with self._lock:
                self._finished.append(span.to_dict())

    def current_context(self) -> SpanContext:
        """The innermost open span on this thread (or the tracer root)."""
        stack = self._stack()
        if stack:
            return stack[-1].context
        if self.root_parent is not None:
            return self.root_parent
        return SpanContext(trace_id=self.trace_id, span_id="")

    def export(self) -> List[Dict[str, Any]]:
        """Finished spans as plain dicts (completion order)."""
        with self._lock:
            return [dict(span) for span in self._finished]

    def absorb(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Merge spans exported by another tracer (e.g. a process
        worker) into this one's finished list."""
        with self._lock:
            self._finished.extend(dict(span) for span in spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)


class _NullSpan(Span):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(name="", span_id="", trace_id="", parent_id=None,
                         start_s=0.0)


class NullTracer(Tracer):
    """Same API as :class:`Tracer`; keeps nothing."""

    def __init__(self) -> None:
        super().__init__(trace_id="null")

    @contextmanager
    def span(self, name: str, parent: Optional[SpanContext] = None,
             **meta: Any) -> Iterator[Span]:
        yield _NullSpan()

    def export(self) -> List[Dict[str, Any]]:
        return []

    def absorb(self, spans: Iterable[Dict[str, Any]]) -> None:
        pass

    def __len__(self) -> int:
        return 0


def worker_tracer(context: SpanContext) -> Tracer:
    """A tracer for worker-process code: same trace id, pid-namespaced
    span ids, root spans parented under the shipped ``context``."""
    return Tracer(
        trace_id=context.trace_id,
        id_prefix=f"w{os.getpid():x}-",
        parent=context if context.span_id else None,
    )
