"""Outside-in tracing: wrap public functions of ``repro`` and time them.

The benchmark never reads timers inside the program.  It replaces each
probed function (see :mod:`perfbench.probes`) with a wrapper that opens
a span on entry and closes it on exit, in every module that holds the
function under any name, and puts the originals back afterwards.

A span's *self* time is its duration minus the durations of the spans
opened beneath it on the same thread; its CPU self time is the same
difference taken over ``time.thread_time``.  Spans on different threads
never nest, so two threads running at once each get their full wall
time: the gap between a layer's ``self_s`` and ``cpu_s`` is the time
its calls spent waiting (on the GIL or an executor).

Wrappers record only in the process that installed them.  A forked
worker inherits the wrappers but runs the original function, so worker
cost shows up as child CPU time and never as parent spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import importlib
import json
import os
import sys
import threading
import time
from collections import namedtuple
from typing import Any, Callable, Dict, List, Optional, Tuple


#: Top-level packages whose modules get their by-name bindings patched.
PATCHED_PACKAGES = ("repro", "perfbench")


def content_digest(text: str) -> str:
    """Short, stable digest of a source text (ledger key)."""
    return hashlib.blake2b(text.encode("utf-8", "replace"),
                           digest_size=8).hexdigest()


class _Frame:
    __slots__ = ("span_id", "parent_id", "layer", "start", "cpu_start",
                 "child_wall", "child_cpu", "parent", "digest", "item",
                 "sample")

    def __init__(self, span_id, parent, layer, digest, item, sample):
        self.span_id = span_id
        self.parent = parent
        self.parent_id = parent.span_id if parent is not None else None
        self.layer = layer
        self.digest = digest
        self.item = item
        self.sample = sample
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.start = time.perf_counter()
        self.cpu_start = time.thread_time()


class LayerTotals:
    """Running totals for one layer."""

    __slots__ = ("calls", "self_s", "cpu_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.cpu_s = 0.0


#: One closed span; ``self_s``/``cpu_s`` exclude its child spans.
Span = namedtuple("Span", "id parent layer start wall_s self_s cpu_s "
                          "thread digest")


class Tracer:
    """Span recorder plus the patch/restore machinery.

    ``item_names`` maps a content digest to a human name (file path,
    problem id) for the slowest-N ledger; workloads fill it in.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: List[Span] = []
        self.layers: Dict[str, LayerTotals] = {}
        self.counts: Dict[str, float] = {}
        #: Distinct keys seen per name (e.g. parsed source texts).
        self.distinct: Dict[str, set] = {}
        #: Calls per wrapped function, by probe label.
        self.wrapper_calls: Dict[str, List[int]] = {}
        self.item_names: Dict[Any, str] = {}
        #: digest -> (wall, layer, item, sample): each item's longest span.
        self.slowest: Dict[str, Tuple[float, str, Optional[str],
                                      Optional[int]]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------

    def _stack_top(self) -> Optional[_Frame]:
        return getattr(self._local, "top", None)

    def enter(self, layer: str, digest: Optional[str] = None,
              item: Optional[str] = None) -> _Frame:
        parent = self._stack_top()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if item is None:
            item = getattr(self._local, "item", None)
        frame = _Frame(span_id, parent, layer, digest, item,
                       getattr(self._local, "sample", None))
        self._local.top = frame
        return frame

    def exit(self, frame: _Frame) -> None:
        wall = time.perf_counter() - frame.start
        cpu = time.thread_time() - frame.cpu_start
        self._local.top = frame.parent
        if frame.parent is not None:
            frame.parent.child_wall += wall
            frame.parent.child_cpu += cpu
        self_wall = wall - frame.child_wall
        self_cpu = cpu - frame.child_cpu
        with self._lock:
            totals = self.layers.get(frame.layer)
            if totals is None:
                totals = self.layers[frame.layer] = LayerTotals()
            totals.calls += 1
            totals.self_s += self_wall
            totals.cpu_s += self_cpu
            self.spans.append(Span(frame.span_id, frame.parent_id,
                                   frame.layer, frame.start, wall,
                                   self_wall, self_cpu,
                                   threading.get_ident(), frame.digest))
            if frame.digest is not None:
                best = self.slowest.get(frame.digest)
                if best is None or wall > best[0]:
                    item = frame.item or self.item_names.get(frame.digest)
                    self.slowest[frame.digest] = (wall, frame.layer, item,
                                                  frame.sample)

    @contextlib.contextmanager
    def span(self, layer: str, digest: Optional[str] = None,
             item: Optional[str] = None):
        """Context manager form of :meth:`enter` / :meth:`exit`."""
        frame = self.enter(layer, digest, item)
        try:
            yield frame
        finally:
            self.exit(frame)

    # -- item context (ledger naming) -------------------------------

    def set_item(self, item: Optional[str]) -> None:
        """Name the work this thread does next (for the ledger)."""
        self._local.item = item

    def set_sample(self, sample: Optional[int]) -> None:
        """Record the sample index this thread works on next."""
        self._local.sample = sample

    # -- counters ----------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def note(self, name: str, key: Any) -> None:
        """Remember ``key`` among the distinct keys seen for ``name``."""
        with self._lock:
            self.distinct.setdefault(name, set()).add(key)

    # -- patching ----------------------------------------------------

    def wrap(self, fn: Callable, layer: Optional[str],
             label: Optional[str] = None,
             source_arg: Optional[int] = None,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None,
             on_error: Optional[Callable] = None) -> Callable:
        """A wrapper timing ``fn`` as ``layer``.

        ``layer=None`` records no span and only runs the hooks;
        ``label`` keys the wrapper's call count in ``wrapper_calls``.
        ``source_arg`` names the positional argument holding a source
        text; its digest keys the span in the slowest-N ledger.
        ``before(tracer, args, kwargs)`` runs before the span opens,
        ``after(tracer, args, kwargs, result)`` and
        ``on_error(tracer, exc)`` after it closes, so hook cost is not
        charged to the layer.
        """
        tracer = self
        calls = self.wrapper_calls.setdefault(label or fn.__qualname__, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            calls[0] += 1
            if before is not None:
                before(tracer, args, kwargs)
            if layer is None:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
            digest = None
            if source_arg is not None and len(args) > source_arg:
                source = args[source_arg]
                if isinstance(source, str):
                    digest = content_digest(source)
            frame = tracer.enter(layer, digest)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            tracer.exit(frame)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def patch_function(self, module_name: str, attr: str,
                       wrapper_for: Callable[[Callable], Callable]) -> int:
        """Replace ``module.attr`` everywhere it is bound by name.

        Every loaded ``repro`` or ``perfbench`` module whose namespace
        holds the original function object (``from x import f`` copies
        the binding) gets the wrapper.  Returns the number of bindings
        replaced.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] not in PATCHED_PACKAGES:
                continue
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
                    replaced += 1
        return replaced

    def patch_method(self, module_name: str, class_name: str, attr: str,
                     wrapper_for: Callable[[Callable], Callable]) -> int:
        """Replace a method on its class (one binding serves every
        importer, since they share the class object)."""
        cls = getattr(importlib.import_module(module_name), class_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched: Any = classmethod(wrapper_for(raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(wrapper_for(raw.__func__))
        else:
            patched = wrapper_for(raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, patched)
        return 1

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ------------------------------------------------------

    def ledger(self, n: int = 20) -> List[Dict[str, Any]]:
        """The ``n`` slowest items, one row per content digest, each
        with the layer of its longest span."""
        rows = sorted(self.slowest.items(), key=lambda kv: -kv[1][0])[:n]
        return [{"digest": digest, "item": item, "sample": sample,
                 "layer": layer, "wall_s": wall}
                for digest, (wall, layer, item, sample) in rows]

    def write_spans(self, path) -> None:
        """Write every closed span as one JSON object per line, gzip
        compressed."""
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
