"""Run-scoped front-end memo: parse each distinct source once per run.

Every consumer of the Verilog front end (the compile check, the style
linter, metrics, descriptions, the model's header parse, the formal
checker, the functional test and the simulator) calls
:func:`repro.verilog.parser.parse`.  While a :class:`FrontEndMemo` is
active, ``parse`` answers from it: the first call for a text lexes and
parses it, every later call for the same text gets the same
:class:`~repro.verilog.ast_nodes.SourceFile` (or raises an equal
:class:`~repro.verilog.parser.ParseError`).  Outside any scope,
``parse`` parses every time, exactly as without the memo.

Scope, not process: an entry point opens a scope for one unit of work
(one curation run, one streaming worker batch, one evaluation problem,
one functional test, one service ``formal`` job) and the memo is
dropped when the scope closes, so a run starts cold and memory stays
bounded by the sources of that unit.  The active memo lives in a
:class:`contextvars.ContextVar`, so pool threads and worker processes
see none unless they open their own; results never depend on which.

Shared trees are read-only: no consumer may mutate a tree ``parse``
returns.

Two tiers, both keyed on content (never on paths or mtimes):

* **parse** — text → ``SourceFile`` or the ``ParseError`` it raised;
* **design** — ``(text, top, parameter overrides)`` → the flat
  :class:`~repro.verilog.sim.design.Design`
  (:meth:`FrontEndMemo.elaborate`), with an optional persistent
  :class:`~repro.pipeline.diskcache.DiskCache` underneath so warm
  starts survive process boundaries.  Elaboration errors are not
  memoised.

Hit and miss counts per tier are exact (:meth:`FrontEndMemo.stats`), and
a scope publishes them into its opener's observability when it closes as
``verilog.frontend.<tier>.hit`` / ``.miss``.
"""

from __future__ import annotations

import contextlib
import json
from typing import (ContextManager, Dict, Iterator, List, Optional, Tuple,
                    Union)

from ..obs import Observability, resolve
from ..pipeline.cache import content_key
from ..pipeline.diskcache import DiskCache
from . import ast_nodes as ast
from .parser import ACTIVE_MEMO, Parser, ParseError
from .sim.design import Design
from .sim.runtime import elaborate_source

#: Bump when Design layout or elaboration semantics change; stale
#: persistent entries then miss instead of deserialising garbage.
MEMO_SCHEMA = "pyranet/front-end-memo/v3"

_DESIGN_NAMESPACE = "verilog/design"

_TIERS = ("parse", "design")

#: A memoised parse failure: the error's message, line and column.
_Failure = Tuple[str, int, int]


def memo_key(source: str, top: Optional[str] = None,
             params: Optional[Dict[str, int]] = None) -> str:
    """Content digest identifying one elaboration, path/mtime-free."""
    param_part = json.dumps(params or {}, sort_keys=True)
    return content_key(_DESIGN_NAMESPACE, MEMO_SCHEMA, source,
                       top if top is not None else "\x00last\x00",
                       param_part)


class FrontEndMemo:
    """Content-keyed parse and elaboration memo for one unit of work.

    Args:
        disk: optional persistent tier under the design tier.
    """

    def __init__(self, disk: Optional[DiskCache] = None) -> None:
        self.disk = disk
        self._trees: Dict[str, Union[ast.SourceFile, _Failure]] = {}
        self._designs: Dict[str, Design] = {}
        # [hits, misses] per tier; exact even under no-op observability.
        self._counts: Dict[str, List[int]] = {tier: [0, 0]
                                              for tier in _TIERS}

    def __len__(self) -> int:
        """Designs held by the design tier."""
        return len(self._designs)

    def parse(self, source: str) -> ast.SourceFile:
        """The tree of ``source``, parsed on its first request only."""
        counts = self._counts["parse"]
        entry = self._trees.get(source)
        if entry is None:
            counts[1] += 1
            try:
                tree = Parser(source).parse_source()
            except ParseError as exc:
                self._trees[source] = (exc.message, exc.line, exc.col)
                raise
            self._trees[source] = tree
            return tree
        counts[0] += 1
        if isinstance(entry, tuple):
            raise ParseError(*entry)
        return entry

    def elaborate(self, source: str, top: Optional[str] = None,
                  params: Optional[Dict[str, int]] = None) -> Design:
        """The flat design of ``source``'s ``top`` module (the last
        module when ``top`` is None), raising
        :class:`ParseError`/:class:`ElaborationError` exactly as the
        uncached path would."""
        counts = self._counts["design"]
        key = memo_key(source, top, params)
        design = self._designs.get(key)
        if design is None and self.disk is not None:
            status, value = self.disk.get(key)
            if status == "hit" and isinstance(value, Design):
                design = self._designs[key] = value
        if design is not None:
            counts[0] += 1
            return design
        counts[1] += 1
        with self.scope():
            design = self._designs[key] = elaborate_source(source, top,
                                                           params)
        if self.disk is not None:
            self.disk.put(key, design)
        return design

    def stats(self) -> Dict[str, Tuple[int, int]]:
        """Tier name -> (hits, misses) seen by this memo, exactly."""
        return {tier: (hits, misses)
                for tier, (hits, misses) in self._counts.items()}

    @contextlib.contextmanager
    def scope(self, obs: Optional[Observability] = None
              ) -> Iterator["FrontEndMemo"]:
        """Make this the memo :func:`~repro.verilog.parser.parse`
        answers from until the block ends, then add the block's hits
        and misses per tier to ``obs``'s counters."""
        before = self.stats()
        token = ACTIVE_MEMO.set(self)
        try:
            yield self
        finally:
            ACTIVE_MEMO.reset(token)
            publish_counts(
                {tier: (hits - before[tier][0], misses - before[tier][1])
                 for tier, (hits, misses) in self.stats().items()}, obs)


def publish_counts(stats: Dict[str, Tuple[int, int]],
                   obs: Optional[Observability]) -> None:
    """Add per-tier ``(hits, misses)`` — :meth:`FrontEndMemo.stats`
    of a scope that ran where ``obs`` could not reach, such as a worker
    process — to ``obs``'s ``verilog.frontend.<tier>.hit``/``.miss``
    counters."""
    target = resolve(obs)
    for tier, (hits, misses) in stats.items():
        target.counter(f"verilog.frontend.{tier}.hit").inc(hits)
        target.counter(f"verilog.frontend.{tier}.miss").inc(misses)


def join_scope() -> ContextManager[FrontEndMemo]:
    """The scope already open in this context, or a new one that ends
    with the block (and publishes nowhere)."""
    memo = ACTIVE_MEMO.get()
    if memo is not None:
        return contextlib.nullcontext(memo)
    return FrontEndMemo().scope()


__all__ = ["FrontEndMemo", "MEMO_SCHEMA", "join_scope", "memo_key",
           "publish_counts"]
