"""RunReport: the single artefact a whole run serialises into.

One JSON document with a pinned, versioned schema that merges the
three telemetry surfaces the subsystems used to keep apart:

* ``spans`` — the full span list (pipeline stages, store reads,
  fine-tuning phases, eval fan-out, worker chunks) as exported by the
  run's :class:`~repro.obs.tracing.Tracer`;
* ``metrics`` — the :class:`~repro.obs.registry.MetricRegistry`
  snapshot: counters, gauges, histograms, annotations;
* ``meta`` — run-level context (seed, entry point, CLI args).

Convenience views answer the questions the document exists for —
"where did the time go" (:meth:`span_tree`, :meth:`summary_lines`),
"which stage dropped my entries" (:meth:`drop_histogram`), and "did the
caches work" (:meth:`cache_stats`) — without callers re-deriving the
joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .reportable import Reportable

#: Bumped when the document shape changes incompatibly.
RUN_REPORT_SCHEMA = "pyranet/run-report/v1"


@dataclass
class RunReport(Reportable):
    """Spans + metrics + context for one run, under one schema."""

    schema: str = field(default=RUN_REPORT_SCHEMA, init=False)
    run_id: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    # -- views ---------------------------------------------------------

    def span_names(self) -> List[str]:
        return [span["name"] for span in self.spans]

    def find_spans(self, prefix: str) -> List[Dict[str, Any]]:
        """Spans whose name starts with ``prefix``."""
        return [span for span in self.spans
                if span["name"].startswith(prefix)]

    def worker_spans(self) -> List[Dict[str, Any]]:
        """Spans recorded inside executor workers (thread or process)."""
        return [span for span in self.spans
                if span["name"].startswith("worker[")]

    def subsystems(self) -> List[str]:
        """Distinct first components of span names, sorted."""
        return sorted({span["name"].split(".", 1)[0].split("[", 1)[0]
                       for span in self.spans})

    def drop_histogram(self) -> Dict[str, int]:
        """Drop reasons summed across every instrumented pipeline."""
        histogram: Dict[str, int] = {}
        for name, count in self.metrics.get("counters", {}).items():
            if ".drop." in name:
                reason = name.split(".drop.", 1)[1]
                histogram[reason] = histogram.get(reason, 0) + count
        return histogram

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-cache hit/miss counters, keyed by cache name."""
        stats: Dict[str, Dict[str, int]] = {}
        for name, count in self.metrics.get("counters", {}).items():
            if not name.startswith("cache."):
                continue
            cache_name, _, kind = name[len("cache."):].rpartition(".")
            if kind in ("hits", "misses"):
                stats.setdefault(cache_name, {})[kind] = count
        return stats

    def span_tree(self) -> Dict[Optional[str], List[Dict[str, Any]]]:
        """Spans grouped by ``parent_id`` (None = roots)."""
        tree: Dict[Optional[str], List[Dict[str, Any]]] = {}
        for span in self.spans:
            tree.setdefault(span.get("parent_id"), []).append(span)
        return tree

    def summary_lines(self, max_depth: int = 3) -> List[str]:
        """An indented wall-time tree of the run's spans."""
        tree = self.span_tree()
        known = {span["span_id"] for span in self.spans}
        lines = [f"run {self.run_id or '<anonymous>'}: "
                 f"{len(self.spans)} spans"]

        def walk(parent: Optional[str], depth: int) -> None:
            if depth >= max_depth:
                return
            for span in sorted(tree.get(parent, []),
                               key=lambda item: item["start_s"]):
                lines.append(
                    f"{'  ' * (depth + 1)}{span['name']:<28} "
                    f"{span['wall_time_s'] * 1000.0:9.1f} ms"
                )
                walk(span["span_id"], depth + 1)

        walk(None, 0)
        # Orphans: spans whose recorded parent never reached this
        # report (e.g. a worker chunk whose stage span was filtered).
        for span in self.spans:
            parent = span.get("parent_id")
            if parent is not None and parent not in known:
                lines.append(f"  (orphan) {span['name']}")
        return lines
