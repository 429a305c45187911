"""Unified observability: metrics, tracing, and the one run report.

The telemetry layer the rest of the system records into:

* :class:`MetricRegistry` — named counters / gauges / histograms (with
  bounded, deterministically-seeded reservoirs) plus JSON-able
  annotations;
* :class:`Tracer` / :class:`SpanContext` — nested wall+CPU spans with
  a picklable context that survives thread- and process-pool hops
  (workers record locally; the parent absorbs);
* :class:`RunReport` — spans + metrics + run meta merged into one
  schema-versioned JSON document;
* :class:`Observability` — the registry+tracer handle every subsystem
  accepts as an optional ``obs`` argument; :func:`resolve` maps None to
  a shared no-op instance so instrumentation has one code path;
* :class:`Reportable` — the base class whose one rule serialises every
  report dataclass: its JSON is its fields.
"""

from .context import NOOP, Observability, resolve
from .proc import rss_peak_bytes
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
)
from .report import RUN_REPORT_SCHEMA, RunReport
from .reportable import Reportable, report_json
from .tracing import NullTracer, Span, SpanContext, Tracer, worker_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NOOP",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "RUN_REPORT_SCHEMA",
    "Reportable",
    "RunReport",
    "Span",
    "SpanContext",
    "Tracer",
    "report_json",
    "resolve",
    "rss_peak_bytes",
    "worker_tracer",
]
