"""Per-stage instrumentation: where records die and where time goes.

Every curation and evaluation run produces a :class:`PipelineTrace` —
one :class:`StageMetrics` per stage with wall time, in/out counts, a
drop-reason histogram, and cache hit/miss deltas.  Traces serialise to
JSON (`to_json` / `from_json` round-trip) so a curation or eval run can
be diffed between PRs.

The registry is the source of record: every run folds its finished
trace into it (:meth:`repro.obs.Observability.publish_trace`), and
:meth:`PipelineTrace.from_registry` reconstructs the legacy document —
byte-for-byte, golden-tested — from registry gauges and annotations
alone.  The classes below serialise by the one
:class:`~repro.obs.Reportable` rule; ``schema`` identifies the shape
on the class without perturbing the committed JSON layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs.registry import MetricRegistry
from ..obs.reportable import Reportable


@dataclass
class StageMetrics(Reportable):
    """What one stage did to the record stream."""

    schema = "pyranet/stage-metrics/v1"

    name: str
    n_in: int = 0
    n_out: int = 0
    wall_time_s: float = 0.0
    #: reason -> count for records dropped at this stage.
    drops: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def n_dropped(self) -> int:
        return self.n_in - self.n_out

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def record_drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1


@dataclass
class PipelineTrace(Reportable):
    """The run report: stages in execution order plus run-level facts."""

    schema = "pyranet/pipeline-trace/v1"

    pipeline: str = ""
    stages: List[StageMetrics] = field(default_factory=list)
    wall_time_s: float = 0.0
    #: run-level context (executor mode/workers, input sizes, …).
    meta: Dict[str, Any] = field(default_factory=dict)

    def stage(self, name: str) -> Optional[StageMetrics]:
        """The metrics for stage ``name`` (first match), or None."""
        for metrics in self.stages:
            if metrics.name == name:
                return metrics
        return None

    def drop_histogram(self) -> Dict[str, int]:
        """Drop reasons summed across stages."""
        histogram: Dict[str, int] = {}
        for metrics in self.stages:
            for reason, count in metrics.drops.items():
                histogram[reason] = histogram.get(reason, 0) + count
        return histogram

    def summary_lines(self) -> List[str]:
        lines = [f"pipeline {self.pipeline or '<anonymous>'}: "
                 f"{self.wall_time_s * 1000.0:.1f} ms total"]
        for metrics in self.stages:
            cache = ""
            if metrics.cache_hits or metrics.cache_misses:
                cache = (f", cache {metrics.cache_hits}h/"
                         f"{metrics.cache_misses}m")
            lines.append(
                f"  {metrics.name:<14} {metrics.n_in:>6} -> "
                f"{metrics.n_out:<6} ({metrics.wall_time_s * 1000.0:8.1f} ms"
                f"{cache})"
            )
        return lines

    @classmethod
    def from_registry(cls, registry: MetricRegistry,
                      pipeline: str) -> "PipelineTrace":
        """Rebuild the latest run's trace from the registry alone.

        Every run publishes its finished trace via
        :meth:`repro.obs.Observability.publish_trace`; this is the
        inverse view.  Gauges store values uncoerced and annotations
        hold the dict-shaped parts, so the reconstruction is
        byte-identical to the original ``to_json`` output (golden-
        tested).  Only the *latest* run per pipeline name is
        recoverable — cumulative history lives in the counters.
        """
        prefix = f"pipeline.{pipeline or 'anonymous'}"
        stage_names = registry.annotation(f"{prefix}.stages")
        if stage_names is None:
            raise KeyError(
                f"registry holds no published trace for {pipeline!r}")
        stages = []
        for name in stage_names:
            stage = f"{prefix}.stage.{name}"
            stages.append(StageMetrics(
                name=name,
                n_in=registry.gauge(f"{stage}.n_in").value,
                n_out=registry.gauge(f"{stage}.n_out").value,
                wall_time_s=registry.gauge(f"{stage}.wall_time_s").value,
                drops=dict(registry.annotation(f"{stage}.drops", {})),
                cache_hits=registry.gauge(f"{stage}.cache_hits").value,
                cache_misses=registry.gauge(f"{stage}.cache_misses").value,
            ))
        return cls(
            pipeline=pipeline,
            stages=stages,
            wall_time_s=registry.gauge(f"{prefix}.wall_time_s").value,
            meta=dict(registry.annotation(f"{prefix}.meta", {})),
        )
