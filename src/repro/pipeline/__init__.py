"""Execution primitives: parallel map, result cache, run trace.

The shared machinery behind curation (:mod:`repro.dataset.pipeline`)
and evaluation (:mod:`repro.eval.harness`): a deterministic-order
parallel executor with a serial fallback, a content-hash result cache
(with an optional persistent disk tier) for expensive pure work, and
the per-stage :class:`PipelineTrace` every run publishes.
"""

from .cache import ResultCache, content_key
from .diskcache import DiskCache
from .executor import ParallelExecutor
from .metrics import PipelineTrace, StageMetrics

__all__ = [
    "DiskCache",
    "ParallelExecutor",
    "PipelineTrace",
    "ResultCache",
    "StageMetrics",
    "content_key",
]
