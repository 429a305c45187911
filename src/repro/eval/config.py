"""The one configuration object the evaluation loop runs from.

:func:`~repro.eval.harness.evaluate_model` grew a kwarg per release —
sampling knobs, seeds, executor/cache/obs/resilience handles — until
every caller threaded a different subset.  :class:`EvalConfig` freezes
the *declarative* part of that surface into one schema-versioned,
JSON-able record (what a service job payload, a benchmark manifest, or
a report header can carry verbatim), while the *runtime* handles that
cannot serialize — executor, cache, observability, resilience — stay
explicit keyword arguments on the entry points.

``repair_budget`` is the new axis: the number of feedback-driven repair
iterations each failed sample may consume
(:mod:`repro.repairloop`); ``0`` reproduces the classic
single-shot protocol byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from ..obs.reportable import Reportable

#: pass@k columns reports default to (VerilogEval's protocol).
DEFAULT_KS: Tuple[int, ...] = (1, 5, 10)


@dataclass(frozen=True)
class EvalConfig(Reportable):
    """Declarative evaluation parameters (:class:`~repro.obs.Reportable`).

    Attributes:
        n_samples: completions per problem (n of the pass@k estimator).
        temperature: sampling temperature.
        seed: master seed; per-sample seeds derive via
            :func:`~repro.eval.harness.sample_seed`.
        n_test_vectors: stimulus vectors/cycles per functional test.
        ks: the pass@k columns summaries report.
        repair_budget: feedback-driven repair iterations per failed
            sample (0 = classic single-shot evaluation).
        model_name: report label override; ``None`` derives it from the
            model's profile.
    """

    n_samples: int = 10
    temperature: float = 0.8
    seed: int = 0
    n_test_vectors: int = 32
    ks: Tuple[int, ...] = DEFAULT_KS
    repair_budget: int = 0
    model_name: Optional[str] = None

    schema = "pyranet/eval-config/v1"

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.n_test_vectors < 1:
            raise ValueError("n_test_vectors must be at least 1")
        if self.repair_budget < 0:
            raise ValueError("repair_budget must be >= 0")
        # Tolerate list input (JSON round-trips tuples as lists).
        object.__setattr__(self, "ks", tuple(self.ks))

    def with_overrides(self, **changes: Any) -> "EvalConfig":
        """A copy with ``changes`` applied (frozen-safe)."""
        return replace(self, **changes)
