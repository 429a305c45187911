"""The ``pass@k(repair_budget=r)`` evaluation scenario.

OriGen's argument: a completion that fails its testbench is not dead —
it deserves feedback-driven retries.  This module reruns the classic
VerilogEval protocol through the same per-sample loop and per-problem
map as :mod:`repro.eval.harness` (same seed derivation, outcome cache,
functional testbench and front-end memo scope) and then hands every
failed sample to the :mod:`repro.repairloop` with a budget of ``r``
iterations, tracking *at which iteration* each sample first passes.

The result is a :class:`RepairEvalReport` whose per-problem records
carry the cumulative pass count after 0..r repair iterations — so
``pass@k(repair_budget=r)`` is monotone non-decreasing in ``r`` by
construction, and the ``r=0`` column is byte-identical to
:func:`~repro.eval.harness.evaluate_model`'s results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..model.interfaces import FineTunable
from ..obs import Observability, resolve
from ..obs.reportable import Reportable
from ..pipeline import ParallelExecutor, PipelineTrace, ResultCache
from ..repairloop import ModelRepairer, Repairer, RepairLoop
from ..resilience.runtime import Resilience
from .config import EvalConfig
from .harness import (
    EvalProblem,
    ProblemResult,
    _map_problems,
    _model_label,
    _sample_outcomes,
    resolve_config,
)
from .passk import pass_at_k


@dataclass
class RepairProblemResult(Reportable):
    """Per-problem outcome with its repair curve.

    ``passed_at`` holds the cumulative pass count after 0..budget
    repair iterations — ``passed_at[0]`` is the classic single-shot
    count, ``passed_at[r]`` counts samples that passed within ``r``
    repair iterations.  The list is non-decreasing by construction.
    """

    problem_id: str
    n_samples: int
    passed_at: List[int] = field(default_factory=list)
    failure_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def n_passed(self) -> int:
        """Single-shot pass count (the classic protocol's number)."""
        return self.passed_at[0] if self.passed_at else 0

    @property
    def n_repaired(self) -> int:
        """Samples rescued by the repair loop."""
        if not self.passed_at:
            return 0
        return self.passed_at[-1] - self.passed_at[0]

    def base_result(self) -> ProblemResult:
        """The classic :class:`ProblemResult` this record extends —
        byte-identical to what ``evaluate_model`` reports."""
        return ProblemResult(
            problem_id=self.problem_id, n_samples=self.n_samples,
            n_passed=self.n_passed,
            failure_kinds=dict(self.failure_kinds))

    def pass_at(self, k: int, budget: Optional[int] = None) -> float:
        """pass@k after ``budget`` repair iterations (default: all)."""
        if not self.passed_at:
            return 0.0
        index = len(self.passed_at) - 1 if budget is None \
            else min(budget, len(self.passed_at) - 1)
        return pass_at_k(self.n_samples, self.passed_at[index],
                         min(k, self.n_samples))


@dataclass
class RepairEvalReport(Reportable):
    """Suite-level repair-budget results
    (:class:`~repro.obs.Reportable`)."""

    schema = "pyranet/repair-eval-report/v1"

    suite: str
    model_name: str
    repair_budget: int = 0
    config: Dict = field(default_factory=dict)
    results: List[RepairProblemResult] = field(default_factory=list)
    trace: Optional[PipelineTrace] = None

    def pass_at(self, k: int, budget: Optional[int] = None) -> float:
        """Mean pass@k over problems after ``budget`` repair
        iterations, as a percentage."""
        if not self.results:
            return 0.0
        return 100.0 * sum(
            result.pass_at(k, budget) for result in self.results
        ) / len(self.results)

    def summary(self, ks: Sequence[int] = (1, 5, 10),
                budget: Optional[int] = None) -> Dict[str, float]:
        return {f"pass@{k}": round(self.pass_at(k, budget), 1)
                for k in ks}

    def fix_rate_curve(self) -> List[float]:
        """Fraction of initially-failed samples fixed within 0..r
        iterations (index r of the returned list)."""
        length = self.repair_budget + 1
        failed = sum(result.n_samples - result.n_passed
                     for result in self.results)
        curve: List[float] = []
        for index in range(length):
            fixed = sum(
                (result.passed_at[min(index, len(result.passed_at) - 1)]
                 - result.n_passed)
                for result in self.results if result.passed_at)
            curve.append(fixed / failed if failed else 0.0)
        return curve

    def base_results(self) -> List[ProblemResult]:
        """The classic single-shot results (the ``r=0`` column)."""
        return [result.base_result() for result in self.results]


def evaluate_with_repair(
    model: FineTunable,
    problems: Iterable[EvalProblem],
    config: Optional[EvalConfig] = None,
    repairer: Optional[Repairer] = None,
    *,
    executor: Optional[ParallelExecutor] = None,
    cache: Optional[ResultCache] = None,
    obs: Optional[Observability] = None,
    resilience: Optional[Resilience] = None,
) -> RepairEvalReport:
    """The sampling + functional-check loop with repair retries.

    Sampling, seeding, and the first functional check run through the
    same per-sample loop as :func:`~repro.eval.harness.evaluate_model`
    — same :func:`~repro.eval.harness.sample_seed` derivation, outcome
    cache namespace and stimulus seed — so ``passed_at[0]`` (and
    everything derived from it) matches the classic report bit for
    bit by construction.  Failed samples then run through a
    :class:`~repro.repairloop.RepairLoop` with
    ``config.repair_budget`` iterations; each pass is credited to the
    iteration that produced it.

    Args:
        model: any :class:`FineTunable`.
        problems: the benchmark suite.
        config: the :class:`EvalConfig`; ``repair_budget`` is the new
            axis (0 = classic protocol, no loop constructed).
        repairer: the fix proposer; defaults to
            :class:`~repro.repairloop.ModelRepairer` around ``model``
            (rule-based syntax fixes, feedback-augmented regeneration
            for everything else).
        executor / cache / obs / resilience: as in ``evaluate_model``.
    """
    config = resolve_config(config)
    budget = config.repair_budget
    problems = list(problems)
    obs = resolve(obs)
    suite = problems[0].suite if problems else "empty"
    name = _model_label(model, config)
    outcome_cache = cache if cache is not None else ResultCache()
    fixer = repairer if repairer is not None else ModelRepairer(model)

    def _run_problem(indexed: Tuple[int, EvalProblem]
                     ) -> RepairProblemResult:
        p_index, problem = indexed
        result = RepairProblemResult(
            problem_id=problem.problem_id, n_samples=config.n_samples,
            passed_at=[0] * (budget + 1))
        for s_index, code, outcome in _sample_outcomes(
                model, problem, p_index, config, outcome_cache):
            if outcome.passed:
                for index in range(budget + 1):
                    result.passed_at[index] += 1
                continue
            kind = outcome.failure_kind or "unknown"
            result.failure_kinds[kind] = (
                result.failure_kinds.get(kind, 0) + 1)
            if budget == 0:
                continue
            loop = RepairLoop(
                budget=budget, n_test_vectors=config.n_test_vectors,
                seed=config.seed, repairer=fixer,
                temperature=config.temperature, obs=obs)
            transcript = loop.run(
                code, spec=problem.spec,
                candidate_id=f"{problem.problem_id}/{s_index}",
                description=problem.description,
                module_header=problem.module_header)
            if transcript.fixed and transcript.fixed_at:
                for index in range(transcript.fixed_at, budget + 1):
                    result.passed_at[index] += 1
        return result

    with obs.span("eval.repair_run", suite=suite, model=name,
                  n_problems=len(problems),
                  n_samples=config.n_samples,
                  repair_budget=budget) as span:
        results, trace = _map_problems(
            "repair-evaluation", "sample+simulate+repair", problems,
            _run_problem, executor=executor, cache=outcome_cache, obs=obs,
            resilience=resilience,
            meta={"model": name, "suite": suite, "repair_budget": budget},
            signature=(name, config.n_samples, config.temperature,
                       config.seed, config.n_test_vectors, budget))
        report = RepairEvalReport(
            suite=suite,
            model_name=name,
            repair_budget=budget,
            config=config.to_dict(),
            results=results,
            trace=trace,
        )
        span.meta["pass_at_1"] = round(report.pass_at(1, 0), 1)
        span.meta["pass_at_1_repaired"] = round(report.pass_at(1), 1)
    obs.counter("eval.repair.problems").inc(len(problems))
    obs.counter("eval.repair.rescued").inc(
        sum(result.n_repaired for result in report.results))
    return report
