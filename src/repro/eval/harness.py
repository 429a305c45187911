"""The VerilogEval-style evaluation loop.

For every problem, sample *n* completions from the model at a fixed
temperature, run each against the problem's hidden functional
testbench, and estimate pass@k from the per-problem pass counts —
VerilogEval's protocol end to end.

The loop runs on the staged pipeline engine
(:mod:`repro.pipeline`): each problem's sampling + simulation is one
record fanned out across a :class:`~repro.pipeline.ParallelExecutor`
(threads by default — ``generate`` and the simulator only read shared
state), and functional-test outcomes are memoised in a shared
:class:`~repro.pipeline.ResultCache` keyed on the completion text, so
identical completions — within a run or across models evaluated
against the same suite — simulate once.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..corpus.spec import DesignSpec
from ..model.interfaces import FineTunable
from ..obs import Observability, resolve
from ..obs.reportable import strip_schema
from ..pipeline import (
    ParallelExecutor,
    PipelineTrace,
    RecordStage,
    ResultCache,
    StagedPipeline,
)
from ..resilience.runtime import Resilience
from ..verilog.frontend import FrontEndMemo
from .config import EvalConfig
from .functional import TestOutcome, run_functional_test
from .passk import mean_pass_at_k, pass_at_k


@dataclass
class EvalProblem:
    """One benchmark problem."""

    problem_id: str
    suite: str
    spec: DesignSpec
    description: str
    module_header: str


@dataclass
class ProblemResult:
    """Per-problem sampling outcome."""

    problem_id: str
    n_samples: int
    n_passed: int
    failure_kinds: Dict[str, int] = field(default_factory=dict)

    def pass_at(self, k: int) -> float:
        """pass@k, with k clamped to the sample count."""
        return pass_at_k(self.n_samples, self.n_passed,
                         min(k, self.n_samples))

    def to_dict(self) -> Dict:
        return {
            "problem_id": self.problem_id,
            "n_samples": self.n_samples,
            "n_passed": self.n_passed,
            "failure_kinds": dict(self.failure_kinds),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ProblemResult":
        return cls(
            problem_id=data["problem_id"],
            n_samples=data["n_samples"],
            n_passed=data["n_passed"],
            failure_kinds=dict(data.get("failure_kinds", {})),
        )


@dataclass
class EvalReport:
    """Suite-level results."""

    schema = "pyranet/eval-report/v1"

    suite: str
    model_name: str
    results: List[ProblemResult] = field(default_factory=list)
    trace: Optional[PipelineTrace] = None

    def pass_at(self, k: int) -> float:
        """Mean pass@k over problems, as a percentage.

        k is clamped per problem to its sample count, so asking for
        pass@10 after a 5-sample run degrades gracefully to pass@5.
        """
        if not self.results:
            return 0.0
        return 100.0 * sum(
            result.pass_at(k) for result in self.results
        ) / len(self.results)

    def summary(self, ks: Sequence[int] = (1, 5, 10)) -> Dict[str, float]:
        return {f"pass@{k}": round(self.pass_at(k), 1) for k in ks}

    def failure_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for result in self.results:
            for kind, count in result.failure_kinds.items():
                histogram[kind] = histogram.get(kind, 0) + count
        return histogram

    def to_dict(self) -> Dict:
        return {
            "suite": self.suite,
            "model_name": self.model_name,
            "results": [result.to_dict() for result in self.results],
            "trace": self.trace.to_dict() if self.trace else None,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "EvalReport":
        data = strip_schema(data)
        trace = data.get("trace")
        return cls(
            suite=data["suite"],
            model_name=data["model_name"],
            results=[ProblemResult.from_dict(item)
                     for item in data.get("results", [])],
            trace=PipelineTrace.from_dict(trace) if trace else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls.from_dict(json.loads(text))


def sample_seed(seed: int, problem_index: int, sample_index: int) -> int:
    """Stable 64-bit RNG seed for one (run, problem, sample) triple.

    An explicit blake2b mix — unlike tuple ``__hash__``, the derivation
    is documented, collision-resistant, and independent of interpreter
    hashing details.
    """
    digest = hashlib.blake2b(
        f"{seed}:{problem_index}:{sample_index}".encode("ascii"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little")


def resolve_config(config: Optional[EvalConfig]) -> EvalConfig:
    """``config``, or the default :class:`EvalConfig` for None."""
    return config if config is not None else EvalConfig()


def evaluate_model(
    model: FineTunable,
    problems: Iterable[EvalProblem],
    config: Optional[EvalConfig] = None,
    *,
    executor: Optional[ParallelExecutor] = None,
    cache: Optional[ResultCache] = None,
    obs: Optional[Observability] = None,
    resilience: Optional[Resilience] = None,
) -> EvalReport:
    """Run the full sampling + functional-check loop.

    Args:
        model: any :class:`FineTunable`.
        problems: the benchmark suite — any iterable (a list, or a
            lazy stream such as a generator over a problem store);
            drained once before fan-out.
        config: the declarative parameters as one frozen
            :class:`EvalConfig` (sample count, temperature, seed,
            vectors, report label); ``None`` means defaults.
        executor: per-problem fan-out; defaults to a thread pool
            (override with ``REPRO_PIPELINE_MODE=serial``).
        cache: functional-test outcome cache; pass a shared instance to
            reuse simulations across models/suites.
        obs: observability handle; the run becomes an ``eval.run`` span
            enclosing the engine's stage/worker spans, with problem and
            sample counters in the run's report.
        resilience: resilience runtime — per-problem work retries and
            quarantines under its policy, and with a checkpointer set
            the run journals per-problem batches and resumes a killed
            evaluation without re-sampling finished problems.
    """
    config = resolve_config(config)
    n_samples = config.n_samples
    temperature = config.temperature
    seed = config.seed
    n_test_vectors = config.n_test_vectors
    problems = list(problems)
    obs = resolve(obs)
    suite = problems[0].suite if problems else "empty"
    name = config.model_name or getattr(
        getattr(model, "profile", None), "name", type(model).__name__
    )
    outcome_cache = cache if cache is not None else ResultCache()

    def _run_problem(indexed) -> ProblemResult:
        # One front-end memo scope per problem record: a completion is
        # parsed once across generation, interface lookup and simulation.
        with FrontEndMemo().scope(obs):
            return _sample_and_check(indexed)

    def _sample_and_check(indexed) -> ProblemResult:
        p_index, problem = indexed
        result = ProblemResult(
            problem_id=problem.problem_id, n_samples=n_samples, n_passed=0
        )
        # Identical completions share one functional-test run; sampling
        # repeats exemplars often, so this cuts simulation cost a lot
        # without changing any outcome.
        namespace = f"functional/{problem.problem_id}/{n_test_vectors}"
        for s_index in range(n_samples):
            rng = random.Random(sample_seed(seed, p_index, s_index))
            code = model.generate(
                problem.description,
                temperature=temperature,
                rng=rng,
                module_header=problem.module_header,
            )
            outcome = outcome_cache.get_or_compute(
                namespace, code,
                lambda: run_functional_test(
                    code, problem.spec, n_vectors=n_test_vectors,
                    seed=1000,
                ),
            )
            if outcome.passed:
                result.n_passed += 1
            else:
                kind = outcome.failure_kind or "unknown"
                result.failure_kinds[kind] = (
                    result.failure_kinds.get(kind, 0) + 1
                )
        return result

    engine = StagedPipeline(
        name="evaluation",
        stages=[RecordStage("sample+simulate", _run_problem)],
        executor=executor or ParallelExecutor.from_env(default_mode="thread"),
        cache=outcome_cache,
        obs=obs,
        resilience=resilience,
        checkpoint_extra=(name, n_samples, temperature, seed,
                          n_test_vectors),
    )
    with obs.span("eval.run", suite=suite, model=name,
                  n_problems=len(problems), n_samples=n_samples) as span:
        outcome = engine.run(values=list(enumerate(problems)))
        report = EvalReport(
            suite=suite,
            model_name=name,
            results=[record.value for record in outcome.records],
            trace=outcome.trace,
        )
        span.meta["pass_at_1"] = round(report.pass_at(1), 1)
    outcome.trace.meta["model"] = name
    outcome.trace.meta["suite"] = suite
    outcome.trace.meta["n_samples"] = n_samples
    obs.counter("eval.problems").inc(len(problems))
    obs.counter("eval.samples").inc(len(problems) * n_samples)
    obs.counter("eval.passed").inc(
        sum(result.n_passed for result in report.results))
    # Per sample, as pass@k counts them (outcome-cache hits included).
    for kind, count in sorted(report.failure_histogram().items()):
        obs.counter(f"eval.failure.{kind}").inc(count)
    return report
