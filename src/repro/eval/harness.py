"""The VerilogEval-style evaluation loop.

For every problem, sample *n* completions from the model at a fixed
temperature, run each against the problem's hidden functional
testbench, and estimate pass@k from the per-problem pass counts —
VerilogEval's protocol end to end.

The protocol is written once: :func:`_sample_outcomes` is the
per-sample loop (seed derivation, generation, outcome cache, stimulus
seed) and :func:`_map_problems` the per-problem map, both shared with
:func:`repro.eval.repair_eval.evaluate_with_repair`.  The map runs each
problem through a :class:`~repro.pipeline.ParallelExecutor` (serial by
default — ``generate`` and the simulator only read shared state, so a
pool is safe but opt-in), guarded by the run's resilience shield and,
with a checkpointer, journaled per batch of problems.  Functional-test
outcomes are memoised in a shared :class:`~repro.pipeline.ResultCache`
keyed on the completion text, so identical completions — within a run
or across models evaluated against the same suite — simulate once.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from ..corpus.spec import DesignSpec
from ..model.interfaces import FineTunable
from ..obs import Observability, resolve
from ..obs.reportable import Reportable
from ..pipeline import (
    ParallelExecutor,
    PipelineTrace,
    ResultCache,
    StageMetrics,
)
from ..pipeline.executor import attach_run
from ..resilience.checkpoint import run_signature
from ..resilience.runtime import Quarantined, Resilience
from ..resilience.runtime import resolve as resolve_resilience
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
class ProblemResult(Reportable):
    """Per-problem sampling outcome."""

    problem_id: str
    n_samples: int
    n_passed: int
    failure_kinds: Dict[str, int] = field(default_factory=dict)

    def pass_at(self, k: int) -> float:
        """pass@k, with k clamped to the sample count."""
        return pass_at_k(self.n_samples, self.n_passed,
                         min(k, self.n_samples))


@dataclass
class EvalReport(Reportable):
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


def _model_label(model: FineTunable, config: EvalConfig) -> str:
    """The name a report gives ``model``: the config's label, else the
    model profile's name, else the model's class name."""
    return config.model_name or getattr(
        getattr(model, "profile", None), "name", type(model).__name__
    )


#: Bump when the functional test's answers change (simulation or
#: grading semantics); a persistent outcome cache written before then
#: misses instead of serving stale outcomes.
OUTCOME_SCHEMA = "pyranet/functional-outcome/v3"


def _sample_outcomes(
    model: FineTunable, problem: EvalProblem, problem_index: int,
    config: EvalConfig, cache: ResultCache,
) -> Iterator[Tuple[int, str, TestOutcome]]:
    """The per-sample loop of the protocol, for one problem.

    Yields ``(sample index, completion, outcome)`` for each of
    ``config.n_samples`` completions, each generated under its own
    :func:`sample_seed` and checked against the problem's testbench.
    Identical completions share one functional-test run through
    ``cache``; sampling repeats exemplars often, so this cuts
    simulation cost a lot without changing any outcome.
    """
    n_vectors = config.n_test_vectors
    namespace = (f"functional/{OUTCOME_SCHEMA}/{problem.problem_id}/"
                 f"{n_vectors}")
    for s_index in range(config.n_samples):
        rng = random.Random(sample_seed(config.seed, problem_index,
                                        s_index))
        code = model.generate(
            problem.description,
            temperature=config.temperature,
            rng=rng,
            module_header=problem.module_header,
        )
        outcome = cache.get_or_compute(
            namespace, code,
            lambda: run_functional_test(code, problem.spec,
                                        n_vectors=n_vectors, seed=1000),
        )
        yield s_index, code, outcome


#: Names the journal's batch payload layout in the run signature, so a
#: journal written with any other layout is discarded, never replayed.
_JOURNAL_LAYOUT = "problem-rows/v1"


def _map_problems(
    name: str,
    stage: str,
    problems: Sequence[EvalProblem],
    run_problem: Callable[[Tuple[int, EvalProblem]], Any],
    *,
    executor: Optional[ParallelExecutor],
    cache: ResultCache,
    obs: Observability,
    resilience: Optional[Resilience],
    meta: Dict[str, Any],
    signature: Any,
) -> Tuple[List[Any], PipelineTrace]:
    """``run_problem`` over ``(index, problem)`` pairs, in input order.

    The per-problem map both evaluations run on.  Each problem runs in
    its own :class:`~repro.verilog.frontend.FrontEndMemo` scope (a
    completion parses once across generation, interface lookup,
    simulation and repair), guarded at ``stage.<stage>`` by the run's
    resilience shield; a quarantined problem is dropped from the
    results as ``quarantined:<error_type>`` and filed in the dead-letter
    report.  With a checkpointer, problems run in batches of its
    ``interval``, each committed as it finishes, and a resumed run
    replays the committed prefix instead of re-sampling it.

    Records the spans ``pipeline.<name>`` > ``<name>.<stage>`` >
    ``worker[i]`` and publishes one :class:`PipelineTrace` — a single
    stage with the outcome cache's traffic — carrying ``meta``.
    ``signature`` holds the parameters a journal must match to resume.
    """
    executor = executor if executor is not None else ParallelExecutor.serial()
    res = resolve_resilience(resilience)
    ckpt = res.checkpointer if res.enabled else None
    shield = res.shield(f"stage.{stage}", executor.mode)
    items = list(enumerate(problems))

    def in_scope(item: Tuple[int, EvalProblem]) -> Any:
        with FrontEndMemo().scope(obs):
            return run_problem(item)

    guarded = shield.wrap(in_scope) if shield is not None else in_scope

    def run_batch(batch: List[Tuple[int, EvalProblem]]) -> Dict[str, Any]:
        outcomes = executor.map(guarded, batch)
        if shield is not None:
            outcomes = shield.settle(outcomes)
        rows: List[Any] = []
        drops: Dict[str, int] = {}
        for outcome in outcomes:
            if isinstance(outcome, Quarantined):
                reason = f"quarantined:{outcome.error_type}"
                drops[reason] = drops.get(reason, 0) + 1
            else:
                rows.append(outcome)
        return {"rows": rows, "drops": drops}

    # Without a checkpointer, one map call over every problem (so a
    # pool chunks the whole suite); with one, a map call per batch.
    batches, committed, state = [items], 0, None
    metrics = StageMetrics(name=stage, n_in=len(items))
    hits_before, misses_before = cache.hits, cache.misses
    rows: List[Any] = []
    resumed = 0
    started = time.perf_counter()
    with attach_run(executor, obs, res), \
            obs.span(f"pipeline.{name}", n_input=len(items)) as run_span:
        with obs.span(f"{name}.{stage}", n_in=len(items)) as span:
            if ckpt is not None:
                state = ckpt.begin(run_signature(
                    problems, [stage],
                    extra=(name, _JOURNAL_LAYOUT, signature)))
                batches = [items[start:start + ckpt.interval]
                           for start in range(0, len(items),
                                              ckpt.interval)]
                committed = state.completed_batches(0)
            for batch_index, batch in enumerate(batches):
                if batch_index < committed:
                    payload = state.batch_result(0, batch_index)
                    resumed += 1
                else:
                    payload = run_batch(batch)
                    if ckpt is not None:
                        ckpt.record_batch(0, batch_index, stage, payload)
                rows.extend(payload["rows"])
                for reason, count in payload["drops"].items():
                    metrics.drops[reason] = (metrics.drops.get(reason, 0)
                                             + count)
            if resumed:
                res.record_resumed(batches=resumed)
            span.meta["n_out"] = len(rows)
            span.meta["resumed_batches"] = resumed
        run_span.meta["n_output"] = len(rows)
    metrics.wall_time_s = time.perf_counter() - started
    metrics.n_out = len(rows)
    metrics.cache_hits = cache.hits - hits_before
    metrics.cache_misses = cache.misses - misses_before
    trace = PipelineTrace(pipeline=name, stages=[metrics],
                          wall_time_s=metrics.wall_time_s)
    trace.meta["executor"] = executor.describe()
    trace.meta["n_input"] = len(items)
    trace.meta["cache"] = cache.stats()
    if res.enabled:
        trace.meta["resilience"] = res.summary()
    trace.meta.update(meta)
    # Disk-tier entries are written atomically but unsynced during the
    # run; one directory flush makes the whole run's entries durable.
    cache.sync_disk()
    obs.publish_trace(trace)
    if ckpt is not None:
        ckpt.finish({"n_output": len(rows)})
    return rows, trace


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
        executor: per-problem fan-out; defaults to serial.
        cache: functional-test outcome cache; pass a shared instance to
            reuse simulations across models/suites.
        obs: observability handle; the run becomes an ``eval.run`` span
            enclosing the per-problem map's stage/worker spans, with
            problem and sample counters in the run's report.
        resilience: resilience runtime — per-problem work retries and
            quarantines under its policy, and with a checkpointer set
            the run journals per-problem batches and resumes a killed
            evaluation without re-sampling finished problems.
    """
    config = resolve_config(config)
    n_samples = config.n_samples
    problems = list(problems)
    obs = resolve(obs)
    suite = problems[0].suite if problems else "empty"
    name = _model_label(model, config)
    outcome_cache = cache if cache is not None else ResultCache()

    def _run_problem(indexed: Tuple[int, EvalProblem]) -> ProblemResult:
        p_index, problem = indexed
        result = ProblemResult(
            problem_id=problem.problem_id, n_samples=n_samples, n_passed=0
        )
        for _, _, outcome in _sample_outcomes(model, problem, p_index,
                                             config, outcome_cache):
            if outcome.passed:
                result.n_passed += 1
            else:
                kind = outcome.failure_kind or "unknown"
                result.failure_kinds[kind] = (
                    result.failure_kinds.get(kind, 0) + 1
                )
        return result

    with obs.span("eval.run", suite=suite, model=name,
                  n_problems=len(problems), n_samples=n_samples) as span:
        results, trace = _map_problems(
            "evaluation", "sample+simulate", problems, _run_problem,
            executor=executor, cache=outcome_cache, obs=obs,
            resilience=resilience,
            meta={"model": name, "suite": suite, "n_samples": n_samples},
            signature=(name, n_samples, config.temperature, config.seed,
                       config.n_test_vectors))
        report = EvalReport(suite=suite, model_name=name,
                            results=results, trace=trace)
        span.meta["pass_at_1"] = round(report.pass_at(1), 1)
    obs.counter("eval.problems").inc(len(problems))
    obs.counter("eval.samples").inc(len(problems) * n_samples)
    obs.counter("eval.passed").inc(
        sum(result.n_passed for result in report.results))
    # Per sample, as pass@k counts them (outcome-cache hits included).
    for kind, count in sorted(report.failure_histogram().items()):
        obs.counter(f"eval.failure.{kind}").inc(count)
    return report
