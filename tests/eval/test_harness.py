"""Tests for problem suites and the evaluation loop."""

import random

import pytest

from repro.eval.config import EvalConfig
from repro.eval.harness import (
    EvalReport,
    ProblemResult,
    evaluate_model,
    sample_seed,
)
from repro.eval.problems.human import build_human_problems
from repro.eval.problems.machine import build_machine_problems
from repro.model.interfaces import FineTunable, TrainStats
from repro.pipeline import ParallelExecutor, ResultCache


class OracleModel(FineTunable):
    """Always emits the reference implementation (pass@k = 100)."""

    def __init__(self, problems):
        self._by_description = {}
        for problem in problems:
            from repro.corpus.templates import generate_design

            family = problem.spec.family
            design = generate_design(
                family, random.Random(0), params=problem.spec.params,
                module_name=problem.spec.module_name)
            self._by_description[problem.description] = design.source

    def train_batch(self, examples, loss_weight):
        return TrainStats()

    def generate(self, description, temperature=0.8, rng=None,
                 module_header=None):
        return self._by_description.get(
            description, "module top_module(); endmodule")


class JunkModel(FineTunable):
    """Always emits garbage (pass@k = 0)."""

    def train_batch(self, examples, loss_weight):
        return TrainStats()

    def generate(self, description, temperature=0.8, rng=None,
                 module_header=None):
        return "this is not verilog at all"


class TestProblemSuites:
    def test_machine_suite_size(self):
        assert len(build_machine_problems()) >= 40

    def test_human_suite_size(self):
        assert len(build_human_problems()) >= 25

    def test_all_problems_have_golden(self):
        for problem in build_machine_problems() + build_human_problems():
            assert problem.spec.golden is not None
            assert problem.module_header.startswith("module top_module")

    def test_reference_solutions_pass_own_testbench(self):
        """Subset check: the spec's own rendered design must pass."""
        from repro.corpus.templates import generate_design
        from repro.eval.functional import run_functional_test

        for problem in build_machine_problems()[::7]:
            design = generate_design(
                problem.spec.family, random.Random(0),
                params=problem.spec.params,
                module_name=problem.spec.module_name)
            outcome = run_functional_test(design.source, problem.spec,
                                          n_vectors=12)
            assert outcome.passed, problem.problem_id

    def test_human_descriptions_are_paraphrased(self):
        """Human descriptions must not echo the machine describer."""
        from repro.corpus.templates import get_family

        for problem in build_human_problems():
            family = get_family(problem.spec.family)
            # The expanded keyword is the canonical term; at most a few
            # human prompts may use it verbatim.
            assert problem.suite == "human"

    def test_problem_ids_unique(self):
        problems = build_machine_problems() + build_human_problems()
        ids = [p.problem_id for p in problems]
        assert len(set(ids)) == len(ids)


class TestEvaluateModel:
    def test_oracle_scores_100(self):
        problems = build_machine_problems()[:5]
        report = evaluate_model(
            OracleModel(problems), problems,
            EvalConfig(n_samples=3, n_test_vectors=8))
        assert report.pass_at(1) == pytest.approx(100.0)

    def test_junk_scores_0(self):
        problems = build_machine_problems()[:5]
        report = evaluate_model(
            JunkModel(), problems,
            EvalConfig(n_samples=3, n_test_vectors=8))
        assert report.pass_at(1) == 0.0
        assert report.failure_histogram().get("parse", 0) > 0

    def test_report_summary_shape(self):
        problems = build_machine_problems()[:3]
        report = evaluate_model(
            JunkModel(), problems,
            EvalConfig(n_samples=10, n_test_vectors=4))
        summary = report.summary()
        assert set(summary) == {"pass@1", "pass@5", "pass@10"}

    def test_deterministic_across_runs(self):
        from repro.model.generator import CODELLAMA_7B, ConditionalCodeModel

        problems = build_machine_problems()[:4]
        model = ConditionalCodeModel(CODELLAMA_7B, seed=5)
        a = evaluate_model(
            model, problems,
            EvalConfig(n_samples=4, seed=9, n_test_vectors=8))
        model2 = ConditionalCodeModel(CODELLAMA_7B, seed=5)
        b = evaluate_model(
            model2, problems,
            EvalConfig(n_samples=4, seed=9, n_test_vectors=8))
        assert a.summary() == b.summary()

    def test_problem_result_pass_at(self):
        result = ProblemResult(problem_id="p", n_samples=10, n_passed=5)
        assert result.pass_at(1) == pytest.approx(0.5)

    def test_parallel_and_serial_reports_agree(self):
        from repro.model.generator import CODELLAMA_7B, ConditionalCodeModel

        problems = build_machine_problems()[:6]
        config = EvalConfig(n_samples=4, seed=9, n_test_vectors=8)
        serial = evaluate_model(
            ConditionalCodeModel(CODELLAMA_7B, seed=5), problems,
            config, executor=ParallelExecutor.serial())
        threaded = evaluate_model(
            ConditionalCodeModel(CODELLAMA_7B, seed=5), problems,
            config, executor=ParallelExecutor(mode="thread", max_workers=4))
        assert [r.to_dict() for r in serial.results] == [
            r.to_dict() for r in threaded.results]

    @pytest.mark.parametrize("executor", [
        ParallelExecutor.serial(),
        ParallelExecutor(mode="thread", max_workers=4),
    ], ids=["serial", "thread"])
    def test_failure_counters_match_histogram(self, executor):
        from repro.model.generator import CODELLAMA_7B, ConditionalCodeModel
        from repro.obs import Observability

        problems = build_machine_problems()[:8]
        obs = Observability()
        report = evaluate_model(
            ConditionalCodeModel(CODELLAMA_7B, seed=5), problems,
            EvalConfig(n_samples=5, seed=9, n_test_vectors=8),
            executor=executor, obs=obs)
        histogram = report.failure_histogram()
        assert sum(histogram.values()) > 0
        counters = obs.registry.counters("eval.failure.")
        assert counters == {f"eval.failure.{kind}": count
                            for kind, count in histogram.items()}
        assert (sum(counters.values()) + obs.registry.counters(
            "eval.passed")["eval.passed"]
            == obs.registry.counters("eval.samples")["eval.samples"])

    def test_trace_reports_fanout_and_cache(self):
        problems = build_machine_problems()[:4]
        report = evaluate_model(
            JunkModel(), problems,
            EvalConfig(n_samples=5, n_test_vectors=4))
        trace = report.trace
        assert trace is not None
        stage = trace.stage("sample+simulate")
        assert stage.n_in == 4 and stage.n_out == 4
        assert stage.wall_time_s >= 0.0
        # JunkModel emits one distinct completion per problem: 4 misses,
        # the other 16 samples hit the outcome cache.
        assert stage.cache_misses == 4
        assert stage.cache_hits == 16

    def test_shared_cache_reused_across_models(self):
        problems = build_machine_problems()[:3]
        cache = ResultCache()
        config = EvalConfig(n_samples=3, n_test_vectors=4)
        first = evaluate_model(JunkModel(), problems, config, cache=cache)
        second = evaluate_model(JunkModel(), problems, config, cache=cache)
        assert second.trace.stage("sample+simulate").cache_misses == 0
        assert first.summary() == second.summary()

    def test_persistent_outcome_from_unversioned_key_is_not_served(
            self, tmp_path):
        """A disk cache written before outcome keys carried a schema
        (``functional/<problem>/<vectors>``) must miss, not serve an
        outcome computed under other semantics."""
        from repro.eval.functional import TestOutcome
        from repro.pipeline import DiskCache
        from repro.pipeline.cache import content_key

        problems = build_machine_problems()[:1]
        stale = DiskCache(tmp_path)
        stale.put(content_key(f"functional/{problems[0].problem_id}/4",
                              JunkModel().generate("")),
                  TestOutcome(passed=True))
        report = evaluate_model(
            JunkModel(), problems, EvalConfig(n_samples=2, n_test_vectors=4),
            cache=ResultCache(disk=DiskCache(tmp_path)))
        assert report.pass_at(1) == 0.0
        assert report.failure_histogram() == {"parse": 2}

    def test_report_json_round_trip(self):
        problems = build_machine_problems()[:3]
        report = evaluate_model(
            JunkModel(), problems,
            EvalConfig(n_samples=4, n_test_vectors=4))
        restored = EvalReport.from_json(report.to_json())
        assert restored.suite == report.suite
        assert restored.model_name == report.model_name
        assert [r.to_dict() for r in restored.results] == [
            r.to_dict() for r in report.results]
        assert restored.trace.to_dict() == report.trace.to_dict()
        assert restored.summary() == report.summary()


class TestSampleSeeding:
    def test_pinned_values(self):
        """Regression pin: per-sample seeds are part of the protocol —
        a change here silently reshuffles every sampled completion."""
        assert sample_seed(0, 0, 0) == 18089622622667645874
        assert sample_seed(9, 2, 3) == 16124740195836742067
        assert sample_seed(12, 0, 7) == 4186393702693507101

    def test_distinct_across_axes(self):
        seeds = {
            sample_seed(seed, p, s)
            for seed in range(3) for p in range(5) for s in range(5)
        }
        assert len(seeds) == 3 * 5 * 5

    def test_stable_across_processes(self):
        """The mix must not depend on interpreter hash randomisation."""
        import subprocess
        import sys

        script = (
            "from repro.eval.harness import sample_seed;"
            "print(sample_seed(9, 2, 3))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "12345"},
            cwd=__file__.rsplit("/tests/", 1)[0],
        ).stdout.strip()
        assert int(out) == sample_seed(9, 2, 3)
