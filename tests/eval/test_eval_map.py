"""The per-problem map both evaluations run on.

``evaluate_model`` and ``evaluate_with_repair`` share one sampling loop
and one map over problems; these tests pin what they share: the trace
each publishes, the front-end memo scope per problem, the span tree,
quarantine of a failing problem, journal resume, and the serial
default executor.
"""

import json

import pytest

from repro.eval.config import EvalConfig
from repro.eval.harness import evaluate_model
from repro.eval.problems.machine import build_machine_problems
from repro.eval.repair_eval import evaluate_with_repair
from repro.model.generator import CODELLAMA_7B, ConditionalCodeModel
from repro.obs import Observability
from repro.pipeline import ParallelExecutor, PipelineTrace
from repro.resilience import (Checkpointer, FaultPlan, FaultRule,
                              Resilience, RetryPolicy, SimulatedCrash,
                              run_signature)

CONFIG = EvalConfig(n_samples=5, seed=9, n_test_vectors=8)

#: (pipeline name, stage name, run span) per evaluation path.
PATHS = {
    "classic": ("evaluation", "sample+simulate", "eval.run"),
    "repair": ("repair-evaluation", "sample+simulate+repair",
               "eval.repair_run"),
}


@pytest.fixture(scope="module")
def problems():
    return build_machine_problems()[:8]


def _evaluate(path, problems, budget=2, **kwargs):
    """One run of ``path`` on a fresh model (serial unless given)."""
    kwargs.setdefault("executor", ParallelExecutor.serial())
    model = ConditionalCodeModel(CODELLAMA_7B, seed=5)
    if path == "classic":
        return evaluate_model(model, problems, CONFIG, **kwargs)
    return evaluate_with_repair(
        model, problems, CONFIG.with_overrides(repair_budget=budget),
        **kwargs)


def _rows(report):
    return json.dumps([row.to_dict() for row in report.results],
                      sort_keys=True)


def _parse_counts(obs):
    counter = obs.registry.counter
    return {kind: counter(f"verilog.frontend.parse.{kind}").value
            for kind in ("hit", "miss")}


@pytest.mark.parametrize("path", sorted(PATHS))
class TestBothPaths:
    def test_registry_copy_of_the_trace_is_complete(self, path, problems):
        obs = Observability()
        report = _evaluate(path, problems[:3], obs=obs)
        rebuilt = PipelineTrace.from_registry(obs.registry,
                                              PATHS[path][0])
        assert rebuilt.to_json() == report.trace.to_json()
        assert rebuilt.meta["model"] == report.model_name
        assert rebuilt.meta["suite"] == "machine"

    def test_default_executor_is_serial(self, path, problems):
        report = _evaluate(path, problems[:2], executor=None)
        assert report.trace.meta["executor"]["mode"] == "serial"

    def test_span_tree(self, path, problems):
        name, stage, run_span = PATHS[path]
        obs = Observability()
        _evaluate(path, problems[:4], obs=obs,
                  executor=ParallelExecutor(mode="thread", max_workers=2))
        spans = obs.tracer.export()
        by_name = {span["name"]: span for span in spans}
        pipeline = by_name[f"pipeline.{name}"]
        stage_span = by_name[f"{name}.{stage}"]
        assert pipeline["parent_id"] == by_name[run_span]["span_id"]
        assert stage_span["parent_id"] == pipeline["span_id"]
        workers = [span for span in spans
                   if span["name"].startswith("worker[")]
        assert workers
        assert all(span["parent_id"] == stage_span["span_id"]
                   for span in workers)
        assert pipeline["meta"] == {"n_input": 4, "n_output": 4}
        assert stage_span["meta"] == {"n_in": 4, "n_out": 4,
                                      "resumed_batches": 0}

    def test_persistent_fault_quarantines_one_problem(self, path,
                                                      problems):
        _, stage, _ = PATHS[path]
        clean = _evaluate(path, problems)
        # Serial, two attempts per problem: ordinals 2 and 3 are both
        # attempts on the third problem, so it alone is quarantined.
        plan = FaultPlan([FaultRule(site=f"stage.{stage}",
                                    ordinals=(2, 3))])
        res = Resilience(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0,
                              jitter=0.0),
            fault_plan=plan)
        faulted = _evaluate(path, problems, resilience=res)

        victim = problems[2].problem_id
        assert victim not in [row.problem_id for row in faulted.results]
        assert faulted.trace.drop_histogram() == {
            "quarantined:TransientFault": 1}
        assert faulted.trace.stage(stage).n_out == len(problems) - 1
        assert len(res.dead_letter) == 1
        assert res.dead_letter.entries[0]["site"] == f"stage.{stage}"
        expected = [row for row in json.loads(_rows(clean))
                    if row["problem_id"] != victim]
        assert json.loads(_rows(faulted)) == expected


def test_repair_thread_rows_equal_serial_rows(problems):
    """Classic eval's serial/thread parity is pinned in test_harness."""
    serial = _evaluate("repair", problems)
    threaded = _evaluate(
        "repair", problems,
        executor=ParallelExecutor(mode="thread", max_workers=2))
    assert _rows(threaded) == _rows(serial)


class TestFrontEndScope:
    def test_repair_at_r0_parses_like_classic(self, problems):
        """Each problem runs in one memo scope on both paths, so at
        budget 0 they parse the same texts the same number of times."""
        counts = {}
        for path in PATHS:
            obs = Observability()
            _evaluate(path, problems, budget=0, obs=obs)
            counts[path] = _parse_counts(obs)
        assert counts["repair"] == counts["classic"]
        assert counts["classic"]["hit"] > 0
        assert counts["classic"]["miss"] > 0


class TestJournal:
    @pytest.mark.faults
    def test_killed_repair_eval_resumes_identically(self, problems,
                                                    tmp_path):
        subset = problems[:4]
        golden = _evaluate("repair", subset)

        journal = tmp_path / "journal"
        plan = FaultPlan([FaultRule(site="stage.sample+simulate+repair",
                                    kind="crash", ordinals=(2,))])
        doomed = Resilience(checkpointer=Checkpointer(journal, interval=1),
                            fault_plan=plan)
        with pytest.raises(SimulatedCrash):
            _evaluate("repair", subset, resilience=doomed)

        revived = Resilience(checkpointer=Checkpointer(journal, interval=1))
        resumed = _evaluate("repair", subset, resilience=revived)
        assert _rows(resumed) == _rows(golden)
        assert revived.summary()["resumed_batches"] == 2

    def test_journal_of_the_engine_layout_is_discarded(self, problems,
                                                       tmp_path):
        """A journal written under the signature the engine-based
        evaluation used (records of ``(index, value, meta)``) holds a
        different payload layout; it must start the run over, not
        replay."""
        subset = problems[:3]
        clean = _evaluate("classic", subset)
        journal = tmp_path / "journal"
        old = Checkpointer(journal, interval=1)
        old.begin(run_signature(
            [(index, (index, problem), {})
             for index, problem in enumerate(subset)],
            ["sample+simulate"],
            extra=("evaluation", (clean.model_name, CONFIG.n_samples,
                                  CONFIG.temperature, CONFIG.seed,
                                  CONFIG.n_test_vectors))))
        old.record_batch(0, 0, "sample+simulate",
                         {"survivors": [], "drops": {}})

        res = Resilience(checkpointer=Checkpointer(journal, interval=1))
        rerun = _evaluate("classic", subset, resilience=res)
        assert res.summary()["resumed_batches"] == 0
        assert _rows(rerun) == _rows(clean)
