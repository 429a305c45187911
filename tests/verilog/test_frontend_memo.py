"""The run-scoped front-end memo behind ``parse``: scopes, exact
counters, shared read-only trees, and equal errors on a hit."""

import pickle
import random
import threading

import pytest

from repro.corpus.github_sim import GitHubScrapeSimulator
from repro.corpus.templates import generate_design
from repro.dataset.pipeline import CurationPipeline
from repro.eval.config import EvalConfig
from repro.eval.functional import run_functional_test
from repro.eval.harness import evaluate_model
from repro.eval.problems.machine import build_machine_problems
from repro.model.interfaces import FineTunable, TrainStats
from repro.obs import Observability
from repro.pipeline import ParallelExecutor
from repro.verilog import parse
from repro.verilog.frontend import FrontEndMemo, join_scope
from repro.verilog.lexer import Lexer
from repro.verilog.parser import ACTIVE_MEMO, ParseError

MODULE = "module t(input a, output y);\n  assign y = ~a;\nendmodule\n"
BROKEN = "module t(input a, output y);\n  assign y = ~a\nendmodule\n"


class _Recorder:
    """Every text each memo was asked to parse, the lexer calls, and a
    pickle of each tree taken when the memo first handed it out."""

    def __init__(self, monkeypatch):
        self.texts = {}
        self.lexer_calls = 0
        self.snapshots = {}
        memo_parse, tokenize = FrontEndMemo.parse, Lexer.tokenize
        recorder = self

        def parse_recorded(memo, source):
            recorder.texts.setdefault(memo, set()).add(source)
            tree = memo_parse(memo, source)
            if id(tree) not in recorder.snapshots:
                recorder.snapshots[id(tree)] = (tree, pickle.dumps(tree))
            return tree

        def tokenize_counted(lexer):
            recorder.lexer_calls += 1
            return tokenize(lexer)

        monkeypatch.setattr(FrontEndMemo, "parse", parse_recorded)
        monkeypatch.setattr(Lexer, "tokenize", tokenize_counted)

    @property
    def distinct_per_scope(self):
        return sum(len(texts) for texts in self.texts.values())

    @property
    def misses(self):
        return sum(memo.stats()["parse"][1] for memo in self.texts)

    def assert_trees_unchanged(self):
        assert self.snapshots
        for tree, before in self.snapshots.values():
            assert pickle.dumps(tree) == before


class _MixedModel(FineTunable):
    """Emits the reference design, a broken copy, or a fixed junk
    module, by the sample's rng."""

    def __init__(self, problems):
        self._golden = {
            problem.description: generate_design(
                problem.spec.family, random.Random(0),
                params=problem.spec.params,
                module_name=problem.spec.module_name).source
            for problem in problems}

    def train_batch(self, examples, loss_weight):
        return TrainStats()

    def generate(self, description, temperature=0.8, rng=None,
                 module_header=None):
        golden = self._golden[description]
        pick = rng.random()
        if pick < 0.5:
            return golden
        if pick < 0.8:
            return golden.replace(";", "", 1)
        return "module top_module(); endmodule\n"


def _curate(obs):
    raw_files = GitHubScrapeSimulator(seed=3).scrape(120)
    return CurationPipeline(seed=3, obs=obs).run(raw_files)


def _evaluate(obs):
    problems = build_machine_problems()[:6]
    return evaluate_model(
        _MixedModel(problems), problems,
        EvalConfig(n_samples=4, n_test_vectors=8),
        executor=ParallelExecutor(mode="thread", max_workers=2), obs=obs)


def _frontend_counts(obs):
    counter = obs.registry.counter
    return {(tier, kind): counter(f"verilog.frontend.{tier}.{kind}").value
            for tier in ("parse", "design") for kind in ("hit", "miss")}


class TestScope:
    def test_outside_a_scope_every_call_parses(self):
        assert ACTIVE_MEMO.get() is None
        assert parse(MODULE) is not parse(MODULE)

    def test_inside_a_scope_a_text_parses_once(self):
        memo = FrontEndMemo()
        with memo.scope():
            assert parse(MODULE) is parse(MODULE)
        assert memo.stats()["parse"] == (1, 1)
        assert ACTIVE_MEMO.get() is None

    def test_a_hit_raises_an_equal_parse_error(self):
        with FrontEndMemo().scope():
            with pytest.raises(ParseError) as miss:
                parse(BROKEN)
            with pytest.raises(ParseError) as hit:
                parse(BROKEN)
        assert hit.value is not miss.value
        assert type(hit.value) is type(miss.value)
        assert ((hit.value.message, hit.value.line, hit.value.col)
                == (miss.value.message, miss.value.line, miss.value.col))
        assert str(hit.value) == str(miss.value)

    def test_join_scope_joins_the_open_scope(self):
        with FrontEndMemo().scope() as memo:
            with join_scope() as joined:
                assert joined is memo
        with join_scope() as fresh:
            assert fresh is not memo and ACTIVE_MEMO.get() is fresh

    def test_pool_threads_do_not_inherit_the_scope(self):
        seen = []
        with FrontEndMemo().scope():
            worker = threading.Thread(
                target=lambda: seen.append(ACTIVE_MEMO.get()))
            worker.start()
            worker.join()
        assert seen == [None]

    def test_scope_publishes_its_own_counts_only(self):
        memo, obs = FrontEndMemo(), Observability()
        with memo.scope():
            parse(MODULE)
        with memo.scope(obs):
            parse(MODULE)
            parse(MODULE)
        counts = _frontend_counts(obs)
        assert counts[("parse", "hit")] == 2
        assert counts[("parse", "miss")] == 0


class TestCounterExact:
    """Misses equal the distinct texts parsed in each scope, the lexer
    runs once per miss, and a repeat run starts cold again."""

    def test_curation_run(self, monkeypatch):
        runs = []
        for _ in range(2):
            recorder = _Recorder(monkeypatch)
            obs = Observability()
            _curate(obs)
            counts = _frontend_counts(obs)
            assert len(recorder.texts) == 1  # one scope for the run
            assert counts[("parse", "miss")] == recorder.distinct_per_scope
            assert recorder.lexer_calls == recorder.distinct_per_scope
            assert counts[("parse", "hit")] > 0
            runs.append(counts)
            monkeypatch.undo()
        assert runs[0] == runs[1]

    def test_evaluation_run(self, monkeypatch):
        runs = []
        for _ in range(2):
            recorder = _Recorder(monkeypatch)
            obs = Observability()
            report = _evaluate(obs)
            counts = _frontend_counts(obs)
            # One scope per problem record.
            assert len(recorder.texts) == len(report.results)
            assert recorder.misses == recorder.distinct_per_scope
            assert counts[("parse", "miss")] == recorder.distinct_per_scope
            assert recorder.lexer_calls == recorder.distinct_per_scope
            runs.append((counts, report.summary()))
            monkeypatch.undo()
        assert runs[0] == runs[1]

    def test_functional_test(self, monkeypatch):
        problem = build_machine_problems()[0]
        source = generate_design(problem.spec.family, random.Random(0),
                                 params=problem.spec.params,
                                 module_name=problem.spec.module_name).source
        for _ in range(2):
            recorder = _Recorder(monkeypatch)
            assert run_functional_test(source, problem.spec,
                                       n_vectors=4).passed
            (memo,) = recorder.texts
            assert memo.stats()["parse"] == (1, 1)
            assert recorder.lexer_calls == 1
            monkeypatch.undo()


class TestSharedTreesAreReadOnly:
    def test_no_tree_changes_during_curation(self, monkeypatch):
        recorder = _Recorder(monkeypatch)
        _curate(Observability())
        recorder.assert_trees_unchanged()

    def test_no_tree_changes_during_evaluation(self, monkeypatch):
        recorder = _Recorder(monkeypatch)
        _evaluate(Observability())
        recorder.assert_trees_unchanged()
