"""Formal reports and BDD node ids, pinned byte for byte.

The formal checker's answers are pure functions of the source: the
verdict, counterexample, bound, port and state counts and the number
of BDD nodes the check built.  These digests pin them over one draw
of every corpus family (``verify_design``, ``check_equivalence``
against two operator mutants and ``check_properties``), over the
16-bit comparator that spends the whole node budget, and over the
node arena a seeded sequence of connectives builds.  A change to the
BDD kernel or the symbolic interpreter that is meant to be
behaviour-preserving must leave every digest unchanged; never update a
digest to make a change pass.
"""

import hashlib
import random

import pytest

from repro.corpus import family_names, generate_design
from repro.dataset.corrupt import operator_mutants
from repro.verilog.formal import (BDDBudgetError, BDDManager,
                                  check_equivalence, check_properties,
                                  verify_design)
from repro.verilog.formal.bdd import FALSE, TRUE

#: sha256 over one line per report, families in name order.
CORPUS_DIGEST = ("a3b248262af5dd85f4611f7dfc1e1a55"
                 "d2e601d56ce46245be62294ce17edd71")
N_CORPUS_REPORTS = 138

#: sha256 of the 16-bit comparator's ``verify_design(...).to_json()``.
COMPARATOR_DIGEST = ("a516a4cc7b33ba7110ad36ce854fcb44"
                     "22ee883f44c1dc0ce7dbc31d25efbc8f")

#: sha256 of ``repr(mgr._nodes)`` after :func:`run_ops`.
ARENA_DIGEST = ("e62d1492b8f0ab39862fe1ab97aae1cf"
                "70593750a603a9e5f86f3e9bc0ad19e1")
ARENA_NODES = 70_639
#: Connectives :func:`run_ops` completes under a 500-node budget.
RESULTS_AT_500 = 81

N_VARS = 12
N_OPS = 3_000


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_reports():
    """One draw per family: its verify report, its equivalence report
    against each of two operator mutants, and a properties report."""
    lines = []
    for family in family_names():
        design = generate_design(family, random.Random(f"{family}/0"))
        source = design.source
        lines.append(verify_design(source).to_json())
        for mutant in operator_mutants(source, max_mutants=2):
            lines.append(check_equivalence(source, mutant).to_json())
        out = design.spec.outputs[0].name
        lines.append(check_properties(
            source, ["1'b1", f"{out} == {out}"]).to_json())
    return lines


def run_ops(mgr, results):
    """A seeded sequence of connectives over ``N_VARS`` variables,
    each result appended to ``results`` as it completes.  Operands come
    from the variables, the terminals and the most recent results, so
    functions grow deep enough to share and re-meet nodes."""
    rng = random.Random(0)
    pool = [mgr.new_var() for _ in range(N_VARS)] + [FALSE, TRUE]
    for _ in range(N_OPS):
        op = rng.choice(("ite", "and_", "or_", "xor_", "not_"))
        window = pool[-24:] + pool[:N_VARS]
        if op == "ite":
            result = mgr.ite(rng.choice(window), rng.choice(window),
                             rng.choice(window))
        elif op == "not_":
            result = mgr.not_(rng.choice(window))
        else:
            result = getattr(mgr, op)(rng.choice(window),
                                      rng.choice(window))
        results.append(result)
        pool.append(result)


class TestCorpusReports:
    def test_reports_are_pinned(self):
        lines = corpus_reports()
        assert len(lines) == N_CORPUS_REPORTS
        assert sha256("\n".join(lines)) == CORPUS_DIGEST


class TestComparator:
    def test_budget_blowup_report_is_pinned(self):
        design = generate_design("comparator", random.Random(0),
                                 params={"WIDTH": 16})
        report = verify_design(design.source)
        assert report.status == "unsupported"
        assert report.detail == "BDD node budget exceeded"
        assert sha256(report.to_json()) == COMPARATOR_DIGEST


class TestArena:
    def test_node_ids_are_pinned(self):
        mgr = BDDManager()
        results = []
        run_ops(mgr, results)
        assert len(results) == N_OPS
        assert len(mgr) == ARENA_NODES
        assert sha256(repr(mgr._nodes)) == ARENA_DIGEST

    def test_budget_crossed_at_the_same_node(self):
        full, full_results = BDDManager(), []
        run_ops(full, full_results)
        small, results = BDDManager(node_budget=500), []
        with pytest.raises(BDDBudgetError):
            run_ops(small, results)
        assert len(small) == 500
        assert len(results) == RESULTS_AT_500
        assert results == full_results[:RESULTS_AT_500]
        assert small._nodes == full._nodes[:500]
