"""Tests for the filter funnel."""

import pytest

from repro.dataset.filters import (
    has_module,
    is_readable,
    syntax_filter,
)

from .reference_funnel import run_filter_funnel

GOOD = "module m(input a, output y);\n  assign y = ~a;\nendmodule\n"
DEP = "module m(input a, output y);\n  missing u(.x(a), .y(y));\nendmodule\n"
BAD = "module m(input a output y); endmodule"


class TestStageFilters:
    def test_empty_rejected(self):
        assert not is_readable("").kept

    def test_whitespace_rejected(self):
        assert not is_readable("  \n\t \n").kept

    def test_binary_garbage_rejected(self):
        garbage = "".join(chr(0x80 + i % 100) for i in range(64))
        assert not is_readable(garbage).kept

    def test_normal_text_kept(self):
        assert is_readable(GOOD).kept

    def test_module_filter(self):
        assert has_module(GOOD).kept
        assert not has_module("// just a comment\n").kept
        assert not has_module("/* module fake */\n").kept

    def test_commented_module_not_counted(self):
        assert not has_module("// module ghost(input a);\n").kept

    def test_syntax_filter_clean(self):
        decision, result = syntax_filter(GOOD)
        assert decision.kept and result.status == "clean"

    def test_syntax_filter_dependency_kept(self):
        decision, result = syntax_filter(DEP)
        assert decision.kept
        assert result.status == "dependency"
        assert decision.reason == "dependency issues"

    def test_syntax_filter_rejects_broken(self):
        decision, _ = syntax_filter(BAD)
        assert not decision.kept


class TestFunnel:
    def test_counts_add_up(self):
        contents = [GOOD, DEP, BAD, "", "just a readme, not verilog"]
        survivors, stats = run_filter_funnel(contents)
        assert stats.collected == 5
        assert stats.after_empty_broken == 4
        assert stats.after_module_decl == 3
        assert stats.after_syntax == 2
        assert stats.clean == 1
        assert stats.dependency_only == 1
        assert {s.index for s in survivors} == {0, 1}

    def test_removal_accounting(self):
        contents = [GOOD, "", BAD]
        _, stats = run_filter_funnel(contents)
        assert stats.removed["empty_broken"] == 1
        assert stats.removed["syntax_check"] == 1

    def test_dedup_hook(self):
        contents = [GOOD, GOOD, DEP]
        survivors, stats = run_filter_funnel(
            contents, dedup=lambda texts: [0, 2]
        )
        assert stats.after_dedup == 2
        assert stats.removed["dedup"] == 1
        assert {s.index for s in survivors} == {0, 2}

    def test_empty_input(self):
        survivors, stats = run_filter_funnel([])
        assert survivors == []
        assert stats.collected == 0
