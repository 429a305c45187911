"""The compiler-feedback repair rules, driven by the repair loop.

The rules live in :mod:`repro.model.repair`; the loop that applies them
is :class:`repro.repairloop.RepairLoop` with its rule-based repairer,
here at budget 4.
"""

import random

from repro.corpus import mutate
from repro.corpus.templates import generate_design, generate_random_design
from repro.model.repair import _insert_semicolon
from repro.repairloop import RepairLoop
from repro.verilog import check


def _clean(seed=0):
    return generate_design("up_counter", random.Random(seed)).source


def repair(code, budget=4):
    return RepairLoop(budget=budget).run(code)


class TestRepairRules:
    def test_already_clean_untouched(self):
        source = _clean()
        result = repair(source)
        assert result.fixed
        assert result.final_code == source
        assert result.n_iterations() == 0

    def test_restores_missing_endmodule(self):
        broken = _clean().replace("endmodule", "")
        result = repair(broken)
        assert result.fixed, result.actions()
        assert check(result.final_code).status != "syntax"

    def test_fixes_begin_typo(self):
        broken = _clean().replace("begin", "begn", 1)
        result = repair(broken)
        assert result.fixed, result.actions()

    def test_strips_garbage(self):
        source = _clean()
        broken = source[:40] + " @@ %% ## " + source[40:]
        result = repair(broken)
        assert result.fixed, result.actions()

    def test_inserts_missing_semicolon(self):
        source = "module m(input a, output y);\n  assign y = ~a\nendmodule\n"
        result = repair(source)
        assert result.fixed, result.actions()
        assert check(result.final_code).status == "clean"

    def test_dependency_issue_is_acceptable(self):
        source = ("module m(input a, output y);\n"
                  "  sub u(.a(a), .y(y))\nendmodule\n")  # missing ';'
        result = repair(source)
        assert result.fixed
        assert result.final_status == "dependency"

    def test_gives_up_on_hopeless_input(self):
        result = repair(")))((( nonsense", budget=3)
        assert not result.fixed


class TestInsertSemicolon:
    """The column-driven insertion path (regression: the old
    heuristic patched only the line *above* the diagnostic, so a
    missing semicolon reported on line 1 was unfixable)."""

    def test_line_one_error_fixed_via_column(self):
        code = "module m(input a, output y); assign y = a endmodule\n"
        report = check(code)
        diag = report.diagnostics[0]
        assert diag.line == 1 and diag.column > 1
        result = repair(code)
        assert result.fixed, result.actions()
        assert check(result.final_code).status == "clean"

    def test_column_splices_within_line(self):
        code = "module m(input a, output y); assign y = a endmodule\n"
        diag = check(code).diagnostics[0]
        fixed = _insert_semicolon(code, diag.line, diag.column)
        assert fixed is not None
        assert "assign y = a; endmodule" in fixed

    def test_no_column_falls_back_to_previous_line(self):
        code = "module m(input a, output y);\n  assign y = a\nendmodule\n"
        fixed = _insert_semicolon(code, 3, 0)
        assert fixed is not None
        assert fixed.split("\n")[1].endswith(";")

    def test_out_of_range_line_is_refused(self):
        assert _insert_semicolon("module m;\nendmodule\n", 99) is None
        assert _insert_semicolon("module m;\nendmodule\n", 0) is None

    def test_never_doubles_a_semicolon(self):
        code = "module m(input a, output y);\n  assign y = a;\nendmodule\n"
        assert _insert_semicolon(code, 3, 0) is None


class TestRepairOverMutations:
    def test_repairs_most_syntax_mutations(self):
        fixed = 0
        total = 0
        for seed in range(20):
            design = generate_random_design(random.Random(seed))
            broken = mutate.break_syntax(design.source,
                                         random.Random(seed + 500))
            if check(broken.source).status != "syntax":
                continue  # mutation happened to stay legal
            total += 1
            if repair(broken.source).fixed:
                fixed += 1
        assert total >= 10
        # Truncation is often unrecoverable; everything else should fix.
        assert fixed / total >= 0.5, (fixed, total)
