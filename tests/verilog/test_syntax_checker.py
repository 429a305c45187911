"""Tests for compile checking with the paper's failure taxonomy."""

import pytest

from repro.verilog import Category, Severity, check, has_module_declaration


GOOD = """\
module good(input a, input b, output y);
  wire t;
  assign t = a & b;
  assign y = ~t;
endmodule
"""


class TestStatusClassification:
    def test_clean(self):
        assert check(GOOD).status == "clean"

    def test_syntax_error(self):
        result = check("module m(input a output y); endmodule")
        assert result.status == "syntax"
        assert result.syntax_errors

    @pytest.mark.parametrize("literal", ["4'b1021", "6'o79", "8'd1f"])
    def test_digit_outside_base_is_syntax(self, literal):
        result = check(f"module m(output [7:0] y);\n"
                       f"  assign y = {literal};\nendmodule\n")
        assert result.status == "syntax"
        error = result.syntax_errors[0]
        assert (error.line, error.column) == (2, 14)

    def test_unknown_module_is_dependency(self):
        result = check("module m; ghost u(.a(1'b0)); endmodule")
        assert result.status == "dependency"
        assert "ghost" in result.dependency_issues[0].message

    def test_undefined_identifier_is_dependency(self):
        result = check(
            "module m(output y); assign y = external_net; endmodule")
        assert result.status == "dependency"

    def test_missing_include_is_dependency(self):
        result = check('`include "nowhere.vh"\nmodule m; endmodule')
        assert result.status == "dependency"

    def test_syntax_beats_dependency(self):
        result = check(
            "module m; ghost u(.a(1'b0)) endmodule")  # missing ';'
        assert result.status == "syntax"

    def test_no_module_is_syntax(self):
        assert check("wire x;").status == "syntax"

    def test_known_sibling_module_ok(self):
        source = GOOD + "\nmodule top(input a, b, output y);\n" \
                        "  good u(.a(a), .b(b), .y(y));\nendmodule\n"
        assert check(source).status == "clean"

    def test_extra_modules_parameter(self):
        result = check("module m; lib_cell u(.a(1'b0)); endmodule",
                       extra_modules=["lib_cell"])
        assert result.status == "clean"


class TestScopeResolution:
    def test_function_locals_resolve(self):
        source = """
            module m(input [3:0] x, output [3:0] y);
              function [3:0] inc;
                input [3:0] v;
                inc = v + 1;
              endfunction
              assign y = inc(x);
            endmodule"""
        assert check(source).status == "clean"

    def test_block_locals_resolve(self):
        source = """
            module m(input clk, output reg [3:0] q);
              always @(posedge clk) begin : blk
                integer i;
                for (i = 0; i < 4; i = i + 1)
                  q[i] <= ~q[i];
              end
            endmodule"""
        assert check(source).status == "clean"

    def test_genvar_resolves(self):
        source = """
            module m(input [3:0] a, output [3:0] y);
              genvar g;
              generate
                for (g = 0; g < 4; g = g + 1) begin : bits
                  assign y[g] = ~a[g];
                end
              endgenerate
            endmodule"""
        assert check(source).status == "clean"

    def test_parameters_resolve(self):
        source = """
            module m #(parameter W = 4)(input [W-1:0] a,
                                        output [W-1:0] y);
              localparam HALF = W / 2;
              assign y = a << HALF;
            endmodule"""
        assert check(source).status == "clean"

    def test_instance_connections_allow_implicit_nets(self):
        source = GOOD + """
            module top(input p, q, output r);
              good u(.a(p), .b(q), .y(implicit_wire));
              assign r = p;
            endmodule"""
        # Implicit nets in connections are legal Verilog.
        assert check(source).status == "clean"

    def test_duplicate_reports_collapsed(self):
        result = check(
            "module m(output y, output z);\n"
            "  assign y = ghost;\n  assign z = ghost;\nendmodule")
        ghost_reports = [d for d in result.diagnostics
                         if "ghost" in d.message]
        assert len(ghost_reports) == 1


class TestDiagnostics:
    def test_positions_reported(self):
        result = check("module m;\n  assign y = ;\nendmodule")
        assert result.syntax_errors[0].line == 2

    def test_category_enum(self):
        result = check("module m; ghost u(); endmodule")
        diag = result.dependency_issues[0]
        assert diag.category is Category.DEPENDENCY
        assert diag.severity is Severity.ERROR

    def test_str_rendering(self):
        result = check("module m; ghost u(); endmodule")
        text = str(result.dependency_issues[0])
        assert "dependency" in text


class TestModuleDeclarationFilter:
    def test_positive(self):
        assert has_module_declaration(GOOD)

    def test_negative(self):
        assert not has_module_declaration("// nothing here\nwire x;")

    def test_commented_module_ignored(self):
        assert not has_module_declaration("// module fake(input a);")
        assert not has_module_declaration("/* module fake; */")

    def test_escaped_identifier_module(self):
        assert has_module_declaration("module \\weird-name (a); endmodule")
