"""Unit tests for the Verilog parser."""

import pytest

from repro.verilog import ast_nodes as ast
from repro.verilog.parser import (
    ParseError,
    parse,
    parse_module,
    parse_number_literal,
)


class TestNumberLiterals:
    def test_plain_decimal(self):
        n = parse_number_literal("42")
        assert n.width is None and n.value == 42 and n.signed

    def test_sized_hex(self):
        n = parse_number_literal("8'hFF")
        assert (n.width, n.value) == (8, 255)

    def test_sized_binary(self):
        n = parse_number_literal("4'b1010")
        assert (n.width, n.value) == (4, 0b1010)

    def test_octal(self):
        n = parse_number_literal("6'o17")
        assert n.value == 0o17

    def test_signed_marker(self):
        assert parse_number_literal("4'sb1010").signed

    def test_x_digits(self):
        n = parse_number_literal("4'b1x0z")
        assert n.value == 0b1000
        assert n.xz_mask == 0b0101
        assert n.z_mask == 0b0001

    def test_question_mark_is_z(self):
        n = parse_number_literal("4'b10??")
        assert n.z_mask == 0b0011

    def test_top_x_extends(self):
        n = parse_number_literal("8'bx")
        assert n.xz_mask == 0xFF

    def test_underscores(self):
        assert parse_number_literal("16'hAB_CD").value == 0xABCD

    def test_truncation_to_width(self):
        assert parse_number_literal("4'hFF").value == 0xF

    @pytest.mark.parametrize("literal, digit", [
        ("4'b1021", "2"), ("6'o79", "9"), ("8'd1f", "f")])
    def test_digit_outside_base_is_a_parse_error(self, literal, digit):
        with pytest.raises(ParseError) as caught:
            parse_number_literal(literal, 3, 14)
        assert (caught.value.line, caught.value.col) == (3, 14)
        assert repr(digit) in caught.value.message

    @pytest.mark.parametrize("literal", ["4'b1021", "6'o79", "8'd1f"])
    def test_bad_literal_reported_at_its_token(self, literal):
        with pytest.raises(ParseError) as caught:
            parse(f"module m(output [7:0] y);\n  assign y = {literal};\n"
                  "endmodule\n")
        assert (caught.value.line, caught.value.col) == (2, 14)

    def test_malformed_literal_reported_at_its_token(self):
        with pytest.raises(ParseError) as caught:
            parse("module m(output [7:0] y);\n  assign y = 1²;\nendmodule\n")
        assert (caught.value.line, caught.value.col) == (2, 14)


class TestModuleHeaders:
    def test_ansi_ports(self):
        m = parse_module(
            "module m(input a, output reg [3:0] y); endmodule")
        assert m.port_names() == ["a", "y"]
        assert m.find_port("y").net_kind == "reg"
        assert m.find_port("y").direction == "output"

    def test_shared_direction_carries(self):
        m = parse_module("module m(input [1:0] a, b, output y); endmodule")
        assert m.find_port("b").direction == "input"
        assert m.find_port("b").range is not None

    def test_non_ansi_ports_completed(self):
        m = parse_module("""
            module m(a, y);
              input [7:0] a;
              output reg y;
            endmodule""")
        assert m.find_port("a").direction == "input"
        assert m.find_port("y").direction == "output"
        assert m.find_port("y").net_kind == "reg"

    def test_parameter_port_list(self):
        m = parse_module(
            "module m #(parameter W = 8, D = 4)(input [W-1:0] a); endmodule")
        assert [p.name for p in m.parameters] == ["W", "D"]

    def test_empty_port_list(self):
        m = parse_module("module m(); endmodule")
        assert m.ports == []

    def test_no_port_list(self):
        m = parse_module("module m; endmodule")
        assert m.ports == []

    def test_multiple_modules(self):
        src = parse("module a; endmodule module b; endmodule")
        assert src.module_names() == ["a", "b"]

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse("module m(input a) endmodule")

    def test_unclosed_module_raises(self):
        with pytest.raises(ParseError):
            parse("module m(input a);")


class TestDeclarations:
    def test_wire_vector(self):
        m = parse_module("module m; wire [7:0] w; endmodule")
        decl = [i for i in m.items if isinstance(i, ast.Decl)][0]
        assert decl.kind == "wire" and decl.range is not None

    def test_memory(self):
        m = parse_module("module m; reg [7:0] mem [0:15]; endmodule")
        decl = [i for i in m.items if isinstance(i, ast.Decl)][0]
        assert len(decl.array_dims) == 1

    def test_signed_reg(self):
        m = parse_module("module m; reg signed [7:0] s; endmodule")
        decl = [i for i in m.items if isinstance(i, ast.Decl)][0]
        assert decl.signed

    def test_wire_with_init(self):
        m = parse_module("module m; wire w = 1'b1; endmodule")
        decl = [i for i in m.items if isinstance(i, ast.Decl)][0]
        assert decl.init is not None

    def test_localparam(self):
        m = parse_module("module m; localparam N = 4; endmodule")
        assert m.parameters[0].local

    def test_integer(self):
        m = parse_module("module m; integer i; endmodule")
        decl = [i for i in m.items if isinstance(i, ast.Decl)][0]
        assert decl.kind == "integer"


class TestStatements:
    def _body(self, text):
        m = parse_module(f"module m(input clk); {text} endmodule")
        always = [i for i in m.items if isinstance(i, ast.Always)][0]
        return always.body

    def test_nonblocking_assign(self):
        body = self._body("always @(posedge clk) q <= d;")
        assert isinstance(body, ast.Assign) and not body.blocking

    def test_blocking_assign(self):
        body = self._body("always @(*) y = a;")
        assert isinstance(body, ast.Assign) and body.blocking

    def test_if_else_chain(self):
        body = self._body(
            "always @(*) if (a) y = 1; else if (b) y = 2; else y = 3;")
        assert isinstance(body, ast.If)
        assert isinstance(body.else_stmt, ast.If)

    def test_case_with_default(self):
        body = self._body("""
            always @(*) case (sel)
              2'd0: y = a;
              2'd1, 2'd2: y = b;
              default: y = c;
            endcase""")
        assert isinstance(body, ast.Case)
        assert len(body.items) == 3
        assert len(body.items[1].exprs) == 2
        assert body.items[2].exprs == []

    def test_casez(self):
        body = self._body("always @(*) casez (x) 4'b1???: y = 1; endcase")
        assert body.kind == "casez"

    def test_for_loop(self):
        body = self._body(
            "always @(*) for (i = 0; i < 8; i = i + 1) y[i] = a[i];")
        assert isinstance(body, ast.For)

    def test_named_block_with_decls(self):
        body = self._body("""
            always @(posedge clk) begin : blk
              integer k;
              k = 0;
            end""")
        assert isinstance(body, ast.Block)
        assert body.name == "blk"
        assert body.decls[0].kind == "integer"

    def test_nonblocking_less_equal_ambiguity(self):
        # 'a <= b' target must not swallow '<=' as comparison.
        body = self._body("always @(posedge clk) q <= q <= 4;")
        assert isinstance(body, ast.Assign)
        assert isinstance(body.value, ast.Binary)
        assert body.value.op == "<="

    def test_delay_statement(self):
        m = parse_module("module m; initial #10 x = 1; endmodule")
        init = [i for i in m.items if isinstance(i, ast.Initial)][0]
        assert isinstance(init.body, ast.Delay)

    def test_forever_with_delay(self):
        m = parse_module(
            "module m; reg c; initial forever #5 c = ~c; endmodule")
        init = [i for i in m.items if isinstance(i, ast.Initial)][0]
        assert isinstance(init.body, ast.Forever)

    def test_system_task(self):
        m = parse_module(
            'module m; initial $display("hi %d", 3); endmodule')
        init = [i for i in m.items if isinstance(i, ast.Initial)][0]
        assert isinstance(init.body, ast.SystemTaskCall)
        assert init.body.name == "$display"

    def test_concat_lvalue(self):
        m = parse_module(
            "module m(input [3:0] a, b, output [4:0] s);"
            " assign {s[4], s[3:0]} = a + b; endmodule")
        ca = [i for i in m.items if isinstance(i, ast.ContinuousAssign)][0]
        assert isinstance(ca.target, ast.Concat)


class TestExpressions:
    def _expr(self, text):
        m = parse_module(f"module m; assign y = {text}; endmodule")
        return [i for i in m.items
                if isinstance(i, ast.ContinuousAssign)][0].value

    def test_precedence_mul_over_add(self):
        e = self._expr("a + b * c")
        assert e.op == "+" and e.right.op == "*"

    def test_precedence_shift_vs_add(self):
        e = self._expr("a << 1 + 2")
        assert e.op == "<<"
        assert e.right.op == "+"

    def test_ternary(self):
        e = self._expr("sel ? a : b")
        assert isinstance(e, ast.Ternary)

    def test_nested_ternary_right_assoc(self):
        e = self._expr("a ? b : c ? d : e")
        assert isinstance(e.if_false, ast.Ternary)

    def test_reduction_vs_bitwise(self):
        e = self._expr("&a & |b")
        assert e.op == "&"
        assert isinstance(e.left, ast.Unary) and e.left.op == "&"
        assert isinstance(e.right, ast.Unary) and e.right.op == "|"

    def test_concat_and_replicate(self):
        e = self._expr("{a, {4{b}}, c}")
        assert isinstance(e, ast.Concat)
        assert isinstance(e.parts[1], ast.Replicate)

    def test_part_select(self):
        e = self._expr("data[7:4]")
        assert isinstance(e, ast.Select) and e.kind == "part"

    def test_indexed_part_select(self):
        e = self._expr("data[i +: 8]")
        assert e.kind == "plus"

    def test_function_call(self):
        e = self._expr("f(a, b)")
        assert isinstance(e, ast.FunctionCall)
        assert len(e.args) == 2

    def test_system_function(self):
        e = self._expr("$clog2(DEPTH)")
        assert isinstance(e, ast.SystemCall)

    def test_hierarchical_reference(self):
        e = self._expr("u1.u2.sig")
        assert isinstance(e, ast.HierarchicalId)
        assert e.parts == ("u1", "u2", "sig")

    def test_equality_chain(self):
        e = self._expr("a == b")
        assert e.op == "=="

    def test_power(self):
        e = self._expr("2 ** n")
        assert e.op == "**"


class TestInstancesAndGenerate:
    def test_named_instance(self):
        m = parse_module(
            "module m; sub u1(.a(x), .b(y)); endmodule")
        inst = [i for i in m.items if isinstance(i, ast.Instance)][0]
        assert inst.module_name == "sub"
        assert [c.name for c in inst.connections] == ["a", "b"]

    def test_positional_instance(self):
        m = parse_module("module m; sub u1(x, y); endmodule")
        inst = [i for i in m.items if isinstance(i, ast.Instance)][0]
        assert all(c.name is None for c in inst.connections)

    def test_parameterised_instance(self):
        m = parse_module(
            "module m; sub #(.W(8)) u1(.a(x)); endmodule")
        inst = [i for i in m.items if isinstance(i, ast.Instance)][0]
        assert inst.param_overrides[0].name == "W"

    def test_open_connection(self):
        m = parse_module("module m; sub u1(.a(x), .b()); endmodule")
        inst = [i for i in m.items if isinstance(i, ast.Instance)][0]
        assert inst.connections[1].expr is None

    def test_multiple_instances_one_statement(self):
        m = parse_module("module m; sub u1(a), u2(b); endmodule")
        instances = [i for i in m.items if isinstance(i, ast.Instance)]
        assert [i.instance_name for i in instances] == ["u1", "u2"]

    def test_gate_primitives(self):
        m = parse_module("module m; and g1(y, a, b); not (n, a); endmodule")
        gates = [i for i in m.items if isinstance(i, ast.GateInstance)]
        assert [g.gate_kind for g in gates] == ["and", "not"]

    def test_generate_for(self):
        m = parse_module("""
            module m;
              genvar i;
              generate
                for (i = 0; i < 4; i = i + 1) begin : g
                  wire w;
                end
              endgenerate
            endmodule""")
        gen = [i for i in m.items if isinstance(i, ast.GenerateFor)][0]
        assert gen.genvar == "i" and gen.label == "g"

    def test_generate_if_else(self):
        m = parse_module("""
            module m;
              generate
                if (1) begin wire a; end
                else begin wire b; end
              endgenerate
            endmodule""")
        gen = [i for i in m.items if isinstance(i, ast.GenerateIf)][0]
        assert gen.then_items and gen.else_items


class TestFunctionsAndTasks:
    def test_function_non_ansi(self):
        m = parse_module("""
            module m;
              function [7:0] add1;
                input [7:0] x;
                add1 = x + 1;
              endfunction
            endmodule""")
        f = [i for i in m.items if isinstance(i, ast.FunctionDecl)][0]
        assert f.name == "add1"
        assert len(f.inputs) == 1

    def test_function_ansi(self):
        m = parse_module("""
            module m;
              function [7:0] mix(input [7:0] a, input [7:0] b);
                mix = a ^ b;
              endfunction
            endmodule""")
        f = [i for i in m.items if isinstance(i, ast.FunctionDecl)][0]
        assert len(f.inputs) == 2

    def test_task(self):
        m = parse_module("""
            module m;
              task show;
                input [7:0] v;
                $display("%d", v);
              endtask
            endmodule""")
        t = [i for i in m.items if isinstance(i, ast.TaskDecl)][0]
        assert t.name == "show"


class TestErrors:
    @pytest.mark.parametrize("source", [
        "module m(input a); assign = 1; endmodule",
        "module m; always @(posedge) x <= 1; endmodule",
        "module m; case endmodule",
        "module 123m; endmodule",
        "endmodule",
        "module m; assign y 1; endmodule",
        "module m; if; endmodule",
    ])
    def test_invalid_sources_raise(self, source):
        with pytest.raises(ParseError):
            parse(source)

    def test_error_carries_position(self):
        try:
            parse("module m;\n  assign y = ;\nendmodule")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")

    def test_parse_module_rejects_two_modules(self):
        with pytest.raises(ParseError):
            parse_module("module a; endmodule module b; endmodule")
