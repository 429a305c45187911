"""Extended simulator tests: less-common language corners."""

import pytest

from repro.verilog import ElaborationError, SimulationError, Simulator


class TestSelects:
    def test_indexed_part_select_read(self):
        sim = Simulator("""
            module m(input [15:0] data, input [1:0] idx,
                     output [3:0] nibble);
              assign nibble = data[idx*4 +: 4];
            endmodule""")
        sim.poke("data", 0xABCD)
        for idx, expected in ((0, 0xD), (1, 0xC), (2, 0xB), (3, 0xA)):
            sim.poke("idx", idx)
            assert sim.peek_int("nibble") == expected

    def test_indexed_part_select_write(self):
        sim = Simulator("""
            module m(input clk, input [1:0] idx, input [3:0] val,
                     output reg [15:0] data);
              always @(posedge clk) data[idx*4 +: 4] <= val;
            endmodule""")
        sim.poke("clk", 0)
        sim.poke("data", 0)
        for idx in range(4):
            sim.poke("idx", idx)
            sim.poke("val", idx + 1)
            sim.clock("clk")
        assert sim.peek_int("data") == 0x4321

    def test_minus_indexed_select(self):
        sim = Simulator("""
            module m(input [7:0] data, output [3:0] hi);
              assign hi = data[7 -: 4];
            endmodule""")
        sim.poke("data", 0xA5)
        assert sim.peek_int("hi") == 0xA

    def test_ascending_bit_range(self):
        sim = Simulator("""
            module m(input [0:7] data, output msb, output [0:3] top);
              assign msb = data[0];
              assign top = data[0:3];
            endmodule""")
        sim.poke("data", 0b10000001)
        assert sim.peek_int("msb") == 1  # data[0] is the MSB
        assert sim.peek_int("top") == 0b1000

    def test_variable_bit_write(self):
        sim = Simulator("""
            module m(input clk, input [2:0] pos, output reg [7:0] mask);
              always @(posedge clk) begin
                mask <= 0;
                mask[pos] <= 1'b1;
              end
            endmodule""")
        sim.poke("clk", 0)
        sim.poke("pos", 5)
        sim.clock("clk")
        assert sim.peek_int("mask") == 1 << 5

    def test_out_of_range_write_ignored(self):
        sim = Simulator("""
            module m(input clk, input [3:0] pos, output reg [7:0] q);
              initial q = 8'hFF;
              always @(posedge clk) q[pos] <= 1'b0;
            endmodule""")
        sim.poke("clk", 0)
        sim.poke("pos", 12)  # beyond [7:0]
        sim.clock("clk")
        assert sim.peek_int("q") == 0xFF


class TestMemoryElementSelects:
    """Selects on ``mem[i]`` map bits through the element's declared
    range, reading and writing alike."""

    @staticmethod
    def _position(rng, index):
        msb, lsb = rng
        return index - lsb if msb >= lsb else lsb - index

    @pytest.mark.parametrize("rng", [(8, 1), (0, 7)])
    @pytest.mark.parametrize("select,width", [
        ("[{b}]", 1), ("[{p}:{q}]", 4), ("[{b} +: 3]", 3), ("[{c} -: 2]", 2),
    ])
    def test_select_reads_back_what_it_wrote(self, rng, select, width):
        msb, lsb = rng
        # Declared indices: b a bit, p:q a nibble, c an indexed start.
        b, c = (3, 6) if msb > lsb else (5, 2)
        p, q = (4, 1) if msb > lsb else (0, 3)
        sel = select.format(b=b, p=p, q=q, c=c)
        sim = Simulator(f"""
            module m(input clk, input [1:0] a, input [{width - 1}:0] d,
                     output [{width - 1}:0] y);
              reg [{msb}:{lsb}] mem [0:3];
              integer k;
              initial for (k = 0; k < 4; k = k + 1) mem[k] = 8'hA5;
              always @(posedge clk) mem[a]{sel} <= d;
              assign y = mem[a]{sel};
            endmodule""")
        sim.poke("clk", 0)
        sim.poke("a", 2)
        # Physical bits of the select, MSB first, in a vector of 8'hA5.
        if select.startswith("[{b}]"):
            declared = [b]
        elif select.startswith("[{p}"):
            step = -1 if p > q else 1
            declared = list(range(p, q + step, step))
        elif "+:" in select:
            declared = ([b + 2, b + 1, b] if msb > lsb else [b, b + 1, b + 2])
        else:
            declared = ([c, c - 1] if msb > lsb else [c - 1, c])
        expected = 0
        for index in declared:
            bit = (0xA5 >> self._position(rng, index)) & 1
            expected = (expected << 1) | bit
        assert sim.peek_int("y") == expected
        for value in range(1 << width):
            sim.poke("d", value)
            sim.clock("clk")
            assert sim.peek_int("y") == value


class TestCaseVariants:
    def test_casez_wildcards(self):
        sim = Simulator("""
            module m(input [3:0] req, output reg [1:0] grant);
              always @(*) casez (req)
                4'b1???: grant = 2'd3;
                4'b01??: grant = 2'd2;
                4'b001?: grant = 2'd1;
                default: grant = 2'd0;
              endcase
            endmodule""")
        sim.poke("req", 0b1010)
        assert sim.peek_int("grant") == 3
        sim.poke("req", 0b0110)
        assert sim.peek_int("grant") == 2
        sim.poke("req", 0b0011)
        assert sim.peek_int("grant") == 1
        sim.poke("req", 0b0001)
        assert sim.peek_int("grant") == 0

    def test_casex_treats_x_as_dont_care(self):
        sim = Simulator("""
            module m(input [1:0] s, output reg y);
              always @(*) casex (s)
                2'b1x: y = 1'b1;
                default: y = 1'b0;
              endcase
            endmodule""")
        sim.poke("s", 0b10)
        assert sim.peek_int("y") == 1
        sim.poke("s", 0b11)
        assert sim.peek_int("y") == 1
        sim.poke("s", 0b01)
        assert sim.peek_int("y") == 0

    def test_case_multiple_labels(self):
        sim = Simulator("""
            module m(input [2:0] v, output reg small);
              always @(*) case (v)
                3'd0, 3'd1, 3'd2: small = 1'b1;
                default: small = 1'b0;
              endcase
            endmodule""")
        sim.poke("v", 1)
        assert sim.peek_int("small") == 1
        sim.poke("v", 5)
        assert sim.peek_int("small") == 0


class TestSignedArithmetic:
    def test_signed_comparison(self):
        sim = Simulator("""
            module m(input signed [3:0] a, b, output lt);
              assign lt = (a < b);
            endmodule""")
        sim.poke("a", 0b1111)  # -1
        sim.poke("b", 0b0001)  # +1
        assert sim.peek_int("lt") == 1

    def test_dollar_signed_cast(self):
        sim = Simulator("""
            module m(input [3:0] a, output signed [7:0] s);
              assign s = $signed(a);
            endmodule""")
        sim.poke("a", 0b1000)
        assert sim.peek_signed("s") == -8

    def test_unsigned_mixing_defeats_sign(self):
        sim = Simulator("""
            module m(input signed [3:0] a, input [3:0] b, output lt);
              assign lt = (a < b);  // unsigned compare (mixed)
            endmodule""")
        sim.poke("a", 0b1111)  # 15 unsigned
        sim.poke("b", 0b0001)
        assert sim.peek_int("lt") == 0

    def test_arithmetic_right_shift_operator(self):
        sim = Simulator("""
            module m(input signed [7:0] x, output signed [7:0] y);
              assign y = x >>> 3;
            endmodule""")
        sim.poke("x", (-64) & 0xFF)
        assert sim.peek_signed("y") == -8


class TestTasksAndFunctions:
    def test_task_with_output(self):
        sim = Simulator("""
            module m;
              reg [7:0] result;
              task sum3;
                input [7:0] a, b, c;
                output [7:0] total;
                total = a + b + c;
              endtask
              initial sum3(8'd1, 8'd2, 8'd3, result);
            endmodule""")
        assert sim.peek_int("result") == 6

    def test_function_with_loop_and_locals(self):
        sim = Simulator("""
            module m(input [7:0] x, output [3:0] ones);
              function [3:0] count_ones;
                input [7:0] v;
                integer i;
                begin
                  count_ones = 0;
                  for (i = 0; i < 8; i = i + 1)
                    count_ones = count_ones + v[i];
                end
              endfunction
              assign ones = count_ones(x);
            endmodule""")
        sim.poke("x", 0b11010110)
        assert sim.peek_int("ones") == 5

    def test_clog2(self):
        sim = Simulator("""
            module m #(parameter DEPTH = 24)
                      (output [7:0] bits);
              assign bits = $clog2(DEPTH);
            endmodule""")
        assert sim.peek_int("bits") == 5


class TestParametersAndGenerate:
    def test_localparam_expression(self):
        sim = Simulator("""
            module m #(parameter W = 6)(output [7:0] v);
              localparam FULL = (1 << W) - 1;
              assign v = FULL;
            endmodule""")
        assert sim.peek_int("v") == 63

    def test_generate_if_selects_implementation(self):
        source = """
            module m #(parameter FAST = %d)(input [3:0] a, b,
                                            output [3:0] y);
              generate
                if (FAST) begin
                  assign y = a + b;
                end else begin
                  assign y = a - b;
                end
              endgenerate
            endmodule"""
        fast = Simulator(source % 1)
        fast.poke("a", 5)
        fast.poke("b", 3)
        assert fast.peek_int("y") == 8
        slow = Simulator(source % 0)
        slow.poke("a", 5)
        slow.poke("b", 3)
        assert slow.peek_int("y") == 2

    def test_parameter_override_rejects_unknown(self):
        with pytest.raises(ElaborationError):
            Simulator("module m #(parameter A = 1)(); endmodule",
                      top="m", params={"NOPE": 3})

    def test_defparam_like_nested_override(self):
        sim = Simulator("""
            module leaf #(parameter V = 1)(output [7:0] o);
              assign o = V;
            endmodule
            module m #(parameter K = 5)(output [7:0] o);
              leaf #(.V(K * 2)) u(.o(o));
            endmodule""", top="m", params={"K": 7})
        assert sim.peek_int("o") == 14


class TestDisplayFormats:
    def _run(self, fmt, value_expr):
        sim = Simulator(f"""
            module tb;
              initial $display("{fmt}", {value_expr});
            endmodule""")
        sim.run()
        return sim.output[0]

    def test_hex(self):
        assert self._run("%h", "16'hBEEF") == "beef"

    def test_octal(self):
        assert self._run("%o", "9'o723") == "723"

    def test_signed_decimal(self):
        assert self._run("%d", "-8'sd5") == "-5"

    def test_binary_with_x(self):
        sim = Simulator("""
            module tb;
              reg [3:0] v;
              initial begin
                v[1] = 1'b1;
                $display("%b", v);
              end
            endmodule""")
        sim.run()
        assert sim.output[0] == "xx1x"

    def test_percent_literal(self):
        assert self._run("100%%", "1'b0").startswith("100%")

    def test_width_padding(self):
        assert self._run("%5d", "8'd42") == "   42"


class TestMultipleEdgeDomains:
    def test_two_clocks(self):
        sim = Simulator("""
            module m(input clk_a, clk_b, output reg [3:0] ca, cb);
              initial begin ca = 0; cb = 0; end
              always @(posedge clk_a) ca <= ca + 1;
              always @(posedge clk_b) cb <= cb + 1;
            endmodule""")
        sim.poke("clk_a", 0)
        sim.poke("clk_b", 0)
        sim.clock("clk_a", 3)
        sim.clock("clk_b", 1)
        assert sim.peek_int("ca") == 3
        assert sim.peek_int("cb") == 1

    def test_negedge_process(self):
        sim = Simulator("""
            module m(input clk, output reg [3:0] n);
              initial n = 0;
              always @(negedge clk) n <= n + 1;
            endmodule""")
        # The first poke moves clk from x to 0 — an LRM negedge.
        sim.poke("clk", 0)
        sim.clock("clk", 2)  # plus two falling edges from full periods
        assert sim.peek_int("n") == 3

    def test_derived_clock(self):
        sim = Simulator("""
            module m(input clk, input rst, output reg [3:0] slow_count);
              reg div;
              always @(posedge clk)
                if (rst) div <= 0;
                else div <= ~div;
              always @(posedge div)
                if (!rst) slow_count <= slow_count + 1;
              initial slow_count = 0;
            endmodule""")
        sim.poke("clk", 0)
        sim.poke("rst", 1)
        sim.clock("clk")
        sim.poke("rst", 0)
        sim.clock("clk", 8)
        assert sim.peek_int("slow_count") == 4
