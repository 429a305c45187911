"""Integration tests for the event-driven simulator."""

import pytest

from repro.verilog import Simulator, SimulationError, ElaborationError
from repro.verilog.sim.interp import StepBudgetExceeded
from repro.verilog.sim.values import Vec4


class TestCombinational:
    def test_adder_with_carry(self):
        sim = Simulator("""
            module adder(input [7:0] a, b, input cin,
                         output [7:0] sum, output cout);
              assign {cout, sum} = a + b + cin;
            endmodule""")
        sim.poke("a", 200)
        sim.poke("b", 100)
        sim.poke("cin", 1)
        assert sim.peek_int("sum") == (200 + 100 + 1) % 256
        assert sim.peek_int("cout") == 1

    def test_mux_case(self):
        sim = Simulator("""
            module mux(input [1:0] sel, input [7:0] a, b, c, d,
                       output reg [7:0] y);
              always @(*) case (sel)
                2'd0: y = a; 2'd1: y = b; 2'd2: y = c; default: y = d;
              endcase
            endmodule""")
        for name, value in (("a", 10), ("b", 20), ("c", 30), ("d", 40)):
            sim.poke(name, value)
        for sel, expected in ((0, 10), (1, 20), (2, 30), (3, 40)):
            sim.poke("sel", sel)
            assert sim.peek_int("y") == expected

    def test_ternary_priority_encoder(self):
        sim = Simulator("""
            module enc(input [3:0] req, output [1:0] grant, output valid);
              assign grant = req[3] ? 2'd3 : req[2] ? 2'd2 :
                             req[1] ? 2'd1 : 2'd0;
              assign valid = |req;
            endmodule""")
        sim.poke("req", 0b0110)
        assert sim.peek_int("grant") == 2
        assert sim.peek_int("valid") == 1
        sim.poke("req", 0)
        assert sim.peek_int("valid") == 0

    def test_comb_always_if_chain(self):
        sim = Simulator("""
            module abs(input signed [7:0] x, output reg [7:0] y);
              always @(*) begin
                if (x < 0) y = -x;
                else y = x;
              end
            endmodule""")
        sim.poke("x", (-5) & 0xFF)
        assert sim.peek_int("y") == 5
        sim.poke("x", 7)
        assert sim.peek_int("y") == 7

    def test_reduction_and_concat(self):
        sim = Simulator("""
            module m(input [3:0] a, output p, output [7:0] d);
              assign p = ^a;
              assign d = {a, ~a};
            endmodule""")
        sim.poke("a", 0b1011)
        assert sim.peek_int("p") == 1
        assert sim.peek_int("d") == (0b1011 << 4) | 0b0100

    def test_shifts_signed_unsigned(self):
        sim = Simulator("""
            module sh(input signed [7:0] s, input [2:0] n,
                      output signed [7:0] ar, output [7:0] lr);
              assign ar = s >>> n;
              assign lr = s >> n;
            endmodule""")
        sim.poke("s", 0b10000000)
        sim.poke("n", 2)
        assert sim.peek_int("ar") == 0b11100000
        assert sim.peek_int("lr") == 0b00100000

    def test_function_evaluation(self):
        sim = Simulator("""
            module m(input [7:0] x, output [7:0] y);
              function [7:0] double;
                input [7:0] v;
                double = v << 1;
              endfunction
              assign y = double(x) + 1;
            endmodule""")
        sim.poke("x", 5)
        assert sim.peek_int("y") == 11

    def test_recursive_function(self):
        sim = Simulator("""
            module m(input [3:0] n, output [15:0] f);
              function [15:0] fact;
                input [3:0] k;
                if (k <= 1) fact = 1;
                else fact = k * fact(k - 1);
              endfunction
              assign f = fact(n);
            endmodule""")
        sim.poke("n", 5)
        assert sim.peek_int("f") == 120

    def test_for_loop_in_comb(self):
        sim = Simulator("""
            module popcount(input [7:0] x, output reg [3:0] n);
              integer i;
              always @(*) begin
                n = 0;
                for (i = 0; i < 8; i = i + 1)
                  n = n + x[i];
              end
            endmodule""")
        sim.poke("x", 0b10110101)
        assert sim.peek_int("n") == 5


class TestSequential:
    def test_counter_with_async_reset(self):
        sim = Simulator("""
            module counter(input clk, rst_n, en, output reg [7:0] q);
              always @(posedge clk or negedge rst_n)
                if (!rst_n) q <= 0;
                else if (en) q <= q + 1;
            endmodule""")
        sim.poke("clk", 0)
        sim.poke("rst_n", 0)
        assert sim.peek_int("q") == 0
        sim.poke("rst_n", 1)
        sim.poke("en", 1)
        sim.clock("clk", 5)
        assert sim.peek_int("q") == 5
        sim.poke("en", 0)
        sim.clock("clk", 3)
        assert sim.peek_int("q") == 5
        sim.poke("rst_n", 0)
        assert sim.peek_int("q") == 0

    def test_nonblocking_swap(self):
        sim = Simulator("""
            module swap(input clk, output reg [3:0] a, b);
              initial begin a = 1; b = 2; end
              always @(posedge clk) begin
                a <= b;
                b <= a;
              end
            endmodule""")
        sim.poke("clk", 0)
        assert (sim.peek_int("a"), sim.peek_int("b")) == (1, 2)
        sim.clock("clk")
        assert (sim.peek_int("a"), sim.peek_int("b")) == (2, 1)
        sim.clock("clk")
        assert (sim.peek_int("a"), sim.peek_int("b")) == (1, 2)

    def test_blocking_order_within_block(self):
        sim = Simulator("""
            module m(input clk, output reg [3:0] y);
              reg [3:0] t;
              always @(posedge clk) begin
                t = 4'd3;
                y = t + 1;
              end
            endmodule""")
        sim.poke("clk", 0)
        sim.clock("clk")
        assert sim.peek_int("y") == 4

    def test_shift_register(self):
        sim = Simulator("""
            module sr(input clk, input d, output reg [3:0] q);
              always @(posedge clk) q <= {q[2:0], d};
            endmodule""")
        sim.poke("clk", 0)
        for bit in (1, 0, 1, 1):
            sim.poke("d", bit)
            sim.clock("clk")
        assert sim.peek_int("q") == 0b1011

    def test_fsm_two_process(self):
        sim = Simulator("""
            module fsm(input clk, rst, input x, output reg z);
              localparam S0 = 2'd0, S1 = 2'd1, S2 = 2'd2;
              reg [1:0] state, next;
              always @(posedge clk or posedge rst)
                if (rst) state <= S0;
                else state <= next;
              always @(*) begin
                next = state;
                z = 1'b0;
                case (state)
                  S0: if (x) next = S1;
                  S1: if (x) next = S2; else next = S0;
                  S2: begin z = x; if (!x) next = S0; end
                  default: next = S0;
                endcase
              end
            endmodule""")
        sim.poke("clk", 0)
        sim.poke("rst", 1)
        sim.clock("clk")
        sim.poke("rst", 0)
        # Detect "11" then output follows x in S2.
        sim.poke("x", 1)
        sim.clock("clk")  # S0 -> S1
        sim.clock("clk")  # S1 -> S2
        assert sim.peek_int("z") == 1

    def test_memory_write_read(self):
        sim = Simulator("""
            module ram(input clk, we, input [3:0] addr,
                       input [7:0] din, output [7:0] dout);
              reg [7:0] mem [0:15];
              always @(posedge clk) if (we) mem[addr] <= din;
              assign dout = mem[addr];
            endmodule""")
        sim.poke("clk", 0)
        sim.poke("we", 1)
        for addr in range(4):
            sim.poke("addr", addr)
            sim.poke("din", addr * 11)
            sim.clock("clk")
        sim.poke("we", 0)
        for addr in range(4):
            sim.poke("addr", addr)
            assert sim.peek_int("dout") == addr * 11

    def test_uninitialised_reg_is_x(self):
        sim = Simulator("""
            module m(input clk, output reg [3:0] q);
              always @(posedge clk) q <= q + 1;
            endmodule""")
        assert sim.peek("q").has_unknown
        sim.poke("clk", 0)
        sim.clock("clk")
        assert sim.peek("q").has_unknown  # x + 1 is still x


class TestHierarchy:
    def test_ripple_carry_generate(self):
        sim = Simulator("""
            module fa(input a, b, cin, output s, cout);
              assign s = a ^ b ^ cin;
              assign cout = (a & b) | (cin & (a ^ b));
            endmodule
            module rca #(parameter N = 8)(
                input [N-1:0] a, b, input cin,
                output [N-1:0] sum, output cout);
              wire [N:0] c;
              assign c[0] = cin;
              genvar i;
              generate for (i = 0; i < N; i = i + 1) begin : g
                fa u(.a(a[i]), .b(b[i]), .cin(c[i]),
                     .s(sum[i]), .cout(c[i+1]));
              end endgenerate
              assign cout = c[N];
            endmodule""", top="rca", params={"N": 4})
        sim.poke("a", 9)
        sim.poke("b", 8)
        sim.poke("cin", 0)
        assert sim.peek_int("sum") == 1  # 17 mod 16
        assert sim.peek_int("cout") == 1

    def test_parameter_override_through_hierarchy(self):
        sim = Simulator("""
            module reg_n #(parameter W = 1)(input clk, input [W-1:0] d,
                                            output reg [W-1:0] q);
              always @(posedge clk) q <= d;
            endmodule
            module top(input clk, input [15:0] d, output [15:0] q);
              reg_n #(.W(16)) u(.clk(clk), .d(d), .q(q));
            endmodule""", top="top")
        sim.poke("clk", 0)
        sim.poke("d", 0xBEEF)
        sim.clock("clk")
        assert sim.peek_int("q") == 0xBEEF

    def test_peek_into_hierarchy(self):
        sim = Simulator("""
            module inner(input [3:0] x, output [3:0] y);
              wire [3:0] mid = x + 1;
              assign y = mid + 1;
            endmodule
            module outer(input [3:0] x, output [3:0] y);
              inner u(.x(x), .y(y));
            endmodule""", top="outer")
        sim.poke("x", 3)
        assert sim.peek_int("u.mid") == 4
        assert sim.peek_int("y") == 5

    def test_unknown_module_raises(self):
        with pytest.raises(ElaborationError):
            Simulator("module m; ghost u(); endmodule")

    def test_recursive_instantiation_rejected(self):
        with pytest.raises(ElaborationError):
            Simulator("module m; m u(); endmodule")


class TestTristateAndNets:
    def test_single_driver_z_release(self):
        sim = Simulator("""
            module t(input en, input [3:0] d, output [3:0] y);
              assign y = en ? d : 4'bz;
            endmodule""")
        sim.poke("en", 1)
        sim.poke("d", 5)
        assert sim.peek_int("y") == 5
        sim.poke("en", 0)
        assert sim.peek("y").to_bit_string() == "zzzz"

    def test_two_driver_conflict_is_x(self):
        sim = Simulator("""
            module t(input a, b, output y);
              assign y = a;
              assign y = b;
            endmodule""")
        sim.poke("a", 1)
        sim.poke("b", 0)
        assert sim.peek("y").has_unknown

    def test_two_driver_agreement(self):
        sim = Simulator("""
            module t(input a, output y);
              assign y = a;
              assign y = a;
            endmodule""")
        sim.poke("a", 1)
        assert sim.peek_int("y") == 1

    def test_partial_bit_drivers(self):
        sim = Simulator("""
            module t(input [1:0] a, b, output [3:0] y);
              assign y[1:0] = a;
              assign y[3:2] = b;
            endmodule""")
        sim.poke("a", 0b01)
        sim.poke("b", 0b10)
        assert sim.peek_int("y") == 0b1001

    def test_gate_primitives(self):
        sim = Simulator("""
            module g(input a, b, output o_and, o_nor, o_not);
              and g1(o_and, a, b);
              nor g2(o_nor, a, b);
              not g3(o_not, a);
            endmodule""")
        sim.poke("a", 1)
        sim.poke("b", 0)
        assert sim.peek_int("o_and") == 0
        assert sim.peek_int("o_nor") == 0
        assert sim.peek_int("o_not") == 0

    def test_procedural_assign_to_net_rejected(self):
        sim_src = """
            module bad(input a, output wire y);
              always @(*) y = a;
            endmodule"""
        with pytest.raises(SimulationError):
            sim = Simulator(sim_src)
            sim.poke("a", 1)


class TestThreads:
    def test_initial_delays_and_finish(self):
        sim = Simulator("""
            module tb;
              reg [3:0] x;
              initial begin
                x = 1;
                #5 x = 2;
                #5 x = 3;
                $finish;
              end
            endmodule""")
        sim.run()
        assert sim.finished
        assert sim.time == 10
        assert sim.peek_int("x") == 3

    def test_always_clock_generator(self):
        sim = Simulator("""
            module tb;
              reg clk;
              reg [7:0] n;
              initial begin clk = 0; n = 0; #20 $finish; end
              always #5 clk = ~clk;
              always @(posedge clk) n <= n + 1;
            endmodule""")
        sim.run()
        assert sim.peek_int("n") == 2  # edges at t=5, 15

    def test_display_output(self):
        sim = Simulator("""
            module tb;
              initial begin
                $display("value=%d", 8'd42);
                $display("hex=%h bin=%b", 8'hA5, 4'b1010);
              end
            endmodule""")
        sim.run()
        assert sim.output[0] == "value=42"
        assert sim.output[1] == "hex=a5 bin=1010"

    def test_event_control_in_initial(self):
        sim = Simulator("""
            module tb;
              reg clk;
              reg done;
              initial begin
                done = 0;
                @(posedge clk) done = 1;
              end
              initial begin
                clk = 0;
                #5 clk = 1;
              end
            endmodule""")
        sim.run()
        assert sim.peek_int("done") == 1

    def test_combinational_loop_detected(self):
        # A feedback loop through definite values oscillates forever.
        # (Loops through x, like `assign y = ~y`, settle at x instead.)
        sim_src = """
            module osc;
              reg a;
              wire b;
              assign b = ~a;
              always @(*) a = b;
              initial a = 1'b0;
            endmodule"""
        with pytest.raises(SimulationError):
            Simulator(sim_src)

    def test_x_feedback_settles_at_x(self):
        sim = Simulator("""
            module fb(input en, output y);
              assign y = en ^ y;
            endmodule""")
        sim.poke("en", 1)
        assert sim.peek("y").has_unknown


class TestXPropagation:
    def test_x_select_index_reads_x(self):
        sim = Simulator("""
            module m(input [1:0] sel, input [3:0] d, output y);
              assign y = d[sel];
            endmodule""")
        sim.poke("d", 0b1010)
        assert sim.peek("y").has_unknown  # sel is x
        sim.poke("sel", 1)
        assert sim.peek_int("y") == 1

    def test_if_with_x_condition_takes_else(self):
        sim = Simulator("""
            module m(input c, output reg [1:0] y);
              always @(*) if (c) y = 1; else y = 2;
            endmodule""")
        # c unknown -> else branch (strict truth).
        assert sim.peek_int("y") == 2


class TestStepBudget:
    """One ``STEP_BUDGET`` per entry: construction, settle, run."""

    def test_each_poke_gets_a_fresh_budget(self):
        # Each settle spends 40,003 steps: three add up to more than one
        # budget, but none runs out of its own.
        sim = Simulator("""
            module busy(input [7:0] d, output reg [15:0] y);
              integer i;
              always @* begin
                y = 0;
                for (i = 0; i < 20000; i = i + 1) y = y + d[0];
              end
            endmodule""")
        for value in (1, 0, 1):
            sim.poke("d", value)
        assert sim.peek_int("y") == 20000

    def test_runaway_thread_under_run_stops(self):
        sim = Simulator("""
            module ticker(output reg [3:0] c);
              initial begin c = 0; forever #1 c = c + 1; end
            endmodule""")
        with pytest.raises(StepBudgetExceeded, match="budget exceeded"):
            sim.run()


@pytest.mark.parametrize("process", [
    "assign y = {};",
    "always @* y_r = {};\n  assign y = y_r;",
])
def test_read_deep_in_an_expression_is_in_the_sensitivity(process):
    # ``b`` sits 70 operator levels down the left-leaning chain.
    chain = " ^ ".join(["b"] + [f"a[{i}]" for i in range(70)])
    sim = Simulator(
        "module deep(input [69:0] a, input b, output y);\n  reg y_r;\n  "
        + process.format(chain) + "\nendmodule\n")
    sim.poke("a", 0)
    sim.poke("b", 0)
    assert sim.peek("y").to_bit_string() == "0"
    sim.poke("b", 1)
    assert sim.peek("y").to_bit_string() == "1"
