"""Bounded equivalence / property checking over elaborated netlists."""

import pytest

from repro.verilog import Simulator
from repro.verilog.sim import interp
from repro.verilog.formal import (
    FORMAL_REPORT_SCHEMA,
    FormalReport,
    check_equivalence,
    check_properties,
    verify_code,
    verify_design,
)

ADDER = """
module adder(input [3:0] a, input [3:0] b, output [4:0] y);
  assign y = a + b;
endmodule
"""

# Same function, different structure: an explicit ripple-carry chain.
# (Each carry is its own wire — bit-slicing one carry bus would read
# and write the same signal, which the signal-granular loop check
# conservatively rejects.)
ADDER_ALT = """
module adder(input [3:0] a, input [3:0] b, output [4:0] y);
  wire c1, c2, c3, c4;
  assign c1 = a[0] & b[0];
  assign c2 = (a[1] & b[1]) | ((a[1] ^ b[1]) & c1);
  assign c3 = (a[2] & b[2]) | ((a[2] ^ b[2]) & c2);
  assign c4 = (a[3] & b[3]) | ((a[3] ^ b[3]) & c3);
  assign y = {c4, (a ^ b) ^ {c3, c2, c1, 1'b0}};
endmodule
"""

SUBTRACTOR = """
module adder(input [3:0] a, input [3:0] b, output [4:0] y);
  assign y = a - b;
endmodule
"""

COUNTER = """
module counter(input clk, input rst, output reg [3:0] q);
  initial q = 0;
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule
"""

COUNTER_GATED = """
module counter(input clk, input rst, output reg [3:0] q);
  initial q = 0;
  always @(posedge clk) begin
    q <= rst ? 4'd0 : (q + 4'd1);
  end
endmodule
"""

COUNTER_SKIPS = """
module counter(input clk, input rst, output reg [3:0] q);
  initial q = 0;
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 2;
  end
endmodule
"""


class TestCombinationalEquivalence:
    def test_equivalent_rewrites(self):
        report = check_equivalence(ADDER, ADDER_ALT)
        assert report.status == "equivalent"
        assert report.ok
        assert report.counterexample is None
        assert report.n_inputs == 8 and report.n_outputs == 5

    def test_inequivalent_with_counterexample(self):
        report = check_equivalence(ADDER, SUBTRACTOR)
        assert report.status == "inequivalent"
        assert not report.ok
        cex = report.counterexample
        assert cex is not None and cex["cycle"] == 0
        assert cex["value_a"] != cex["value_b"]

    def test_counterexample_replays_in_simulator(self):
        report = check_equivalence(ADDER, SUBTRACTOR)
        cex = report.counterexample
        for source, expected in ((ADDER, cex["value_a"]),
                                 (SUBTRACTOR, cex["value_b"])):
            sim = Simulator(source)
            for name, value in cex["cycles"][0].items():
                sim.poke(name, value)
            assert sim.peek_int(cex["output"]) == expected

    def test_port_mismatch_is_unsupported(self):
        other = "module m(input [3:0] a, output [4:0] y);\n" \
                "  assign y = a;\nendmodule\n"
        report = check_equivalence(ADDER, other)
        assert report.status == "unsupported"
        assert "port" in report.detail

    def test_parse_error_is_error_status(self):
        report = check_equivalence(ADDER, "module broken(")
        assert report.status == "error"
        assert not report.ok


class TestSequentialEquivalence:
    def test_equivalent_counters(self):
        report = check_equivalence(COUNTER, COUNTER_GATED, bound=4)
        assert report.status == "equivalent"
        assert report.bound == 4
        assert report.n_state_bits == 8  # 4 bits of state in each design

    def test_inequivalent_counters_found_at_right_cycle(self):
        report = check_equivalence(COUNTER, COUNTER_SKIPS, bound=4)
        assert report.status == "inequivalent"
        # Both start at 0; they first differ after one un-reset edge.
        assert report.counterexample["cycle"] == 0
        assert report.counterexample["cycles"][0]["rst"] == 0

    def test_sequential_counterexample_replays(self):
        report = check_equivalence(COUNTER, COUNTER_SKIPS, bound=4)
        cex = report.counterexample
        observed = []
        for source in (COUNTER, COUNTER_SKIPS):
            sim = Simulator(source)
            for row in cex["cycles"]:
                for name, value in row.items():
                    sim.poke(name, value)
                sim.clock("clk")
            observed.append(sim.peek_int(cex["output"]))
        assert observed == [cex["value_a"], cex["value_b"]]

    def test_uninitialized_state_unsupported_for_equivalence(self):
        """Equivalence needs a constant start state; free state would
        make the verdict depend on unknowable power-on contents."""
        no_init = COUNTER.replace("initial q = 0;\n", "")
        report = check_equivalence(no_init, no_init, bound=2)
        assert report.status == "unsupported"


class TestUnsupportedSubset:
    def test_latch_is_unsupported(self):
        latch = """
        module latch(input en, input d, output reg q);
          always @(*) if (en) q = d;
        endmodule
        """
        ok, detail = verify_code(latch)
        assert not ok
        assert "q" in detail

    def test_combinational_loop_is_unsupported(self):
        loop = """
        module loop(input a, output y);
          wire t;
          assign t = y ^ a;
          assign y = t;
        endmodule
        """
        ok, detail = verify_code(loop)
        assert not ok

    def test_two_clocks_unsupported(self):
        two = """
        module two(input c1, input c2, input d, output reg q1, output reg q2);
          always @(posedge c1) q1 <= d;
          always @(posedge c2) q2 <= d;
        endmodule
        """
        ok, detail = verify_code(two)
        assert not ok

    def test_memory_unsupported(self):
        mem = """
        module ram(input clk, input [1:0] addr, input [7:0] din,
                   input we, output [7:0] dout);
          reg [7:0] store [0:3];
          always @(posedge clk) if (we) store[addr] <= din;
          assign dout = store[addr];
        endmodule
        """
        ok, detail = verify_code(mem)
        assert not ok


class TestProperties:
    def test_holds(self):
        report = check_properties(ADDER, ["y == a + b", "y <= 5'd30"])
        assert report.status == "holds"
        assert all(p["status"] == "holds" for p in report.properties)

    def test_fails_with_counterexample(self):
        report = check_properties(ADDER, ["y < 5'd16"])
        assert report.status == "fails"
        entry = report.properties[0]
        assert entry["status"] == "fails"
        cex = entry["counterexample"]
        sim = Simulator(ADDER)
        for name, value in cex["cycles"][0].items():
            sim.poke(name, value)
        assert sim.peek_int("y") >= 16

    def test_sequential_invariant_free_initial_state(self):
        """Without an initial block the checker quantifies over all
        start states — an invariant must hold from any of them."""
        no_init = COUNTER.replace("initial q = 0;\n", "")
        report = check_properties(no_init, ["q <= 4'd15"], bound=3)
        assert report.status == "holds"
        assert report.detail == "free initial state"

    def test_bad_assertion_syntax_is_error(self):
        report = check_properties(ADDER, ["y =="])
        assert report.status == "unsupported"
        assert report.properties[0]["status"] == "error"

    def test_mixed_results_overall_fails(self):
        report = check_properties(ADDER, ["y == a + b", "y == a"])
        assert report.status == "fails"
        statuses = [p["status"] for p in report.properties]
        assert statuses == ["holds", "fails"]


class TestVerify:
    def test_combinational_verified(self):
        report = verify_design(ADDER)
        assert report.status == "verified" and report.ok
        assert "combinational" in report.detail

    def test_sequential_verified(self):
        report = verify_design(COUNTER)
        assert report.status == "verified"
        assert "sequential" in report.detail

    def test_verify_code_never_raises(self):
        assert verify_code("module broken(")[0] is False
        assert verify_code("")[0] is False
        ok, detail = verify_code(ADDER)
        assert ok and detail


#: Two nested constant loops: about ``3 * N * N`` steps of one settle.
NESTED_LOOPS = """
module nest(input [7:0] a, output reg [7:0] y);
  integer i, j, k;
  always @* begin
    k = 0;
    for (i = 0; i < N; i = i + 1)
      for (j = 0; j < N; j = j + 1)
        k = k + 1;
    y = a ^ k[7:0];
  end
endmodule
"""


class TestStepBudget:
    """Formal executes a design's code under the simulator's step
    budget, one per design model for the whole check."""

    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(interp, "STEP_BUDGET", 2_000)
        return f"step budget exceeded ({interp.STEP_BUDGET} steps)"

    def test_nested_loops_over_the_budget_are_unsupported(self,
                                                          small_budget):
        source = NESTED_LOOPS.replace("N", "100")
        assert verify_code(source) == (False, f"unsupported: {small_budget}")
        for report in (verify_design(source),
                       check_equivalence(source, source),
                       check_properties(source, ["1'b1"])):
            assert (report.status, report.detail) == ("unsupported",
                                                      small_budget)
            assert report.n_bdd_nodes == 0

    def test_nested_loops_within_the_budget_verify(self):
        report = verify_design(NESTED_LOOPS.replace("N", "50"))
        assert report.status == "verified", report.detail

    def test_budget_is_shared_by_every_cycle_of_a_check(self,
                                                        small_budget):
        """A clock cycle settles the 10 x 10 nest twice, about 450
        steps: one cycle fits in the budget, ten do not."""
        source = NESTED_LOOPS.replace("N", "10").replace(
            "output reg [7:0] y);",
            "input clk, output reg [7:0] y);\n  reg [7:0] q;\n"
            "  initial q = 0;\n  always @(posedge clk) q <= y;")
        assert check_equivalence(source, source, bound=1).status == (
            "equivalent")
        assert check_equivalence(source, source, bound=10).detail == (
            small_budget)


class TestReportContract:
    def test_schema_and_byte_identity(self):
        one = check_equivalence(ADDER, ADDER_ALT)
        two = check_equivalence(ADDER, ADDER_ALT)
        assert one.schema == FORMAL_REPORT_SCHEMA
        assert one.to_json() == two.to_json()

    def test_round_trip(self):
        report = check_equivalence(ADDER, SUBTRACTOR)
        back = FormalReport.from_dict(report.to_dict())
        assert back.to_json() == report.to_json()

    def test_no_wall_times_in_report(self):
        document = check_equivalence(ADDER, ADDER_ALT).to_dict()
        assert not any("time" in key or "wall" in key for key in document)
