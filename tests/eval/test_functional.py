"""Tests for the functional test harness."""

import random

import pytest

from repro.corpus import mutate
from repro.corpus.templates import generate_design
from repro.eval.functional import run_functional_test


@pytest.fixture(scope="module")
def adder():
    return generate_design("ripple_carry_adder", random.Random(0),
                           params={"WIDTH": 8})


@pytest.fixture(scope="module")
def counter():
    return generate_design("up_counter", random.Random(0),
                           params={"WIDTH": 4})


class TestOutcomes:
    def test_reference_passes(self, adder):
        outcome = run_functional_test(adder.source, adder.spec,
                                      n_vectors=24)
        assert outcome.passed
        assert outcome.vectors_run == 24

    def test_sequential_reference_passes(self, counter):
        outcome = run_functional_test(counter.source, counter.spec,
                                      n_vectors=24)
        assert outcome.passed

    def test_parse_failure_reported(self, adder):
        outcome = run_functional_test("module broken((", adder.spec)
        assert not outcome.passed
        assert outcome.failure_kind == "parse"

    def test_interface_mismatch_reported(self, adder):
        wrong = ("module top(input x, output z);\n"
                 "  assign z = x;\nendmodule")
        outcome = run_functional_test(wrong, adder.spec)
        assert outcome.failure_kind == "interface"

    def test_width_mismatch_reported(self, adder):
        narrow = ("module top(input [3:0] a, input [3:0] b, input cin,\n"
                  "           output [3:0] sum, output cout);\n"
                  "  assign {cout, sum} = a + b + cin;\nendmodule")
        outcome = run_functional_test(narrow, adder.spec)
        assert outcome.failure_kind == "interface"
        assert "4 bits" in outcome.detail

    def test_functional_bug_caught(self, adder):
        corrupted = mutate.corrupt_function(
            adder.source, random.Random(1)).source
        outcome = run_functional_test(corrupted, adder.spec,
                                      n_vectors=32)
        assert not outcome.passed
        assert outcome.failure_kind == "mismatch"
        assert outcome.mismatches

    def test_dependency_code_fails_elaboration(self, adder):
        broken = mutate.break_dependency(
            adder.source, random.Random(2)).source
        outcome = run_functional_test(broken, adder.spec)
        assert not outcome.passed
        assert outcome.failure_kind in ("elaborate", "runtime",
                                        "interface")

    def test_deterministic(self, adder):
        a = run_functional_test(adder.source, adder.spec, seed=7)
        b = run_functional_test(adder.source, adder.spec, seed=7)
        assert a.passed == b.passed
        assert a.vectors_run == b.vectors_run

    def test_finds_named_module_among_many(self, adder):
        multi = ("module helper(input p, output q);\n"
                 "  assign q = p;\nendmodule\n" + adder.source)
        outcome = run_functional_test(multi, adder.spec, n_vectors=8)
        assert outcome.passed

    def test_mealy_output_checked_with_inputs_held(self):
        design = generate_design("pwm", random.Random(0),
                                 params={"WIDTH": 4})
        outcome = run_functional_test(design.source, design.spec,
                                      n_vectors=24)
        assert outcome.passed


class TestRobustness:
    def test_infinite_loop_candidate_reported(self, adder):
        looping = """
            module top_module(input [7:0] a, input [7:0] b, input cin,
                              output [7:0] sum, output cout);
              reg a_reg;
              wire w;
              assign w = ~a_reg;
              always @(*) a_reg = w;
              initial a_reg = 0;
              assign {cout, sum} = a + b + cin;
            endmodule"""
        outcome = run_functional_test(looping, adder.spec)
        assert not outcome.passed
        assert outcome.failure_kind in ("elaborate", "runtime")

    def test_x_output_is_a_failure(self, adder):
        lazy = ("module top(input [7:0] a, input [7:0] b, input cin,\n"
                "           output [7:0] sum, output cout);\n"
                "  // never drives sum\n"
                "  assign cout = 1'b0;\nendmodule")
        outcome = run_functional_test(lazy, adder.spec, n_vectors=4)
        assert not outcome.passed


#: Adder candidates that never finish: each must fail as ``budget``.
RUNAWAY_ADDERS = {
    "for loop while it is built": """\
  reg [7:0] s;
  integer i;
  initial begin s = 0; for (i = 0; i < 8; i = i - 1) s = s + 1; end
  assign {cout, sum} = a + b + cin + s;""",
    # Known data reaches the loop: the first vector's first poke.
    "data-dependent loop in the first vector": """\
  reg [8:0] s;
  always @* begin s = a + b + cin; if (^a !== 1'bx) forever s = s + 1; end
  assign {cout, sum} = s;""",
    # Verilog leaves c at (2**31 - 1) mod 16 = 15 after the loop.
    "repeat too long to finish": """\
  reg [3:0] c;
  initial begin c = 0; repeat (32'h7fffffff) c = c + 1; end
  assign {cout, sum} = a + b + cin + c;""",
    "constant function folded into a localparam": """\
  function [31:0] spin;
    input [31:0] x;
    begin spin = x; while (spin >= 0) spin = spin + 1; end
  endfunction
  localparam P = spin(0);
  assign {cout, sum} = a + b + cin + P;""",
}


@pytest.mark.parametrize("name", sorted(RUNAWAY_ADDERS))
def test_runaway_fails_as_budget(adder, name):
    source = ("module top_module(input [7:0] a, input [7:0] b, input cin,\n"
              "                  output [7:0] sum, output cout);\n"
              + RUNAWAY_ADDERS[name] + "\nendmodule\n")
    outcome = run_functional_test(source, adder.spec)
    assert outcome.failure_kind == "budget"
    assert "budget exceeded" in outcome.detail
    assert outcome.vectors_run == 0


class TestOutcomeReport:
    """TestOutcome/Mismatch as Reportable documents."""

    def _outcome(self):
        from repro.eval.functional import Mismatch, TestOutcome

        return TestOutcome(
            passed=False, failure_kind="mismatch",
            detail="1/4 vectors wrong", vectors_run=4,
            mismatches=[Mismatch(vector_index=2, output="y",
                                 expected=1, actual=0,
                                 inputs={"a": 1})])

    def test_round_trip(self):
        from repro.eval.functional import TestOutcome

        outcome = self._outcome()
        again = TestOutcome.from_dict(outcome.to_dict())
        assert again.to_json() == outcome.to_json()
        assert again.mismatches[0].vector_index == 2

    def test_golden_bytes(self):
        assert self._outcome().to_json() == (
            '{"detail": "1/4 vectors wrong", '
            '"failure_kind": "mismatch", '
            '"mismatches": [{"actual": 0, "expected": 1, '
            '"inputs": {"a": 1}, "output": "y", "vector_index": 2}], '
            '"passed": false, "vectors_run": 4}')

    def test_schema_identifier(self):
        from repro.eval.functional import TestOutcome

        assert TestOutcome.schema == "pyranet/test-outcome/v1"

    def test_live_outcome_serialises(self, adder):
        from repro.eval.functional import TestOutcome, run_functional_test

        outcome = run_functional_test(
            "not verilog", adder.spec, n_vectors=4)
        again = TestOutcome.from_dict(outcome.to_dict())
        assert again.to_json() == outcome.to_json()
        assert not again.passed
