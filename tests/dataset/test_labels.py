"""Tests for ranking, complexity, and description labelling."""

import random

import pytest

from repro.corpus import mutate
from repro.corpus.templates import generate_design
from repro.dataset.complexity import (
    classify_code,
    classify_metrics,
    complexity_score,
)
from repro.dataset.describe import describe_source
from repro.dataset.ranking import (
    rank_code,
    round_half_up,
    score_code,
    score_from_penalty,
)
from repro.dataset.records import Complexity
from repro.verilog import measure


CLEAN = """\
// Clean parameterised register.
module regbank #(
  parameter WIDTH = 8
) (
  input clk,
  input rst,
  input [WIDTH-1:0] d,
  output reg [WIDTH-1:0] q
);

  always @(posedge clk) begin
    if (rst)
      q <= {WIDTH{1'b0}};
    else
      q <= d;
  end

endmodule
"""


class TestRanking:
    def test_clean_code_scores_top(self):
        assert score_code(CLEAN) == 20

    def test_broken_code_scores_zero(self):
        assert score_code("module nope(input a endmodule") == 0

    def test_score_bounds(self):
        rng = random.Random(0)
        for seed in range(12):
            design = generate_design("alu", random.Random(seed))
            damaged = mutate.degrade_style(design.source, rng, 1.0)
            assert 0 <= score_code(damaged.source) <= 20

    def test_monotone_under_damage(self):
        rng = random.Random(1)
        base = score_code(CLEAN)
        light = mutate.degrade_style(CLEAN, rng, 0.3).source
        heavy = mutate.degrade_style(light, random.Random(2), 1.0).source
        assert score_code(heavy) <= score_code(light) <= base

    def test_rank_code_includes_evidence(self):
        rng = random.Random(3)
        damaged = mutate.degrade_style(CLEAN, rng, 1.0).source
        result = rank_code(damaged)
        assert result.score < 20
        assert result.notes

    def test_blocking_in_clocked_penalised(self):
        bad = CLEAN.replace("q <= d", "q = d").replace(
            "q <= {WIDTH{1'b0}}", "q = {WIDTH{1'b0}}")
        assert score_code(bad) < score_code(CLEAN)


class TestRounding:
    """The penalty→score mapping rounds half UP, not half-to-even.

    ``points_per_penalty=2.0`` makes the raw score land exactly on a
    ``.5`` (floats represent these exactly); the default 2.1 never
    does, so the boundary is only reachable through the explicit
    parameter."""

    def test_half_up_at_16_5(self):
        # raw = 20 - 2.0 * 1.75 = 16.5: banker's rounding would give
        # 16 (nearest even); the documented rule gives 17.
        assert score_from_penalty(1.75, 2.0) == 17

    def test_half_up_at_17_5(self):
        # raw = 17.5: both rules give 18 here — pinning it proves the
        # fix didn't overshoot into always-up-by-one.
        assert score_from_penalty(1.25, 2.0) == 18

    def test_round_half_up_primitive(self):
        assert round_half_up(16.5) == 17
        assert round_half_up(17.5) == 18
        assert round_half_up(16.49) == 16
        assert round_half_up(-0.5) == 0

    def test_clamped_to_1_for_parseable_code(self):
        assert score_from_penalty(1000.0) == 1
        assert score_from_penalty(0.0) == 20


class TestComplexity:
    def test_half_adder_is_basic(self):
        design = generate_design("half_adder", random.Random(0))
        assert classify_code(design.source) is Complexity.BASIC

    def test_fifo_is_advanced_or_expert(self):
        design = generate_design("sync_fifo", random.Random(0))
        tier = classify_code(design.source)
        assert tier in (Complexity.ADVANCED, Complexity.EXPERT)

    def test_generate_loop_scores_above_flat_logic(self):
        design = generate_design(
            "ripple_carry_adder", random.Random(0), params={"WIDTH": 16})
        flat = measure("module m(input a, output y); assign y = a; "
                       "endmodule")
        assert complexity_score(measure(design.source)) > (
            complexity_score(flat) + 2)

    def test_score_monotone_in_features(self):
        simple = measure("module m(input a, output y); assign y = a; "
                         "endmodule")
        rich = measure(generate_design("traffic_light",
                                       random.Random(0)).source)
        assert complexity_score(rich) > complexity_score(simple)

    def test_unparsable_defaults_basic(self):
        assert classify_code("module broken(((") is Complexity.BASIC

    def test_all_tiers_reachable(self):
        seen = set()
        for family in ("half_adder", "mod_n_counter", "sync_fifo",
                       "ripple_carry_adder", "alu", "traffic_light"):
            design = generate_design(family, random.Random(4))
            seen.add(classify_code(design.source))
        assert len(seen) >= 3


class TestDescribe:
    def test_mentions_module_name_and_ports(self):
        description = describe_source(CLEAN)
        assert "regbank" in description
        assert "input 'd'" in description or "'d'" in description

    def test_detects_sequential(self):
        assert "sequential" in describe_source(CLEAN)

    def test_detects_combinational(self):
        text = describe_source(
            "module m(input a, b, output y); assign y = a & b; endmodule")
        assert "combinational" in text

    def test_mentions_fsm(self):
        design = generate_design("traffic_light", random.Random(0))
        assert "finite-state machine" in describe_source(design.source)

    def test_mentions_memory(self):
        design = generate_design("sync_fifo", random.Random(0))
        assert "memory" in describe_source(design.source)

    def test_unparsable_fallback(self):
        text = describe_source("@@@ not verilog @@@")
        assert "could not be parsed" in text

    def test_parameterised_noted(self):
        assert "parameterised by WIDTH" in describe_source(CLEAN)
