"""The verified tier: formal gating above layer 1."""

import pytest

from repro.corpus.github_sim import RawFile
from repro.dataset.layering import LayerReport
from repro.dataset.pipeline import CurationPipeline
from repro.dataset.records import DatasetEntry

# A clean, well-documented design inside the formal subset: it should
# rank 20/20, compile clean, and verify.
VERIFIABLE = """\
// 4-bit synchronous counter with synchronous reset.
// Counts up by one each clock; reset returns it to zero.
module counter4 (
    input clk,
    input rst,
    output reg [3:0] count
);

  initial count = 4'd0;

  // Synchronous state update: reset dominates the increment.
  always @(posedge clk) begin
    if (rst)
      count <= 4'd0;
    else
      count <= count + 4'd1;
  end

endmodule
"""

# Equally clean style-wise (rank 20), but two clock domains — outside
# the single-clock synchronous subset formal verification models.
UNVERIFIABLE = """\
// Dual-clock toggle pair: each output toggles on its own clock.
// The two clock domains are fully independent.
module toggle2 (
    input clk_a,
    input clk_b,
    output reg t_a,
    output reg t_b
);

  initial begin
    t_a = 1'b0;
    t_b = 1'b0;
  end

  // Domain A: toggle every rising edge of clk_a.
  always @(posedge clk_a) begin
    t_a <= ~t_a;
  end

  // Domain B: toggle every rising edge of clk_b.
  always @(posedge clk_b) begin
    t_b <= ~t_b;
  end

endmodule
"""


def raw(path, content):
    return RawFile(path=path, content=content)


@pytest.fixture(scope="module")
def corpus():
    return [raw("verifiable.v", VERIFIABLE), raw("toggle2.v", UNVERIFIABLE)]


@pytest.fixture(scope="module")
def curated(corpus):
    return CurationPipeline(seed=5).run(corpus)


class TestVerifiedGating:
    def test_verifiable_design_gets_the_tier(self, curated):
        by_name = {e.module_names[0]: e for e in curated.dataset}
        entry = by_name["counter4"]
        assert entry.ranking == 20 and entry.layer == 1
        assert entry.verified is True
        assert "sequential" in entry.verified_detail

    def test_unsupported_design_stays_unverified(self, curated):
        by_name = {e.module_names[0]: e for e in curated.dataset}
        entry = by_name["toggle2"]
        assert entry.verified is False
        assert entry.verified_detail  # carries the reason
        assert "unsupported" in entry.verified_detail

    def test_only_layer1_candidates_are_checked(self):
        """A formally perfect design that ranks below 20 must not be
        verified: the tier refines layer 1, it does not replace it."""
        # Strip the comments: same logic, lower documentation score.
        bare = "\n".join(line for line in VERIFIABLE.splitlines()
                         if not line.strip().startswith("//"))
        result = CurationPipeline(seed=5).run([raw("bare.v", bare)])
        (entry,) = result.dataset
        assert entry.ranking < 20
        assert entry.verified is False
        assert entry.verified_detail == ""

    def test_layer_report_counts_verified(self, curated):
        assert curated.report.layers.n_verified == 1

    def test_layer_report_round_trips_n_verified(self):
        report = LayerReport(n_verified=3)
        assert LayerReport.from_dict(report.to_dict()).n_verified == 3

    def test_entry_round_trips_verified_fields(self, curated):
        for entry in curated.dataset:
            back = DatasetEntry.from_dict(entry.to_dict())
            assert back.verified == entry.verified
            assert back.verified_detail == entry.verified_detail

