"""Every tree walk's answers, pinned over the corpus they read.

Curation's labels (``lint``, ``measure``, ``check``), the sensitivity
of every elaborated process and ``verify_design``'s reports all come
from walks over the syntax tree.  Every design family at two draws,
each draw's operator mutants and its ``break_syntax`` and
``degrade_style`` variants, a seeded GitHub scrape and a batch of
simulated LLM samples go through them; the digest covers each
source's lint violations and penalty, its ``StructuralMetrics`` (or
parse error), its compile-check diagnostics, and, for every module
taken as the top, each elaborated process's kind, line, sensitivity
and edge triggers (or the elaboration error).  A change to how the
tree is walked must leave both digests unchanged; never update a
digest to make a change pass.
"""

import hashlib
import random

from repro.corpus import (GitHubScrapeSimulator, SimulatedCommercialLLM,
                          build_keyword_database, family_names,
                          generate_design)
from repro.corpus.mutate import break_syntax, degrade_style
from repro.dataset.corrupt import operator_mutants
from repro.verilog.formal import verify_design
from repro.verilog.lexer import LexError
from repro.verilog.metrics import measure
from repro.verilog.parser import ParseError
from repro.verilog.sim.elaborate import elaborate
from repro.verilog.sim.runtime import build_library
from repro.verilog.style import lint
from repro.verilog.syntax_checker import check

DRAWS = 2
MUTANTS = 8
SCRAPE_FILES = 400
LLM_PROMPTS = 10

#: Shapes the corpus rarely holds: timing controls with and without a
#: statement, intra-assignment delays, undefined names in several slots
#: of one statement, implicit nets through selects and concatenations,
#: explicit sensitivity lists, deep nesting and long if chains.
EDGE_CASES = [
    """
module edges(input clk, input [7:0] a, b, input [1:0] sel,
             output reg [7:0] y, output reg [7:0] z);
  reg [7:0] mem [0:3];
  integer i;
  always @(a) begin
    y = a + b + 100 + 200 + 300;
    case (sel) 2'd0: z = a; 2'd1: z = b; endcase
    if (a[0]) z = 1;
    if (sel == 0) y = 1; else if (sel == 1) y = 2; else if (sel == 2) y = 3;
    else if (a == 3) y = 4; else if (b == 4) y = 5; else y = 6;
  end
  always @(posedge clk) begin
    #1;
    @(posedge clk);
    y = #2 b;
    z <= #(a) mem[sel];
    for (i = 0; i < 4; i = i + 1) mem[i] <= a + 65;
    wait (a == b) z <= 0;
    begin begin begin begin begin begin #3; end end end end end end
    begin begin begin begin begin @(b); end end end end end
  end
endmodule
""",
    """
module names(input [3:0] a, output [3:0] y, output reg q);
  sub u0(.p({w1, w2[0]}), .r(w3[w4]), .s(a[w5 +: 2]));
  and g0(n1, a[0], a[1]);
  assign y = {gone[1], a[2:0]} + $mystery(a) + top.inner.sig;
  always @* begin : blk
    reg t;
    t = a[0];
    q = t ^ missing_fn(a);
    q <= #dly_name undefined_value;
    no_such_task(a, other_missing);
    $display("%d", yet_another);
  end
endmodule
""",
    """
module tb;
  reg clk, q;
  reg [7:0] n, m;
  function [7:0] twice(input [7:0] v);
    reg [7:0] r;
    begin r = v + v; twice = r; end
  endfunction
  task tick;
    begin #5 q = ~q; end
  endtask
  task bump;
    input [7:0] k;
    begin if (k > 0) begin n = n + 1; bump(k - 1); end end
  endtask
  initial begin clk = 0; q = 0; n = 0; bump(3); #40 $finish; end
  always tick;
  always #5 clk = ~clk;
  always @* m = twice(n);
  always @(posedge clk or negedge q) if (!q) n <= 0; else n <= n + 1;
  initial begin forever begin repeat (2) @(posedge clk); end end
  initial while (n < 3) #1 n = n;
endmodule
""",
]


def _sources():
    yield from EDGE_CASES
    for family in family_names():
        for draw in range(DRAWS):
            source = generate_design(
                family, random.Random(f"{family}/{draw}")).source
            yield source
            yield from operator_mutants(source, max_mutants=MUTANTS)
            yield break_syntax(
                source, random.Random(f"{family}/{draw}/break")).source
            yield degrade_style(
                source, random.Random(f"{family}/{draw}/style"),
                strength=1.0).source
    for raw in GitHubScrapeSimulator(seed=11).scrape(SCRAPE_FILES):
        yield raw.content
    llm = SimulatedCommercialLLM(seed=12)
    database = build_keyword_database()
    rng = random.Random(13)
    for _ in range(LLM_PROMPTS):
        for sample in llm.generate_batch(database.sample(rng)):
            yield sample.design.source


def _processes(source):
    try:
        library = build_library(source)
    except Exception as exc:  # the failure itself is pinned
        return type(exc).__name__, str(exc)
    tops = []
    for name in library:
        try:
            design = elaborate(library, name)
        except Exception as exc:  # the failure itself is pinned
            tops.append((name, type(exc).__name__, str(exc)))
            continue
        tops.append((name, [
            (type(proc).__name__, proc.line,
             getattr(proc, "sensitivity", ()), getattr(proc, "triggers", ()))
            for proc in design.processes]))
    return tops


def _labels(source):
    report = lint(source)
    style = ([(v.code, v.message, v.penalty, v.line)
              for v in report.violations], report.penalty)
    try:
        metrics = repr(measure(source))
    except (ParseError, LexError) as exc:
        metrics = repr((type(exc).__name__, str(exc)))
    diagnostics = [(d.severity.value, d.category.value, d.message, d.line,
                    d.column) for d in check(source).diagnostics]
    return repr((style, metrics, diagnostics, _processes(source)))


def test_front_end_and_sensitivity_answers_are_pinned():
    digest = hashlib.sha256()
    n_sources = 0
    for source in _sources():
        n_sources += 1
        digest.update(f"{_labels(source)}\0".encode())
    assert n_sources == PINNED_SOURCES
    assert digest.hexdigest() == PINNED_LABELS


def test_formal_reports_are_pinned():
    digest = hashlib.sha256()
    for family in family_names():
        source = generate_design(family, random.Random(f"{family}/0")).source
        digest.update(f"{verify_design(source).to_json()}\0".encode())
    assert digest.hexdigest() == PINNED_FORMAL


PINNED_SOURCES = 1007
PINNED_LABELS = (
    "94c52938033649c44d1465dc2cd3071875887c83cd4f09a1f11a1c811e6a60ec")
PINNED_FORMAL = (
    "0a111f4645a78132634d01be9a585d9e46d946020a9deb0fd9be6da8b71ab242")
