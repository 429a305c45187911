"""Formally check Verilog designs — equivalence, properties, the tier.

Shows the BDD-based checker behind the verified tier, solver-free and
importable on its own:

* prove a rewritten adder equivalent to its reference;
* catch an operator-swap mutant, replay its counterexample in the
  event-driven simulator, and watch the two designs disagree;
* check boolean properties (including from all initial states);
* run the curation verdict (``verify_design``) over a small corpus
  and print the verified-tier yield, memoised so repeated
  elaborations are free.

    python examples/formal_check.py
    python examples/formal_check.py --report-json formal.json

Exits non-zero when the rewrite is not proved equivalent, the invariant
does not hold, or a counterexample does not replay to different outputs
in the simulator.

Shared flags (see ``_cli.py``): ``--report-json`` writes the verdicts
document; ``--trace-json`` the merged run report; ``--seed`` varies
the mutant pick.  ``--cache-dir`` persists the elaboration memo, so a
re-run re-elaborates nothing.
"""

import random
import sys

import _cli
from repro.dataset.corrupt import operator_mutants
from repro.pipeline.diskcache import DiskCache
from repro.verilog import FrontEndMemo, Simulator
from repro.verilog.formal import (
    check_equivalence,
    check_properties,
    verify_design,
)

REFERENCE = """
module addsat(input [3:0] a, input [3:0] b, output [3:0] y);
  wire [4:0] wide;
  assign wide = a + b;
  assign y = wide[4] ? 4'hF : wide[3:0];
endmodule
"""

# The same saturating adder, restructured around a compare.
REWRITE = """
module addsat(input [3:0] a, input [3:0] b, output [3:0] y);
  wire [4:0] sum;
  assign sum = {1'b0, a} + {1'b0, b};
  assign y = (sum > 5'd15) ? 4'd15 : sum[3:0];
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


def main() -> None:
    args = _cli.build_parser(
        "Formally check Verilog designs (equivalence, properties, "
        "the verified tier)", default_seed=0).parse_args()
    obs = _cli.observability_from(args)
    _cli.note_unused_store(args)
    _cli.note_unused_families(args)
    report = {}
    failures = []

    # 1. Equivalence of a rewrite ----------------------------------------
    with obs.span("example.equivalence"):
        verdict = check_equivalence(REFERENCE, REWRITE)
    print(f"rewrite vs reference : {verdict.status} "
          f"({verdict.n_bdd_nodes} BDD nodes)")
    report["rewrite"] = verdict.to_dict()
    if verdict.status != "equivalent":
        failures.append(f"rewrite is {verdict.status}, not equivalent")

    # 2. A mutant, caught and replayed -----------------------------------
    rng = random.Random(args.seed)
    mutants = operator_mutants(REFERENCE)
    mutant = mutants[rng.randrange(len(mutants))]
    with obs.span("example.mutant"):
        caught = check_equivalence(REFERENCE, mutant)
    print(f"operator mutant      : {caught.status} — {caught.detail}")
    if caught.counterexample:
        cex = caught.counterexample
        values = []
        for source in (REFERENCE, mutant):
            sim = Simulator(source)
            for name, value in cex["cycles"][0].items():
                sim.poke(name, value)
            values.append(sim.peek_int(cex["output"]))
        print(f"  replayed inputs {cex['cycles'][0]} -> "
              f"reference y={values[0]}, mutant y={values[1]}")
        if values[0] == values[1]:
            failures.append("the counterexample replays to equal outputs")
    report["mutant"] = caught.to_dict()

    # 3. Properties, including from all initial states -------------------
    props = check_properties(COUNTER, ["q <= 4'd15"], bound=3)
    print(f"counter invariant    : {props.status} "
          f"({props.properties[0]['assertion']!r})")
    report["properties"] = props.to_dict()
    if props.status != "holds":
        failures.append(f"counter invariant {props.status}, expected holds")

    # 4. The curation verdict over a tiny corpus, memoised ---------------
    disk = None
    if args.cache_dir:
        disk = DiskCache(f"{args.cache_dir}/formal-elab", obs=obs)
    memo = FrontEndMemo(disk=disk)
    corpus = {
        "saturating adder": REFERENCE,
        "counter": COUNTER,
        "mutant": mutant,
        "latch (outside the subset)": (
            "module latch1(input en, input d, output reg q);\n"
            "  always @(*) if (en) q = d;\nendmodule\n"),
    }
    print("\nverified-tier verdicts (two passes, memoised):")
    verdicts = {}
    with memo.scope(obs):
        for _ in range(2):  # the second pass re-elaborates nothing
            for name, source in corpus.items():
                verdict = verify_design(memo.elaborate(source))
                ok = verdict.status == "verified"
                detail = (verdict.detail if ok
                          else f"{verdict.status}: {verdict.detail}")
                verdicts[name] = {"verified": ok, "detail": detail}
    for name, entry in verdicts.items():
        flag = "PASS" if entry["verified"] else "fail"
        print(f"  {flag}  {name:28s} {entry['detail']}")
    hits, misses = memo.stats()["design"]
    print(f"\nelaboration memo: {hits} hits / {misses} misses"
          + (" (misses persist under --cache-dir)" if disk else ""))
    report["verdicts"] = verdicts
    report["memo"] = {"hits": hits, "misses": misses}

    _cli.write_report(args, report)
    _cli.write_trace(args, obs, example="formal_check")
    if failures:
        sys.exit("error: " + "; ".join(failures))


if __name__ == "__main__":
    main()
