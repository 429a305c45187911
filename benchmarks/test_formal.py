"""Formal-tier hot paths: memoized elaboration and checking.

Two numbers this PR is accountable for, emitted to
``BENCH_formal.json`` (uploaded as a CI artifact):

* **Memoized elaboration** — the design tier of the content-keyed
  :class:`~repro.verilog.frontend.FrontEndMemo` against re-parsing and
  re-elaborating every source, asserted at **>= 5x** warm-over-cold.
  The *zero re-elaboration* guarantee itself is asserted exactly via
  the memo's hit/miss counters (one miss per distinct source, ever).
* **Formal check throughput** — ``verify_design`` over elaborated
  designs (designs per second) plus a combinational equivalence-check
  rate; recorded for trajectory, no floor (BDD costs are by nature
  design-dependent).

Deliberately free of ``pytest-benchmark``: the CI smoke job runs this
file both as a test and as a plain script (``python
benchmarks/test_formal.py --quick``).
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.corpus.templates import generate_design
from repro.verilog.formal import check_equivalence, verify_design
from repro.verilog.frontend import FrontEndMemo
from repro.verilog.sim.elaborate import elaborate
from repro.verilog.sim.runtime import build_library

#: Hard floor for the memoized parse/elaborate path (acceptance
#: criterion): a warm pass must beat re-elaboration by at least this.
MEMO_SPEEDUP_FLOOR = 5.0

REPORT_PATH = "BENCH_formal.json"

#: Template families whose generated designs elaborate cleanly.
_FAMILIES = ("half_adder", "mod_n_counter", "ripple_carry_adder", "alu")


def _corpus(n_designs: int) -> List[str]:
    sources = []
    for i in range(n_designs):
        family = _FAMILIES[i % len(_FAMILIES)]
        sources.append(generate_design(family, random.Random(i)).source)
    return sources


def _elaborate_uncached(source: str):
    """Parse and elaborate the last module, outside any memo scope."""
    library = build_library(source)
    return elaborate(library, list(library)[-1])


def run_formal_benchmark(n_designs: int, n_passes: int = 3) -> Dict[str, Any]:
    """Measure the three numbers at ``n_designs`` corpus scale."""
    sources = _corpus(n_designs)
    n_distinct = len(set(sources))  # template seeds can collide

    # -- memoized elaboration ------------------------------------------
    started = time.perf_counter()
    for source in sources:
        _elaborate_uncached(source)
    unmemoized_s = time.perf_counter() - started

    memo = FrontEndMemo()
    started = time.perf_counter()
    for source in sources:
        memo.elaborate(source)
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(n_passes):
        for source in sources:
            memo.elaborate(source)
    warm_s = (time.perf_counter() - started) / n_passes

    hits, misses = memo.stats()["design"]
    # Counter-exact: one miss per distinct source, everything else hits.
    assert misses == n_distinct, (hits, misses, n_distinct)
    assert hits == n_designs * (n_passes + 1) - n_distinct, (hits, misses)

    # -- formal check throughput ---------------------------------------
    designs = [memo.elaborate(source) for source in sources]
    started = time.perf_counter()
    n_verified = sum(
        1 for design in designs
        if verify_design(design, bound=2).status == "verified")
    verify_s = time.perf_counter() - started

    started = time.perf_counter()
    # Inside the formal subset (a bit-sliced carry bus would read and
    # write one signal, which the loop check conservatively rejects).
    adder = (
        "module add8(input [7:0] a, input [7:0] b, input cin,\n"
        "            output [8:0] y);\n"
        "  assign y = a + b + cin;\n"
        "endmodule\n")
    n_equiv_checks = max(4, n_designs // 16)
    for _ in range(n_equiv_checks):
        report = check_equivalence(adder, adder)
        assert report.status == "equivalent"
    equiv_s = time.perf_counter() - started

    return {
        "schema": "pyranet-bench-formal/v1",
        "n_designs": n_designs,
        "n_passes": n_passes,
        "memo": {
            "unmemoized_s": round(unmemoized_s, 4),
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(unmemoized_s / warm_s, 2),
            "floor": MEMO_SPEEDUP_FLOOR,
            "hits": hits,
            "misses": misses,
        },
        "check": {
            "verify_s": round(verify_s, 4),
            "verify_per_s": round(len(designs) / verify_s, 1),
            "n_verified": n_verified,
            "equivalence_s": round(equiv_s, 4),
            "equivalence_per_s": round(n_equiv_checks / equiv_s, 1),
        },
    }


def summary_lines(payload: Dict[str, Any]) -> list:
    memo = payload["memo"]
    check = payload["check"]
    return [
        "Formal-tier benchmark "
        f"({payload['n_designs']} designs x {payload['n_passes']} passes)",
        f"  elaborate, no memo: {memo['unmemoized_s']:8.3f} s",
        f"  memo cold pass    : {memo['cold_s']:8.3f} s",
        f"  memo warm pass    : {memo['warm_s']:8.3f} s  "
        f"({memo['speedup']:.1f}x, floor {memo['floor']:.0f}x; "
        f"{memo['misses']} misses / {memo['hits']} hits)",
        f"  verify_design     : {check['verify_s']:8.3f} s  "
        f"({check['verify_per_s']:.1f}/s, "
        f"{check['n_verified']} verified)",
        f"  check_equivalence : {check['equivalence_s']:8.3f} s  "
        f"({check['equivalence_per_s']:.1f}/s)",
    ]


def check_floors(payload: Dict[str, Any]) -> None:
    memo = payload["memo"]
    assert memo["speedup"] >= MEMO_SPEEDUP_FLOOR, (
        f"memoized elaboration regressed: {memo['speedup']}x "
        f"< floor {MEMO_SPEEDUP_FLOOR}x")


def write_report(payload: Dict[str, Any],
                 path: str = REPORT_PATH) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def test_formal_bench(scale, capsys, tmp_path):
    payload = run_formal_benchmark(max(32, scale.n_github_files // 8))
    payload["scale"] = scale.name
    write_report(payload)
    with capsys.disabled():
        print()
        for line in summary_lines(payload):
            print(line)
    check_floors(payload)


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Benchmark the formal tier's memoized elaboration "
                    "and check throughput; write BENCH_formal.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="small corpus (CI smoke scale)")
    parser.add_argument(
        "--n-designs", type=int, default=None, metavar="N",
        help="explicit design count (overrides --quick)")
    parser.add_argument(
        "--json", default=REPORT_PATH, metavar="PATH",
        help=f"report path (default {REPORT_PATH})")
    args = parser.parse_args()
    n_designs = args.n_designs or (32 if args.quick else 96)
    payload = run_formal_benchmark(n_designs)
    payload["scale"] = "quick" if args.quick else "cli"
    for line in summary_lines(payload):
        print(line)
    write_report(payload, args.json)
    print(f"wrote {args.json}")
    check_floors(payload)


if __name__ == "__main__":
    main()
