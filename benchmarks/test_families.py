"""Family clustering: throughput and the zero-recompute guarantee.

Two numbers this PR is accountable for, emitted to
``BENCH_families.json`` (uploaded as a CI artifact):

* **Families/s** — wall-clock of the family-aware dedup
  (:func:`~repro.dataset.families.build_family_artifacts`) over the
  seeded 500-file scrape, and the marginal cost over plain dedup.
  Clustering rides the signatures dedup already computes, so the
  overhead floor is deliberately tight (<= 2x plain dedup — typically
  well under 1.3x; the extra work is band-key unions and evidence
  strings, never hashing).
* **Zero recompute** — asserted *counter-exactly*, not by timing: the
  family-aware run performs precisely as many signature calls and
  signs as many shingles as plain dedup (``MinHasher`` counts both).

Deliberately free of ``pytest-benchmark``: the CI smoke job runs this
file both as a test and as a plain script (``python
benchmarks/test_families.py --quick``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any, Dict

from repro.corpus.github_sim import GitHubScrapeSimulator
from repro.dataset.dedup import MinHasher, deduplicate
from repro.dataset.families import build_family_artifacts, module_names

#: Hard ceiling on the marginal cost of clustering over plain dedup.
OVERHEAD_CEILING = 2.0

REPORT_PATH = "BENCH_families.json"


def run_families_benchmark(n_files: int) -> Dict[str, Any]:
    raw_files = GitHubScrapeSimulator(seed=0).scrape(n_files)
    corpus = [f.content for f in raw_files]

    plain_hasher = MinHasher(64)
    started = time.perf_counter()
    deduplicate(corpus, threshold=0.8, hasher=plain_hasher)
    plain_s = time.perf_counter() - started

    def meta_for(index: int) -> Dict[str, Any]:
        return {"path": raw_files[index].path, "origin": "github",
                "modules": module_names(corpus[index])}

    family_hasher = MinHasher(64)
    started = time.perf_counter()
    report, index = build_family_artifacts(
        corpus, list(range(len(corpus))), meta_for,
        threshold=0.8, seed=0, hasher=family_hasher)
    family_s = time.perf_counter() - started

    # The zero-recompute guarantee, counter-exact: family clustering
    # hashed nothing plain dedup did not.
    assert family_hasher.n_signature_calls == plain_hasher.n_signature_calls
    assert family_hasher.n_shingles_hashed == plain_hasher.n_shingles_hashed

    return {
        "schema": "pyranet-bench-families/v1",
        "n_files": n_files,
        "families": {
            "wall_s": round(family_s, 4),
            "families_per_s": round(index.n_families / family_s, 1),
            "n_families": index.n_families,
            "n_variants": index.n_variants,
            "overhead_vs_plain_dedup": round(family_s / plain_s, 2),
            "overhead_ceiling": OVERHEAD_CEILING,
        },
        "plain_dedup": {
            "wall_s": round(plain_s, 4),
            "n_removed": report.n_removed,
        },
        "zero_recompute": {
            "signature_calls": family_hasher.n_signature_calls,
            "shingles_hashed": family_hasher.n_shingles_hashed,
            "counter_exact": True,
        },
    }


def summary_lines(payload: Dict[str, Any]) -> list:
    fam = payload["families"]
    return [
        f"Family clustering benchmark ({payload['n_files']} files)",
        f"  plain dedup       : {payload['plain_dedup']['wall_s']:8.3f} s",
        f"  dedup + families  : {fam['wall_s']:8.3f} s  "
        f"({fam['overhead_vs_plain_dedup']:.2f}x, "
        f"ceiling {fam['overhead_ceiling']:.1f}x)",
        f"  families/s        : {fam['families_per_s']:8.1f}  "
        f"({fam['n_families']} families, {fam['n_variants']} variants)",
        f"  zero recompute    : "
        f"{payload['zero_recompute']['signature_calls']} signature "
        f"calls, {payload['zero_recompute']['shingles_hashed']} "
        f"shingles signed (counter-exact match with plain dedup)",
    ]


def check_floors(payload: Dict[str, Any]) -> None:
    fam = payload["families"]
    assert fam["n_families"] > 0, "seeded scrape produced no families"
    assert fam["overhead_vs_plain_dedup"] <= OVERHEAD_CEILING, (
        f"family clustering overhead {fam['overhead_vs_plain_dedup']}x "
        f"> ceiling {OVERHEAD_CEILING}x — it must ride dedup's "
        "signatures, not recompute")


def write_report(payload: Dict[str, Any],
                 path: str = REPORT_PATH) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def test_family_throughput(scale, capsys):
    payload = run_families_benchmark(max(scale.n_github_files, 500))
    payload["scale"] = scale.name
    write_report(payload)
    with capsys.disabled():
        print()
        for line in summary_lines(payload):
            print(line)
    check_floors(payload)


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Benchmark family clustering over the seeded "
                    "scrape; write BENCH_families.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke scale (the seeded 500-file scrape)")
    parser.add_argument(
        "--n-files", type=int, default=None, metavar="N",
        help="explicit corpus size (overrides --quick)")
    parser.add_argument(
        "--json", default=REPORT_PATH, metavar="PATH",
        help=f"report path (default {REPORT_PATH})")
    args = parser.parse_args()
    n_files = args.n_files or (500 if args.quick else 1000)
    payload = run_families_benchmark(n_files)
    payload["scale"] = "quick" if args.quick else "cli"
    for line in summary_lines(payload):
        print(line)
    write_report(payload, args.json)
    print(f"wrote {args.json}")
    check_floors(payload)


if __name__ == "__main__":
    main()
