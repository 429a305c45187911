"""Curation at scale: memory boundedness and shard-parallel speedup.

Numbers emitted to ``BENCH_scaleout.json`` (uploaded as a CI artifact)
so later changes have a trajectory to beat:

* **Golden byte-identity** — the output of a run that spills its
  survivors to disk, and so dedups through the partitioned merge
  (dataset rows, layer assignment, drop histogram, dedup keep/drop
  decisions), checksummed against an in-memory run, which dedups
  through ``build_family_artifacts``, on a seeded corpus (5 000 files
  at standard scale).  Asserted exactly, always.
* **Flat RSS** — parent-process peak RSS of a streaming curate with
  disk spill, measured in *fresh subprocesses* (``VmHWM`` is monotone
  per process, so each point needs its own process) at two corpus
  sizes 4x apart.  Asserted: growing the corpus 4x grows peak RSS by
  at most :data:`RSS_GROWTH_CEILING`.  At full scale the large point
  is the paper-shaped 1M-file synthetic scrape.
* **Shard-parallel speedup** — the same streaming run with 4 process
  workers vs in-process serial, asserted at
  >= :data:`SPEEDUP_FLOOR` x — *gated on ``os.cpu_count() >= 4``*
  (a 1-core CI box records the ratio but cannot meaningfully assert
  it).

Deliberately free of ``pytest-benchmark``: the CI smoke job runs this
file both as a test and as a plain script (``python
benchmarks/test_scaleout.py --quick``) in environments where only the
core test deps are installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict

SEED = 0
BATCH_SIZE = 256
N_PARTITIONS = 8
#: Duplicate-candidate window for the synthetic scrape's streaming
#: form — without it the *source* holds every eligible file forever.
CANDIDATE_WINDOW = 4096

#: Peak-RSS growth allowed for a 4x corpus (hard floor; 1.0 = flat).
RSS_GROWTH_CEILING = 1.6
#: Speedup floor for 4 process workers (asserted only with >= 4 CPUs).
SPEEDUP_FLOOR = 2.0
SPEEDUP_WORKERS = 4

REPORT_PATH = "BENCH_scaleout.json"

#: (golden_n, rss_small_n, rss_large_n, speedup_n) per preset.
PRESETS = {
    "quick": (1200, 1500, 6000, 1500),
    "standard": (5000, 10_000, 40_000, 6000),
    "full": (5000, 250_000, 1_000_000, 50_000),
}


# -- child process: one measurement, fresh VmHWM -----------------------


def _result_checksum(result) -> str:
    """One digest over everything the pipelines must agree on."""
    payload = {
        "rows": [entry.to_dict() for entry in result.dataset],
        "layers": result.report.layers.sizes,
        "drops": dict(result.report.funnel.removed),
        "funnel": {
            "collected": result.report.funnel.collected,
            "after_dedup": result.report.funnel.after_dedup,
            "after_syntax": result.report.funnel.after_syntax,
        },
        "stage_drops": {
            stage.name: dict(stage.drops)
            for stage in result.report.trace.stages
        },
    }
    return hashlib.blake2b(
        json.dumps(payload, sort_keys=True).encode("utf-8"),
        digest_size=16).hexdigest()


def run_measurement(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one curate in THIS process and report wall/RSS/checksum.

    Invoked via ``--measure`` in a fresh subprocess per data point so
    peak-RSS readings never contaminate each other.
    """
    import time

    from repro.corpus.github_sim import GitHubScrapeSimulator
    from repro.dataset.pipeline import CurationPipeline
    from repro.dataset.streaming import raw_file_batches
    from repro.obs import rss_peak_bytes
    from repro.pipeline import ParallelExecutor

    n_files = spec["n_files"]
    mode = spec["mode"]
    started = time.perf_counter()
    if mode == "mem":
        raw_files = GitHubScrapeSimulator(seed=SEED).scrape(n_files)
        result = CurationPipeline(seed=SEED).run(raw_files)
        n_entries = len(result.dataset)
        checksum = _result_checksum(result)
    else:
        workers = spec.get("workers", 1)
        executor = (ParallelExecutor(mode="process", max_workers=workers)
                    if workers > 1 else None)
        scraper = GitHubScrapeSimulator(seed=SEED)
        window = spec.get("candidate_window")
        source = raw_file_batches(scraper.iter_scrape(
            n_files, batch_size=BATCH_SIZE, candidate_window=window))
        with tempfile.TemporaryDirectory() as workdir:
            pipeline = CurationPipeline(
                seed=SEED, batch_size=BATCH_SIZE,
                n_partitions=N_PARTITIONS, executor=executor,
                spill_dir=Path(workdir) / "spill")
            if spec.get("to_store", False):
                out = pipeline.curate_to_store(
                    source, Path(workdir) / "store",
                    source_token=f"scaleout:{n_files}")
                n_entries = out.manifest.n_entries
                checksum = None
            else:
                result = pipeline.run_stream(
                    source, source_token=f"scaleout:{n_files}")
                n_entries = len(result.dataset)
                checksum = _result_checksum(result)
    wall_s = time.perf_counter() - started
    return {
        "mode": mode,
        "n_files": n_files,
        "n_entries": n_entries,
        "wall_s": round(wall_s, 3),
        "rss_peak_bytes": rss_peak_bytes(),
        "checksum": checksum,
    }


def measure_in_subprocess(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One data point in a fresh interpreter (fresh ``VmHWM``)."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--measure", json.dumps(spec)],
        capture_output=True, text=True, env=env, cwd=str(root))
    if proc.returncode != 0:
        raise RuntimeError(
            f"measurement child failed for {spec}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the benchmark ------------------------------------------------------


def run_scaleout_benchmark(preset: str) -> Dict[str, Any]:
    golden_n, rss_small_n, rss_large_n, speedup_n = PRESETS[preset]

    # 1) Golden byte-identity: the in-memory reduce vs the spilled,
    #    partitioned one, same seed.
    mem = measure_in_subprocess({"mode": "mem", "n_files": golden_n})
    streamed = measure_in_subprocess(
        {"mode": "stream", "n_files": golden_n})

    # 2) Flat RSS: the shard-parallel deployment — streaming-to-store
    #    with disk spill, a bounded source, and process workers (the
    #    partition pair state lives in the workers; with a serial
    #    executor it transits the parent O(n/partitions) at a time).
    #    Two corpus sizes 4x apart, each in a fresh process, because
    #    VmHWM is monotone within one.
    rss_points = [
        measure_in_subprocess({
            "mode": "stream", "n_files": n, "to_store": True,
            "candidate_window": CANDIDATE_WINDOW, "workers": 2,
        })
        for n in (rss_small_n, rss_large_n)
    ]
    rss_growth = (rss_points[1]["rss_peak_bytes"]
                  / rss_points[0]["rss_peak_bytes"])

    # 3) Shard-parallel speedup: serial vs 4 process workers.
    serial = measure_in_subprocess({
        "mode": "stream", "n_files": speedup_n, "to_store": True,
        "candidate_window": CANDIDATE_WINDOW, "workers": 1,
    })
    parallel = measure_in_subprocess({
        "mode": "stream", "n_files": speedup_n, "to_store": True,
        "candidate_window": CANDIDATE_WINDOW,
        "workers": SPEEDUP_WORKERS,
    })
    n_cpus = os.cpu_count() or 1

    return {
        "schema": "pyranet-bench-scaleout/v1",
        "preset": preset,
        "n_cpus": n_cpus,
        "golden": {
            "n_files": golden_n,
            "n_entries": mem["n_entries"],
            "mem_checksum": mem["checksum"],
            "stream_checksum": streamed["checksum"],
            "identical": mem["checksum"] == streamed["checksum"],
            "mem_wall_s": mem["wall_s"],
            "stream_wall_s": streamed["wall_s"],
            "mem_rss_peak_bytes": mem["rss_peak_bytes"],
            "stream_rss_peak_bytes": streamed["rss_peak_bytes"],
        },
        "rss": {
            "small": rss_points[0],
            "large": rss_points[1],
            "corpus_growth": round(rss_large_n / rss_small_n, 2),
            "rss_growth": round(rss_growth, 3),
            "ceiling": RSS_GROWTH_CEILING,
        },
        "speedup": {
            "n_files": speedup_n,
            "workers": SPEEDUP_WORKERS,
            "serial_wall_s": serial["wall_s"],
            "parallel_wall_s": parallel["wall_s"],
            "speedup": round(serial["wall_s"] / parallel["wall_s"], 2),
            "floor": SPEEDUP_FLOOR,
            "gated": n_cpus < SPEEDUP_WORKERS,
        },
    }


def summary_lines(payload: Dict[str, Any]) -> list:
    golden, rss, speed = (payload["golden"], payload["rss"],
                          payload["speedup"])
    mb = 1024 * 1024
    gate = (" (not asserted: "
            f"{payload['n_cpus']} CPU(s))" if speed["gated"] else "")
    return [
        f"Scale-out benchmark (preset {payload['preset']})",
        f"  golden identity   : {golden['identical']} "
        f"({golden['n_files']} files -> {golden['n_entries']} entries; "
        f"mem {golden['mem_wall_s']:.1f}s, "
        f"stream {golden['stream_wall_s']:.1f}s)",
        f"  RSS small/large   : "
        f"{rss['small']['rss_peak_bytes'] / mb:7.1f} MB @ "
        f"{rss['small']['n_files']} files / "
        f"{rss['large']['rss_peak_bytes'] / mb:7.1f} MB @ "
        f"{rss['large']['n_files']} files",
        f"  RSS growth        : {rss['rss_growth']:.2f}x for a "
        f"{rss['corpus_growth']:.0f}x corpus "
        f"(ceiling {rss['ceiling']:.1f}x)",
        f"  speedup @ {speed['workers']} procs : "
        f"{speed['speedup']:.2f}x "
        f"(serial {speed['serial_wall_s']:.1f}s -> "
        f"parallel {speed['parallel_wall_s']:.1f}s, "
        f"floor {speed['floor']:.1f}x){gate}",
    ]


def check_floors(payload: Dict[str, Any]) -> None:
    golden, rss, speed = (payload["golden"], payload["rss"],
                          payload["speedup"])
    assert golden["identical"], (
        "the spilled run diverged from the in-memory one: "
        f"{golden['stream_checksum']} != {golden['mem_checksum']}")
    assert rss["rss_growth"] <= RSS_GROWTH_CEILING, (
        f"streaming RSS is not flat: {rss['rss_growth']}x growth for a "
        f"{rss['corpus_growth']}x corpus (ceiling {RSS_GROWTH_CEILING}x)")
    if not speed["gated"]:
        assert speed["speedup"] >= SPEEDUP_FLOOR, (
            f"shard-parallel speedup regressed: {speed['speedup']}x "
            f"< floor {SPEEDUP_FLOOR}x at {speed['workers']} workers")


def write_report(payload: Dict[str, Any],
                 path: str = REPORT_PATH) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def test_scaleout(scale, capsys):
    preset = {"fast": "quick", "standard": "standard",
              "full": "full"}[scale.name]
    payload = run_scaleout_benchmark(preset)
    write_report(payload)
    with capsys.disabled():
        print()
        for line in summary_lines(payload):
            print(line)
    check_floors(payload)


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Benchmark the streaming curate path (flat RSS, "
                    "shard-parallel speedup); write BENCH_scaleout.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="small corpus (CI smoke scale)")
    parser.add_argument(
        "--full", action="store_true",
        help="paper-shaped scale: the 1M-file synthetic scrape")
    parser.add_argument(
        "--json", default=REPORT_PATH, metavar="PATH",
        help=f"report path (default {REPORT_PATH})")
    parser.add_argument(
        "--measure", default=None, metavar="SPEC",
        help=argparse.SUPPRESS)  # internal: child data point
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(run_measurement(json.loads(args.measure))))
        return
    preset = ("full" if args.full
              else "quick" if args.quick else "standard")
    payload = run_scaleout_benchmark(preset)
    for line in summary_lines(payload):
        print(line)
    write_report(payload, args.json)
    print(f"wrote {args.json}")
    check_floors(payload)


if __name__ == "__main__":
    main()
