"""Run the PyraNet curation pipeline and inspect the layers.

Simulates the GitHub scrape and the Fig. 2 commercial-LLM generation
pipeline, streams everything through the filters / dedup / syntax-check
/ labelling stages batch by batch (the scrape is consumed lazily),
prints the pyramid and the per-stage trace, and saves the dataset as
JSONL.

    python examples/curate_dataset.py
    python examples/curate_dataset.py --parallel --report-json report.json
    python examples/curate_dataset.py --store-dir pyranet_store
    python examples/curate_dataset.py --workers 4 --cache-dir .cache

All examples share one CLI (see ``_cli.py``): ``--report-json PATH``
writes the full machine-readable pipeline report (funnel counters,
layer sizes, and the per-stage trace with wall times, drop reasons, and
cache hit rates) so runs can be diffed between revisions;
``--trace-json PATH`` writes the merged run report (spans + metrics)
from the unified observability layer; ``--parallel`` runs the batched
stages on a thread pool and ``--workers N`` on an N-process pool;
``--store-dir PATH`` additionally writes the
dataset as a sharded, content-addressed store (see :mod:`repro.store`)
and demonstrates an indexed layer read plus curriculum serving straight
off the shards; ``--cache-dir PATH`` persists the syntax-check /
ranking / description results on disk so a second run over the same
corpus serves them from the cache instead of recomputing;
``--resume RUN_ID`` journals progress so a killed run picks up from its
last checkpoint; ``--fault-plan PATH`` injects a deterministic fault
schedule (resilience drills); ``--families`` writes the
run's design-family report (near-duplicate variant graphs with
detection evidence) as ``families.json`` next to the store.
"""

import random

import _cli
from repro.corpus import (
    GitHubScrapeSimulator,
    SimulatedCommercialLLM,
    build_keyword_database,
)
from repro.dataset import (
    CurationPipeline,
    chain_batches,
    generated_batches,
    raw_file_batches,
    save_jsonl,
)
from repro.eval import render_pyramid
from repro.pipeline import ParallelExecutor, ResultCache
from repro.store import SamplingService, ShardWriter, StoreReader


def main() -> None:
    args = _cli.build_parser(
        "Run the PyraNet curation pipeline", default_seed=7).parse_args()
    obs = _cli.observability_from(args)
    print("1) Scraping (simulated GitHub population)…")
    scraper = GitHubScrapeSimulator(seed=args.seed)
    print("   the 500-file scrape is consumed lazily in step 3, "
          "one batch at a time")

    print("\n2) Generating extra samples with the commercial LLM "
          "(Fig. 2 pipeline)…")
    db = build_keyword_database()
    stats = db.funnel_stats()
    print(f"   keyword DB: {stats['keywords']} keywords -> "
          f"{stats['expanded_keywords']} expanded keywords")
    llm = SimulatedCommercialLLM(seed=args.seed + 1)
    rng = random.Random(args.seed + 2)
    generated = []
    for _ in range(12):
        entry = db.sample(rng)
        generated.extend(llm.generate_batch(entry, n_queries=10))
    print(f"   generated {len(generated)} samples "
          "(10 temperature-varied queries per prompt)")

    print("\n3) Curating (filters -> dedup -> syntax check -> labels)…")
    executor = _cli.executor_from(args) or ParallelExecutor.serial()
    resilience = _cli.resilience_from(args, obs=obs)
    cache = _cli.cache_from(args, obs)
    print(f"   {executor.describe()['mode']} workers, batches of 128")
    source = chain_batches(
        raw_file_batches(scraper.iter_scrape(500, batch_size=128)),
        generated_batches(generated, batch_size=128),
    )
    result = CurationPipeline(
        seed=args.seed, batch_size=128, executor=executor, cache=cache,
        obs=obs, resilience=resilience,
    ).run_stream(source, source_token=f"curate-example:{args.seed}")
    if resilience is not None:
        print("    resilience:", resilience.summary())
    if cache is not None:
        disk = cache.stats()["disk"]
        print(f"    cache dir {args.cache_dir}: "
              f"{disk['hits']} disk hits, {disk['misses']} misses, "
              f"{disk['entries']} entries on disk")
    for line in result.report.summary_lines():
        print("   ", line)

    print("\n   per-stage trace:")
    for line in result.report.trace.summary_lines():
        print("   ", line)

    print()
    print(render_pyramid("PyraNet layer pyramid",
                         result.dataset.layer_sizes()))

    print("complexity mix:", result.dataset.complexity_histogram())

    entry = next(e for e in result.dataset if e.layer == 1)
    print("\nA Layer-1 entry:")
    print("  ranking    :", entry.ranking, "/ 20")
    print("  complexity :", entry.complexity.label)
    print("  description:", entry.description[:100], "…")
    print("  code       :", entry.code.splitlines()[1][:70], "…")

    path = "pyranet_dataset.jsonl"
    n = save_jsonl(result.dataset, path)
    print(f"\nsaved {n} entries to {path}")

    _cli.write_report(args, result.report)

    family_report = result.report.families
    if family_report is not None and family_report.n_families:
        print(f"\ndesign families: {family_report.n_families} families, "
              f"{family_report.n_variants} near-duplicate variant(s); "
              f"size histogram {family_report.size_histogram()}")
        biggest = max(family_report.families, key=lambda fam: fam.size)
        print(f"  e.g. {biggest.family_id}: canonical "
              f"{biggest.canonical_path or biggest.canonical_entry_id!r} "
              f"+ {len(biggest.variants)} variant(s), evidence "
              f"{[ev.kind for ev in biggest.variants[0].evidence]}")

    if args.store_dir:
        print(f"\n4) Sharding into the content-addressed store "
              f"({args.store_dir})…")
        manifest = ShardWriter(args.store_dir, obs=obs).write(result.dataset)
        print(f"   {manifest.n_entries} entries -> "
              f"{len(manifest.shards)} shards, "
              f"{manifest.total_raw_bytes} raw bytes -> "
              f"{manifest.total_bytes} compressed")

        reader = StoreReader(args.store_dir, cache=ResultCache(), obs=obs)
        layer1 = reader.select(layer=1)
        print(f"   select(layer=1): {len(layer1)} entries from "
              f"{len(reader.opened_shards)}/{len(manifest.shards)} shards "
              "(manifest index skipped the rest)")

        service = SamplingService(reader, seed=args.seed)
        phases = service.curriculum_phases()
        print(f"   curriculum off the shards: {len(phases)} phases, "
              f"first {[p.label for p in phases[:4]]}")

        print("   families facet:", manifest.facets()["families"])

        split = service.split(eval_fraction=0.1)
        print(f"   family-atomic split: {split.n_train} train / "
              f"{split.n_eval} eval rows over {split.n_groups} groups "
              "(no family straddles the split)")

    if args.families:
        if family_report is None:
            print("\n(--families: this run produced no family report; "
                  "ignored)")
        else:
            from pathlib import Path

            target = (Path(args.store_dir) if args.store_dir
                      else Path(".")) / "families.json"
            target.write_text(family_report.to_json(indent=2) + "\n",
                              encoding="utf-8")
            print(f"\nwrote family report to {target} "
                  f"({family_report.n_families} families)")

    _cli.write_trace(args, obs, example="curate_dataset")


if __name__ == "__main__":
    main()
