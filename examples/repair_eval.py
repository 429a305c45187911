"""The agentic repair loop, end to end: budget sweep + trajectory data.

Two demonstrations of :mod:`repro.repairloop`:

1. **pass@k(repair_budget)** — evaluate one model at several repair
   budgets and watch pass@1 climb monotonically as failed samples get
   feedback-driven retries (compiler diagnostics, then counterexample
   vectors, drive each fix).
2. **Repair-trajectory corpus** — break clean designs, drive the loop
   until they are fixed, and stream the resulting broken→fixed pairs
   through curation into a store whose facets carry the ``repair``
   origin (CraftRTL-style targeted repair data).

    python examples/repair_eval.py
    python examples/repair_eval.py --budgets 0,1,2,4 --store-dir ./store
"""

import _cli
from repro.core import PyraNet
from repro.corpus import repair_trajectories, repair_trajectory_batches


def main() -> None:
    parser = _cli.build_parser(
        "Repair-budget sweep + repair-trajectory corpus",
        default_seed=0)
    parser.add_argument(
        "--budgets", default="0,1,2", metavar="R,R,...",
        help="comma-separated repair budgets to sweep (default 0,1,2)")
    parser.add_argument(
        "--n-problems", type=int, default=12, metavar="N",
        help="problems per evaluation (default 12)")
    parser.add_argument(
        "--n-candidates", type=int, default=24, metavar="N",
        help="mutated designs for the trajectory corpus (default 24)")
    args = parser.parse_args()
    obs = _cli.observability_from(args)
    budgets = [int(token) for token in args.budgets.split(",")]

    pyranet = PyraNet(seed=args.seed, n_samples=4, n_test_vectors=12,
                      obs=obs, executor=_cli.executor_from(args),
                      cache_dir=args.cache_dir)
    model = pyranet.base_model("codellama-7b-instruct-sim")

    print(f"1) pass@1 vs repair budget ({args.n_problems} problems)")
    sweep = []
    for budget in budgets:
        report = pyranet.evaluate_repair(
            model, repair_budget=budget, n_problems=args.n_problems)
        rate = report.pass_at(1)
        sweep.append({"budget": budget, "pass@1": round(rate, 1)})
        print(f"   r={budget}: pass@1 = {rate:5.1f}")

    print(f"\n2) repair-trajectory corpus "
          f"({args.n_candidates} broken candidates)")
    trajectories = repair_trajectories(
        n_candidates=args.n_candidates, seed=args.seed, budget=2,
        executor=_cli.executor_from(args), obs=obs,
        resilience=_cli.resilience_from(args, obs))
    summary = trajectories.summary()
    print(f"   fixed {summary['n_fixed']}/{summary['n_candidates']} "
          f"(fix rate {summary['fix_rate']:.2f}, "
          f"{summary['total_iterations']} loop iterations)")

    store_facets = None
    if args.store_dir:
        from repro.dataset import CurationPipeline

        pipeline = CurationPipeline(seed=args.seed, obs=obs)
        outcome = pipeline.curate_to_store(
            repair_trajectory_batches(
                n_candidates=args.n_candidates, seed=args.seed,
                budget=2),
            args.store_dir, source_token=f"repair:{args.seed}")
        store_facets = outcome.manifest.facets()
        print(f"   stored {store_facets['n_entries']} entries at "
              f"{args.store_dir}; origins = {store_facets['origins']}")
    else:
        print("   (pass --store-dir to shard the pairs into a store)")

    _cli.write_report(args, {
        "sweep": sweep,
        "trajectories": summary,
        "store_facets": store_facets,
    })
    _cli.write_trace(args, obs, example="repair_eval")


if __name__ == "__main__":
    main()
