"""Evaluate a model on the VerilogEval-style suites via EvalConfig.

The whole declarative surface of an evaluation run — sample count,
temperature, seed, stimulus width, repair budget — travels as one
frozen :class:`repro.eval.EvalConfig`, printed (and written with
``--report-json``) alongside the results so a run is reproducible from
its own artifact.

    python examples/evaluate.py
    python examples/evaluate.py --suite human --n-problems 12
    python examples/evaluate.py --repair-budget 2 --report-json out.json

``--repair-budget N`` switches to the pass@k(repair_budget) scenario:
every failed sample gets up to N feedback-driven repair iterations
(compiler diagnostics for syntax damage, counterexample vectors for
functional damage), and the report adds the per-iteration fix-rate
curve.

The script exits non-zero when the printed table breaks the paper's
shape: pass@k must not fall as k grows, nor pass@1 as the repair
budget grows.
"""

import sys
from typing import Dict, List

import _cli
from repro.core import PyraNet


def shape_failures(rows: List[Dict[str, float]]) -> List[str]:
    """Where ``rows`` (one printed summary per repair budget, in budget
    order) break pass@k non-decreasing in k or pass@1 in the budget."""
    failures = []
    for budget, row in enumerate(rows):
        values = list(row.values())
        if values != sorted(values):
            failures.append(f"r={budget}: pass@k falls as k grows {row}")
    pass_at_1 = [row["pass@1"] for row in rows]
    if pass_at_1 != sorted(pass_at_1):
        failures.append(f"pass@1 falls as r grows {pass_at_1}")
    return failures


def main() -> None:
    parser = _cli.build_parser(
        "Evaluate pass@k under one EvalConfig", default_seed=0)
    parser.add_argument(
        "--suite", choices=("machine", "human"), default="machine",
        help="problem suite (default machine)")
    parser.add_argument(
        "--n-problems", type=int, default=16, metavar="N",
        help="problems to evaluate (default 16)")
    parser.add_argument(
        "--n-samples", type=int, default=5, metavar="N",
        help="completions per problem (default 5)")
    parser.add_argument(
        "--repair-budget", type=int, default=0, metavar="R",
        help="repair iterations per failed sample "
             "(default 0 = classic single-shot pass@k)")
    args = parser.parse_args()
    obs = _cli.observability_from(args)
    _cli.note_unused_store(args)
    _cli.note_unused_families(args)

    pyranet = PyraNet(seed=args.seed, n_samples=args.n_samples,
                      n_test_vectors=12, obs=obs,
                      executor=_cli.executor_from(args),
                      resilience=_cli.resilience_from(args, obs),
                      cache_dir=args.cache_dir)
    model = pyranet.base_model("codellama-7b-instruct-sim")
    config = pyranet.eval_config(repair_budget=args.repair_budget)
    print("eval config:", config.to_json())

    if args.repair_budget > 0:
        report = pyranet.evaluate_repair(
            model, suite=args.suite, repair_budget=args.repair_budget,
            n_problems=args.n_problems)
        print(f"\npass@k with repair budget {args.repair_budget}:")
        rows = [report.summary(ks=config.ks, budget=budget)
                for budget in range(args.repair_budget + 1)]
        for budget, row in enumerate(rows):
            print(f"  r={budget}: " + "  ".join(
                f"{key}={value:5.1f}" for key, value in row.items()))
        curve = [round(rate, 3) for rate in report.fix_rate_curve()]
        print("fix-rate curve:", curve)
        payload = report.to_dict()
    else:
        report = pyranet.evaluate(model, suite=args.suite,
                                  n_problems=args.n_problems)
        print(f"\n{report.suite} suite, {len(report.results)} problems:")
        rows = [report.summary(config.ks)]
        for key, value in rows[0].items():
            print(f"  {key} = {value:5.1f}")
        payload = report.to_dict()

    payload["config"] = config.to_dict()
    _cli.write_report(args, payload)
    _cli.write_trace(args, obs, example="evaluate")
    failures = shape_failures(rows)
    if failures:
        sys.exit("error: " + "; ".join(failures))


if __name__ == "__main__":
    main()
