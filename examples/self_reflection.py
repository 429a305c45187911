"""OriGen-style self-reflection: compiler feedback drives repair.

Breaks a known-good design three different ways, shows the compiler
diagnostics for each, and lets the repair loop
(:class:`repro.repairloop.RepairLoop`, rule-based repairer, budget 4)
fix them — then checks whether the repaired code is still
*functionally* correct by simulating it against the design's golden
model.

    python examples/self_reflection.py
    python examples/self_reflection.py --seed 5 --report-json repairs.json

The script exits non-zero when no damaged design was repaired, or when
code the loop reports as fixed still fails the compile check.  A
repaired design that fails its functional test is a printed result,
not an error: a syntax repair does not guarantee correct behaviour.

Shared flags (see ``_cli.py``): ``--report-json`` writes the per-attempt
outcomes; ``--trace-json`` writes the merged run report with one span
per repair attempt.
"""

import random
import sys

import _cli
from repro.corpus import mutate
from repro.corpus.templates import generate_design
from repro.eval.functional import run_functional_test
from repro.repairloop import RepairLoop
from repro.verilog import check


def main() -> None:
    args = _cli.build_parser(
        "Compiler-feedback repair loop demo", default_seed=11).parse_args()
    obs = _cli.observability_from(args)
    _cli.note_unused_store(args)
    _cli.note_unused_cache(args)

    design = generate_design("updown_counter", random.Random(3),
                             params={"WIDTH": 4})
    print("reference design:", design.spec.module_name,
          f"({design.spec.family})")
    assert check(design.source).status == "clean"

    loop = RepairLoop(budget=4)
    rng = random.Random(args.seed)
    attempts = []
    failures = []
    for attempt in range(3):
        broken = mutate.break_syntax(design.source, rng)
        report = check(broken.source)
        if report.status != "syntax":
            continue
        print(f"\n--- damage {attempt + 1}: {broken.applied} ---")
        print("compiler says:", report.syntax_errors[0])

        with obs.span("example.repair", attempt=attempt,
                      damage=str(broken.applied)) as span:
            transcript = loop.run(broken.source)
            span.meta["fixed"] = transcript.fixed
        obs.counter("example.repairs_attempted").inc()
        if transcript.fixed:
            obs.counter("example.repairs_fixed").inc()
        print("repair actions:", transcript.actions() or "(none)")
        print("fixed:", transcript.fixed,
              "| final status:", transcript.final_status)
        record = {
            "attempt": attempt,
            "damage": str(broken.applied),
            "fixed": transcript.fixed,
            "final_status": transcript.final_status,
        }
        if transcript.fixed:
            if check(transcript.final_code).status == "syntax":
                failures.append(f"damage {attempt + 1} is reported fixed "
                                "but still fails the compile check")
            functional = run_functional_test(
                transcript.final_code, design.spec, n_vectors=24)
            print("functional after repair:",
                  "PASS" if functional.passed else
                  f"FAIL ({functional.detail})")
            record["functional_pass"] = functional.passed
        attempts.append(record)

    _cli.write_report(args, {"design": design.spec.module_name,
                             "attempts": attempts})
    _cli.write_trace(args, obs, example="self_reflection")
    if not any(record["fixed"] for record in attempts):
        failures.append("no damaged design was repaired")
    if failures:
        sys.exit("error: " + "; ".join(failures))


if __name__ == "__main__":
    main()
