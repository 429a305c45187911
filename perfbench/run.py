"""Run one benchmark workload, or all of them.

From the root of a checkout::

    python3 perfbench/run.py --workload curate --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 20

A workload run builds its inputs from ``--seed`` (set-up, repeated at
least ``SETUP_REPEATS`` times and for ``SETUP_MIN_S`` seconds), then
repeats the workload's timed iteration for about ``--seconds`` (and at
least three times when one iteration is shorter than that),
checking every iteration's output.  Each iteration times its stages
(a curation, a store write, an eval suite, one candidate's verdict)
one by one.  ``setup_s`` is the fastest set-up; ``wall_s`` and
``cpu_s`` add up, stage by stage, the fastest wall and CPU time any
iteration took for it; ``items_per_s`` is an iteration's items over
``wall_s``.  On a shared host whose speed drops by a third or more
for seconds at a time, the fastest repetition of a short stage is one
other tenants disturbed least, and a slower program slows it as much
as any other; medians flip between the host's speeds from run to run.
The medians go on the ``detail`` line.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
no wrappers installed.  With ``--trace 1`` the run wraps the probed
``repro`` functions (:mod:`perfbench.probes`), repeats the iteration
for ``--seconds``, times one more untraced iteration for the overhead
ratio, and reports per-layer metrics; it also writes
the spans (gzip JSON lines), the slowest-N ledger and the program's own
``RunReport`` under ``.perfbench-out/<workload>-seed<seed>/``.

``--all`` runs every workload in its own process and prints one row per
workload; it exits non-zero if any known-answer check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
ANSWERS = OUT_DIR / "answers.json"

#: Set-up repeats at least this often and for at least this long in a
#: run; ``setup_s`` is the fastest repetition.
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0

#: Timed iterations per run when one is shorter than ``--seconds``.
MIN_ITERATIONS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _child_cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def _source_digest() -> str:
    """Digest of the program and benchmark sources: answers recorded
    for one version are only compared with runs of the same version."""
    digest = hashlib.blake2b(digest_size=12)
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _load_answers() -> dict:
    try:
        return json.loads(ANSWERS.read_text())
    except (OSError, ValueError):
        return {}


def _save_answers(answers: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = ANSWERS.with_suffix(".tmp")
    tmp.write_text(json.dumps(answers, indent=1, sort_keys=True))
    os.replace(tmp, ANSWERS)


def _timed(workload, inputs, workdir: Path, tracer=None):
    """One iteration under the wall and CPU clocks."""
    from perfbench.measure import cpu_seconds

    gc.collect()
    wall0, cpu0, child0 = time.perf_counter(), cpu_seconds(), \
        _child_cpu_seconds()
    outcome = workload.iterate(inputs, workdir, tracer)
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    if tracer is not None:
        tracer.add("dataset.streaming.worker_cpu_s",
                   _child_cpu_seconds() - child0)
    return outcome, wall, cpu


def _iterate_for(workload, inputs, workdir: Path, seconds: float,
                 tracer=None):
    """Repeat the timed iteration for about ``seconds``: another one
    starts while the run would end nearer ``seconds`` with it than
    without it.  At least ``MIN_ITERATIONS`` run unless the first alone
    takes ``seconds``: the first fills the program's caches, so the
    fastest is a warm one."""
    runs = []
    started = time.perf_counter()
    while True:
        directory = workdir / f"iter-{len(runs)}"
        directory.mkdir()
        runs.append(_timed(workload, inputs, directory, tracer))
        if len(runs) < MIN_ITERATIONS and runs[0][1] < seconds:
            continue
        if time.perf_counter() - started + runs[-1][1] / 2 >= seconds:
            return runs


def _fastest_stages(runs):
    """``(wall_s, cpu_s)``: per stage, the least wall and the least CPU
    time of any iteration, summed over the stages."""
    stages = [outcome.stages or {"iteration": (wall, cpu)}
              for outcome, wall, cpu in runs]
    names = stages[0]
    if any(times.keys() != names.keys() for times in stages):
        raise RuntimeError("iterations timed different stages")
    wall = sum(min(times[name][0] for times in stages) for name in names)
    cpu = sum(min(times[name][1] for times in stages) for name in names)
    return wall, cpu


def _check_answers(workload, seed: int, runs) -> list:
    """Known-answer checks that span iterations and runs."""
    problems = [problem for outcome, _, _ in runs
                for problem in outcome.problems]
    answers = [json.loads(json.dumps(outcome.answer))
               for outcome, _, _ in runs]
    if any(answer != answers[0] for answer in answers):
        problems.append("iterations of one run disagree")
    key = f"{workload.answer_key(seed)}|{_source_digest()}"
    recorded = _load_answers()
    expected = recorded.get(key)
    if expected is not None and expected != answers[0]:
        problems.append(f"answer differs from the recorded one ({key})")
    if key not in recorded:
        recorded[key] = answers[0]
        _save_answers(recorded)
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, workload=None) -> dict:
    """Run one workload; returns the result line plus a detail dict."""
    from perfbench.measure import PeakMemory
    from perfbench.workloads import WORKLOADS

    workload = workload if workload is not None else WORKLOADS[name]()
    if not trace:
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            directory = workdir / f"setup-{len(setups)}"
            directory.mkdir()
            inputs = None
            gc.collect()
            started = time.perf_counter()
            inputs = workload.setup(seed, directory)
            setups.append(time.perf_counter() - started)
        with PeakMemory() as peak:
            runs = _iterate_for(workload, inputs, workdir, seconds)
        problems = _check_answers(workload, seed, runs)
        after = (workload.after_timing(inputs)
                 if hasattr(workload, "after_timing") else None)
        walls = [wall for _, wall, _ in runs]
        wall, cpu = _fastest_stages(runs)
        metrics = {
            "setup_s": min(setups),
            "wall_s": wall,
            "cpu_s": cpu,
            "items_per_s": runs[0][0].items / wall,
            "peak_rss_mb": peak.mb,
        }
        metrics = {key: {"value": value, "unit": END_TO_END[key]}
                   for key, value in metrics.items()}
        extra_runs = [outcome.extra for outcome, _, _ in runs]
        detail = {key: statistics.median(extra[key] for extra in extra_runs)
                  for key in extra_runs[0]}
        detail["setup_repeats"] = len(setups)
        detail["median_setup_s"] = statistics.median(setups)
        detail["iteration_wall_s"] = walls
        detail["median_wall_s"] = statistics.median(walls)
        detail["median_cpu_s"] = statistics.median(cpu for _, _, cpu in runs)
        detail["iterations"] = len(runs)
        if after is not None:
            # Outside the timed phase: checked and counted, not gated.
            runs = runs + [(after, 0.0, 0.0)]
            problems.extend(after.problems)
            detail["runaway_s"] = after.extra["runaway_s"]
    else:
        metrics, problems, runs, detail = _traced(workload, seed, seconds,
                                                  workdir)
        detail["iterations"] = len(runs)
    attempted = sum(outcome.items for outcome, _, _ in runs)
    failed = sum(outcome.failed for outcome, _, _ in runs)
    if problems and not failed:
        failed = len(problems)
    detail.update(workload=name, seed=seed,
                  error_ratio=failed / attempted if attempted else 0.0,
                  problems=problems[:20])
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"result": result, "detail": detail}


def _traced(workload, seed: int, seconds: float, workdir: Path):
    from perfbench import probes
    from perfbench.tracer import Tracer
    from repro.obs import Observability

    directory = workdir / "setup"
    directory.mkdir()
    inputs = workload.setup(seed, directory)
    tracer = Tracer()
    workload.name_items(tracer, inputs)
    bindings = probes.install(tracer)
    try:
        runs = _iterate_for(workload, inputs, workdir, seconds, tracer)
    finally:
        tracer.restore()
    # The untraced reference runs last, warm like the traced ones, and
    # does the same work: a traced iteration also holds what an untraced
    # run leaves to ``after_timing``.
    base_dir = workdir / "untraced"
    base_dir.mkdir()
    _, untraced_wall, _ = _timed(workload, inputs, base_dir)
    if hasattr(workload, "after_timing"):
        started = time.perf_counter()
        workload.after_timing(inputs)
        untraced_wall += time.perf_counter() - started
    problems = _check_answers(workload, seed, runs)
    values = probes.layer_metrics(tracer, [wall for _, wall, _ in runs],
                                  untraced_wall)
    units = probes.metric_units()
    metrics = {key: {"value": value, "unit": units[key][0]}
               for key, value in values.items()}

    out = OUT_DIR / f"{workload.name}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(out / "spans.jsonl.gz")
    ledger = tracer.ledger()
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1))
    obs = runs[-1][0].obs or Observability()
    report = obs.run_report(meta={"workload": workload.name, "seed": seed})
    (out / "run_report.json").write_text(report.to_json(indent=1))
    (out / "per_layer.json").write_text(json.dumps({
        "metrics": values,
        "wrapper_calls": {label: cell[0] for label, cell
                          in tracer.wrapper_calls.items()},
        "bindings_replaced": bindings,
    }, indent=1, sort_keys=True))
    detail = {"ledger_top": ledger[:5], "trace_dir": str(out)}
    return metrics, problems, runs, detail


def _summary(outcome: dict) -> None:
    detail = outcome["detail"]
    result = outcome["result"]
    print(f"workload {detail['workload']} seed {detail['seed']}: "
          f"{detail['iterations']} iteration(s), "
          f"{result['attempted']} items, {result['failed']} failed, "
          f"correct={result['correct']}")
    for problem in detail["problems"]:
        print(f"  known-answer failure: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for row in detail.get("ledger_top", []):
        print(f"  slow: {row['wall_s']:9.3f} s  {row['layer']:22s} "
              f"{row['item']} sample={row['sample']} {row['digest']}")
    print("detail " + json.dumps(detail, sort_keys=True, default=str))


def run_all(seed: int, seconds: float) -> int:
    """Run each workload in its own process; print one row each."""
    from perfbench.workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "metrics": {}}
        detail = next((json.loads(line[len("detail "):])
                       for line in lines if line.startswith("detail ")), {})
        rows.append((name, result, detail))
    columns = list(END_TO_END) + ["error_ratio", "verdict_p50_ms",
                                  "verdict_tail_ms", "decided_share"]
    units = dict(END_TO_END, error_ratio="ratio", verdict_p50_ms="ms",
                 verdict_tail_ms="ms", decided_share="ratio")
    print("workload  correct  " + "  ".join(
        f"{column}[{units[column]}]" for column in columns))
    ok = True
    for name, result, detail in rows:
        ok = ok and bool(result.get("correct"))
        cells = []
        for column in columns:
            if column in result.get("metrics", {}):
                cells.append(f"{result['metrics'][column]['value']:.4g}")
            elif column in detail:
                cells.append(f"{detail[column]:.4g}")
            else:
                cells.append("-")
        print(f"{name:8s}  {str(result.get('correct')):7s}  "
              + "  ".join(cells))
        if detail.get("verdict_tail_pct") is not None:
            print(f"{'':8s}  verdict_tail is p{detail['verdict_tail_pct']:.0f}"
                  f" of {detail['verdict_tail_n']:.0f} verdicts")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one row each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=str(OUT_DIR / "tmp")))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _summary(outcome)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
