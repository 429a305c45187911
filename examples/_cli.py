"""Shared command-line conventions for the example scripts.

Every ``examples/*.py`` accepts the same flags:

``--seed N``
    master seed for whatever the script randomises;
``--report-json PATH``
    write the script's machine-readable result (a
    :class:`repro.obs.Reportable` document where one exists, a plain
    JSON summary otherwise);
``--trace-json PATH``
    write the run's merged :class:`repro.obs.RunReport` — spans,
    counters, histograms — as one schema-versioned JSON artifact;
``--parallel``
    run fan-out-capable stages on a thread pool;
``--workers N``
    fan stage work out over an N-process pool instead (default:
    in-process serial);
``--store-dir PATH``
    write/read the sharded dataset store where the script has one
    (scripts with nothing to store say so and continue);
``--families``
    write the curation run's design-family report as ``families.json``
    next to the store (or the working directory without ``--store-dir``;
    scripts that run no curation say so and continue);
``--cache-dir PATH``
    persist content-addressed stage results (syntax checks, rankings,
    simulation outcomes) under PATH, so re-running the script over an
    unchanged corpus serves them from disk instead of recomputing
    (scripts with no cached stages say so and continue);
``--resume RUN_ID``
    journal pipeline progress under ``.pyranet-runs/RUN_ID`` and, when
    a journal already exists there, resume the killed run
    byte-identically instead of starting over;
``--fault-plan PATH``
    load a :class:`repro.resilience.FaultPlan` JSON schedule and inject
    it into the run (resilience drills: transient faults, delays,
    simulated crashes).

Service scripts (``serve.py``) additionally take the flags added by
:func:`add_service_flags` — ``--port`` (0 = OS-assigned) and
``--queue-dir`` (the persistent service root; reopening it resumes the
same queue), with ``--workers`` doubling as the worker-pool width.

Keeping the surface identical means any example can be diffed against
any other run with the same tooling:

    python examples/quickstart.py --seed 7 --trace-json run.json
"""

import argparse
import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs import Observability
from repro.pipeline import DiskCache, ParallelExecutor, ResultCache
from repro.resilience import Checkpointer, FaultPlan, Resilience


def build_parser(description: str,
                 default_seed: int = 0) -> argparse.ArgumentParser:
    """The shared parser: the same flag set on every example."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--seed", type=int, default=default_seed, metavar="N",
        help=f"master seed (default {default_seed})")
    parser.add_argument(
        "--report-json", metavar="PATH", default=None,
        help="write the script's machine-readable result as JSON")
    parser.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="write the merged run report (spans + metrics) as JSON")
    parser.add_argument(
        "--parallel", action="store_true",
        help="run fan-out-capable stages on a thread pool")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan stage work out over an N-process pool")
    parser.add_argument(
        "--store-dir", metavar="PATH", default=None,
        help="write/read the sharded dataset store at PATH")
    parser.add_argument(
        "--families", action="store_true",
        help="write the design-family report (families.json) next to "
             "the store (scripts without a curation run say so and "
             "continue)")
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persist content-addressed stage results under PATH; "
             "re-runs over an unchanged corpus skip recomputation")
    parser.add_argument(
        "--resume", metavar="RUN_ID", default=None,
        help="journal progress under .pyranet-runs/RUN_ID and resume "
             "a killed run from its checkpoint journal")
    parser.add_argument(
        "--fault-plan", metavar="PATH", default=None,
        help="inject the FaultPlan JSON schedule at PATH into the run")
    return parser


def add_service_flags(parser: argparse.ArgumentParser,
                      default_port: int = 8642) -> argparse.ArgumentParser:
    """The extra flags a long-running service script needs on top of
    :func:`build_parser` (which already provides ``--workers``)."""
    parser.add_argument(
        "--port", type=int, default=default_port, metavar="N",
        help=f"HTTP listen port; 0 = OS-assigned (default "
             f"{default_port})")
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="HTTP listen address (default 127.0.0.1)")
    parser.add_argument(
        "--queue-dir", metavar="PATH", default=".pyranet-service",
        help="service root: queue journal, per-job checkpoints and "
             "named stores live here; reopening it resumes the same "
             "queue (default .pyranet-service)")
    return parser


def executor_from(args: argparse.Namespace) -> Optional[ParallelExecutor]:
    """A process pool under ``--workers N`` (N > 1), a thread pool
    under ``--parallel``, else None (caller default)."""
    workers = getattr(args, "workers", None)
    if workers is not None and workers > 1:
        return ParallelExecutor(mode="process", max_workers=workers)
    return ParallelExecutor(mode="thread") if args.parallel else None


def resilience_from(args: argparse.Namespace,
                    obs: Optional[Observability] = None,
                    ) -> Optional[Resilience]:
    """A :class:`Resilience` runtime when ``--resume`` or
    ``--fault-plan`` ask for one, else None (resilience off — the
    pipeline takes its single no-op path)."""
    checkpointer = None
    if args.resume:
        checkpointer = Checkpointer(
            Path(".pyranet-runs") / args.resume)
    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.from_json(
            Path(args.fault_plan).read_text(encoding="utf-8"))
    if checkpointer is None and fault_plan is None:
        return None
    return Resilience(checkpointer=checkpointer, fault_plan=fault_plan,
                      obs=obs)


def cache_from(args: argparse.Namespace, obs: Observability,
               name: str = "curation") -> Optional[ResultCache]:
    """A :class:`ResultCache` with a persistent disk tier under
    ``--cache-dir`` (namespaced per cache name so curation and eval
    entries never share a directory), else None (caller default)."""
    if not args.cache_dir:
        return None
    return ResultCache(
        name=name, registry=obs.registry,
        disk=DiskCache(Path(args.cache_dir) / name, obs=obs))


def observability_from(args: argparse.Namespace) -> Observability:
    """A live handle when ``--trace-json`` asks for telemetry, the
    shared no-op otherwise — so un-traced runs pay nothing."""
    return Observability() if args.trace_json else Observability.noop()


def write_json(path: str, payload: Dict[str, Any],
               label: str = "report") -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {label} to {path}")


def write_report(args: argparse.Namespace, payload: Any) -> None:
    """Honour ``--report-json``: a Reportable's ``to_dict()`` or any
    JSON-able mapping."""
    if not args.report_json:
        return
    if hasattr(payload, "to_dict"):
        payload = payload.to_dict()
    write_json(args.report_json, payload)


def write_trace(args: argparse.Namespace, obs: Observability,
                **meta: Any) -> None:
    """Honour ``--trace-json``: one merged RunReport artifact."""
    if not args.trace_json:
        return
    report = obs.run_report(meta={"seed": args.seed, **meta})
    Path(args.trace_json).write_text(report.to_json(indent=2) + "\n",
                                     encoding="utf-8")
    print(f"wrote run trace to {args.trace_json} "
          f"({len(report.spans)} spans)")


def note_unused_store(args: argparse.Namespace) -> None:
    """For scripts with no dataset to shard: acknowledge the flag."""
    if args.store_dir:
        print(f"(--store-dir {args.store_dir}: this example has no "
              "dataset store to write; ignored)")


def note_unused_cache(args: argparse.Namespace) -> None:
    """For scripts with no cached stages: acknowledge the flag."""
    if args.cache_dir:
        print(f"(--cache-dir {args.cache_dir}: this example has no "
              "cached stages to persist; ignored)")


def note_unused_families(args: argparse.Namespace) -> None:
    """For scripts with no curation run: acknowledge the flag."""
    if getattr(args, "families", False):
        print("(--families: this example runs no curation, so there is "
              "no family report to write; ignored)")
