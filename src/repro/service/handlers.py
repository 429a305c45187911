"""Job-type adapters: every existing workload as a queue-drainable job.

Each handler is a thin, *idempotent* function over one of the repo's
one-shot entry points — :func:`repro.dataset.pipeline.build_pyranet`,
:meth:`repro.core.PyraNet.finetune`, :meth:`repro.core.PyraNet.evaluate`
— plus a ``probe`` type whose only work is a seeded digest chain (the
load-generator's measuring stick for pure service overhead).

Idempotency and resumability are structural, not per-handler effort:

* every job owns a private checkpoint directory
  (``<jobs_root>/<job_id>/checkpoint``), so its curation/eval pipeline
  journals batches through :mod:`repro.resilience` and a re-run after
  a worker death *resumes* — replaying committed batches byte-identical
  instead of recomputing them;
* all outputs are deterministic functions of the job parameters (seeded
  corpora, content-addressed store shards, manifest-written-last), so
  even a full re-run lands the same bytes in the same places.

Handlers receive ``(job, ctx, obs)`` where ``obs`` is a *per-execution*
:class:`~repro.obs.Observability` handle — its merged RunReport becomes
the job's ``/jobs/<id>/report`` payload.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from ..obs import Observability
from ..pipeline import ParallelExecutor
from ..resilience import Checkpointer, FaultPlan, Resilience
from .jobs import Job, params_digest, register_job_type

#: Store names are path components; anything else is rejected.
_STORE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass
class JobContext:
    """What every handler may touch: the service's on-disk layout plus
    shared execution machinery.

    Args:
        jobs_root: per-job scratch homes (``<jobs_root>/<job_id>/`` —
            checkpoint journal, any intermediate artifacts).
        stores_root: named sharded stores (``<stores_root>/<name>/``),
            the read side the query/sample endpoints serve.
        fault_plan: deterministic fault schedule injected into every
            job's resilience runtime (drills; ``None`` in production).
        executor: intra-job fan-out for curation/eval stages; ``None``
            runs them serially.
        durable: fsync job checkpoints (matches the queue's setting).
    """

    jobs_root: Path
    stores_root: Path
    fault_plan: Optional[FaultPlan] = None
    executor: Optional[ParallelExecutor] = None
    durable: bool = True

    def job_dir(self, job_id: str) -> Path:
        path = self.jobs_root / job_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def store_dir(self, name: str) -> Path:
        if not _STORE_NAME.match(name or ""):
            raise ValueError(
                f"invalid store name {name!r} (want "
                "[A-Za-z0-9][A-Za-z0-9._-]{0,63})")
        return self.stores_root / name

    def job_resilience(self, job: Job, obs: Observability) -> Resilience:
        """The per-job resilience runtime: a private checkpoint journal
        (what makes a killed job resume byte-identical) plus the
        service-wide fault plan."""
        checkpointer = Checkpointer(self.job_dir(job.job_id) / "checkpoint",
                                    durable=self.durable)
        return Resilience(checkpointer=checkpointer,
                          fault_plan=self.fault_plan, obs=obs)


def dataset_digest(dataset: Any) -> str:
    """One digest over every row of a curated dataset — the cheap
    byte-identity witness job results carry."""
    digest = hashlib.blake2b(digest_size=16)
    for entry in dataset:
        digest.update(repr(sorted(entry.to_dict().items()))
                      .encode("utf-8", "replace"))
    return digest.hexdigest()


# -- the job types ------------------------------------------------------


def run_curate_job(job: Job, ctx: JobContext,
                   obs: Observability) -> Dict[str, Any]:
    """``curate``: synthesize + curate a PyraNet dataset, optionally
    sharding it into a named store.

    Params: ``n_github_files``, ``n_llm_prompts``,
    ``n_queries_per_prompt``, ``dedup_threshold``, ``seed``, and
    ``store`` (a store name to write; omit for curate-and-report-only).
    """
    from ..dataset.pipeline import build_pyranet
    from ..store import write_store

    p = job.params
    seed = int(p.get("seed", 0))
    outcome = build_pyranet(
        n_github_files=int(p.get("n_github_files", 120)),
        n_llm_prompts=int(p.get("n_llm_prompts", 4)),
        n_queries_per_prompt=int(p.get("n_queries_per_prompt", 4)),
        seed=seed,
        dedup_threshold=float(p.get("dedup_threshold", 0.8)),
        keep_variants=bool(p.get("keep_variants", False)),
        executor=ctx.executor,
        obs=obs,
        resilience=ctx.job_resilience(job, obs),
    )
    dataset = outcome.dataset
    summary: Dict[str, Any] = {
        "n_entries": len(dataset),
        "layers": {str(layer): count for layer, count
                   in sorted(dataset.layer_sizes().items())},
        "dataset_digest": dataset_digest(dataset),
    }
    family_report = outcome.report.families
    if family_report is not None:
        summary["families"] = {
            "n_families": family_report.n_families,
            "n_variants": family_report.n_variants,
        }
    store = p.get("store")
    if store:
        manifest = write_store(
            dataset, ctx.store_dir(store),
            meta={"seed": seed, "job_id": job.job_id,
                  "source": "service.curate"},
            obs=obs)
        summary["store"] = store
        summary["n_shards"] = len(manifest.shards)
        summary["manifest_digest"] = hashlib.blake2b(
            manifest.to_json(indent=2).encode("utf-8"),
            digest_size=16).hexdigest()
    return summary


def _facade(job: Job, ctx: JobContext, obs: Observability):
    from ..core import PyraNet

    p = job.params
    return PyraNet(
        seed=int(p.get("seed", 0)),
        n_samples=int(p.get("n_samples", 4)),
        n_test_vectors=int(p.get("n_test_vectors", 12)),
        executor=ctx.executor,
        obs=obs,
        resilience=ctx.job_resilience(job, obs),
    )


def _store_service(name: str, ctx: JobContext, obs: Observability, seed: int):
    from ..core import PyraNet

    return PyraNet.load_store(ctx.store_dir(name), seed=seed, obs=obs)


def run_finetune_job(job: Job, ctx: JobContext,
                     obs: Observability) -> Dict[str, Any]:
    """``finetune``: train a recipe over a named store.

    Params: ``store`` (required), ``profile``, ``recipe``, ``epochs``,
    ``seed``.  Models are in-memory stand-ins, so the result is the
    training summary, not a weights artifact.
    """
    from ..model.generator import CODELLAMA_7B

    p = job.params
    store = p.get("store")
    if not store:
        raise ValueError("finetune job needs params['store']")
    pn = _facade(job, ctx, obs)
    source = _store_service(store, ctx, obs, seed=int(p.get("seed", 0)))
    profile = p.get("profile", CODELLAMA_7B.name)
    recipe = p.get("recipe", "architecture")
    pn.finetune(profile, recipe=recipe, dataset=source,
                epochs=int(p.get("epochs", 1)))
    return {
        "profile": profile,
        "recipe": recipe,
        "epochs": int(p.get("epochs", 1)),
        "store": store,
        "n_entries": len(source),
        "layers_trained": source.trainable_layers(),
    }


def run_eval_job(job: Job, ctx: JobContext,
                 obs: Observability) -> Dict[str, Any]:
    """``eval``: the VerilogEval-style loop over a suite.

    Params: ``suite`` (``machine``/``human``), ``profile``, ``recipe``
    (``baseline`` needs no dataset; any other recipe requires
    ``store``), ``n_problems``, ``n_samples``, ``seed``, and
    ``repair_budget`` — nonzero runs the repair-retry scenario
    (:func:`repro.eval.repair_eval.evaluate_with_repair`) and the
    summary gains the fix-rate curve.  The payload is resolved into
    one :class:`~repro.eval.EvalConfig` (echoed under ``config``);
    ``repair_budget=0`` results are byte-identical to the pre-config
    route.
    """
    import json

    from ..model.generator import CODELLAMA_7B

    p = job.params
    pn = _facade(job, ctx, obs)
    profile = p.get("profile", CODELLAMA_7B.name)
    recipe = p.get("recipe", "baseline")
    if recipe == "baseline":
        model = pn.base_model(profile)
    else:
        store = p.get("store")
        if not store:
            raise ValueError(
                f"eval job with recipe {recipe!r} needs params['store']")
        source = _store_service(store, ctx, obs,
                                seed=int(p.get("seed", 0)))
        model = pn.finetune(profile, recipe=recipe, dataset=source)
    n_problems = p.get("n_problems")
    budget = int(p.get("repair_budget", 0))
    config = pn.eval_config(model_name=f"{profile}:{recipe}",
                            repair_budget=budget)
    if budget > 0:
        report = pn.evaluate_repair(
            model, suite=p.get("suite", "machine"),
            repair_budget=budget,
            n_problems=(int(n_problems) if n_problems is not None
                        else None),
            model_name=config.model_name)
        results = [result.to_dict() for result in report.results]
    else:
        report = pn.evaluate(
            model, suite=p.get("suite", "machine"),
            n_problems=(int(n_problems) if n_problems is not None
                        else None),
            model_name=config.model_name)
        results = [result.to_dict() for result in report.results]
    # Digest over the deterministic core (per-problem outcomes), not
    # the trace (wall times) — the byte-identity witness for resumes.
    report_digest = hashlib.blake2b(
        json.dumps(results, sort_keys=True).encode("utf-8"),
        digest_size=16).hexdigest()
    summary = {
        "suite": report.suite,
        "model": report.model_name,
        "summary": report.summary((1, 5, 10)),
        "n_problems": len(results),
        "results": results,
        "report_digest": report_digest,
    }
    if budget > 0:
        summary["config"] = config.to_dict()
        summary["repair_budget"] = budget
        summary["fix_rate_curve"] = [
            round(rate, 4) for rate in report.fix_rate_curve()]
    return summary


def run_probe_job(job: Job, ctx: JobContext,
                  obs: Observability) -> Dict[str, Any]:
    """``probe``: a no-I/O digest chain — the benchmark's unit of pure
    service overhead.  Params: ``spin`` (chain length), anything else
    is folded into the digest."""
    p = job.params
    spin = max(0, int(p.get("spin", 0)))
    digest = params_digest(p).encode("ascii")
    for _ in range(spin):
        digest = hashlib.blake2b(digest, digest_size=16).hexdigest() \
            .encode("ascii")
    obs.counter("service.probe.spins").inc(spin)
    return {"digest": digest.decode("ascii"), "spin": spin}


def run_repair_job(job: Job, ctx: JobContext,
                   obs: Observability) -> Dict[str, Any]:
    """``repair``: manufacture repair-trajectory training data.

    Runs the :mod:`repro.repairloop` over mutated synthetic designs
    (:func:`repro.corpus.repair_trajectories`), streams the fixed
    broken→fixed pairs through curation, and —
    with a ``store`` param — lands them in a named sharded store whose
    facets carry the ``repair`` origin.

    Params: ``n_candidates``, ``seed``, ``budget``,
    ``n_test_vectors``, ``functional_fraction``, ``dedup_threshold``,
    and ``store`` (omit for run-and-report-only).
    """
    from ..corpus.repair_source import repair_trajectories
    from ..dataset.streaming import CurationPipeline

    p = job.params
    seed = int(p.get("seed", 0))
    trajectories = repair_trajectories(
        n_candidates=int(p.get("n_candidates", 32)),
        seed=seed,
        budget=int(p.get("budget", 2)),
        n_test_vectors=int(p.get("n_test_vectors", 8)),
        functional_fraction=float(p.get("functional_fraction", 0.25)),
        executor=ctx.executor,
        obs=obs,
        resilience=Resilience(
            checkpointer=Checkpointer(
                ctx.job_dir(job.job_id) / "repair-checkpoint",
                durable=ctx.durable),
            fault_plan=ctx.fault_plan, obs=obs),
    )
    summary: Dict[str, Any] = trajectories.summary()
    pipeline = CurationPipeline(
        dedup_threshold=float(p.get("dedup_threshold", 0.8)),
        seed=seed, executor=ctx.executor, obs=obs,
        resilience=ctx.job_resilience(job, obs))
    token = f"repair:{job.job_id}:{params_digest(p)}"
    store = p.get("store")
    if store:
        outcome = pipeline.curate_to_store(
            iter([trajectories.records] if trajectories.records else []),
            ctx.store_dir(store), source_token=token,
            store_meta={"seed": seed, "job_id": job.job_id,
                        "source": "service.repair"})
        facets = outcome.manifest.facets()
        summary["store"] = store
        summary["n_entries"] = facets["n_entries"]
        summary["origins"] = facets["origins"]
        summary["n_shards"] = len(outcome.manifest.shards)
    else:
        result = pipeline.run_stream(
            iter([trajectories.records] if trajectories.records else []),
            source_token=token)
        summary["n_entries"] = len(result.dataset)
        summary["dataset_digest"] = dataset_digest(result.dataset)
    return summary


def run_formal_job(job: Job, ctx: JobContext,
                   obs: Observability) -> Dict[str, Any]:
    """``formal``: (re)compute the verified tier over a named store.

    Streams the store through batched reads, runs the bounded formal
    check on every clean 20/20 row (the only rows the tier admits),
    and rewrites the store with the verdicts persisted — shard facets
    and the manifest's ``verified`` facet update with it.  The job is
    one front-end memo scope whose design tier sits on a job-local
    :class:`~repro.pipeline.diskcache.DiskCache` keyed by source digest,
    so a resumed or repeated job re-elaborates nothing (the
    ``verilog.frontend.design.hit``/``miss`` counters are exact).

    Params: ``store`` (required), ``bound`` (cycles for sequential
    designs), ``batch_size`` (rows per batched read).
    """
    from ..pipeline import ResultCache
    from ..pipeline.diskcache import DiskCache
    from ..store import StoreReader, write_store
    from ..verilog.formal import verify_design
    from ..verilog.frontend import FrontEndMemo

    p = job.params
    store = p.get("store")
    if not store:
        raise ValueError("formal job needs params['store']")
    bound = int(p.get("bound", 2))
    batch_size = int(p.get("batch_size", 256))
    store_dir = ctx.store_dir(store)
    reader = StoreReader(store_dir, cache=ResultCache(), obs=obs)
    manifest = reader.manifest
    disk = DiskCache(ctx.job_dir(job.job_id) / "elab-cache", obs=obs)
    memo = FrontEndMemo(disk=disk)
    stats = {"n_entries": 0, "n_checked": 0, "n_verified": 0}

    def verified_entries():
        for batch in reader.iter_batches(size=batch_size):
            for entry in batch:
                stats["n_entries"] += 1
                if entry.ranking == 20 and entry.compile_status.value \
                        == "clean":
                    stats["n_checked"] += 1
                    try:
                        design = memo.elaborate(entry.code)
                        report = verify_design(design, bound=bound)
                        verdict = report.status == "verified"
                        detail = (report.detail if verdict else
                                  f"{report.status}: {report.detail}")
                    except Exception as exc:
                        verdict = False
                        detail = f"error: {type(exc).__name__}: {exc}"
                    entry.verified = verdict
                    entry.verified_detail = detail
                    if verdict:
                        stats["n_verified"] += 1
                else:
                    entry.verified = False
                    entry.verified_detail = ""
                yield entry

    meta = dict(manifest.meta or {})
    meta.update({"job_id": job.job_id, "source": "service.formal"})
    with memo.scope(obs):
        new_manifest = write_store(verified_entries(), store_dir,
                                   meta=meta, obs=obs)
    hits, misses = memo.stats()["design"]
    obs.counter("service.formal.checked").inc(stats["n_checked"])
    obs.counter("service.formal.verified").inc(stats["n_verified"])
    return {
        "store": store,
        "bound": bound,
        "n_entries": stats["n_entries"],
        "n_checked": stats["n_checked"],
        "n_verified": stats["n_verified"],
        "memo": {"hits": hits, "misses": misses},
        "verified_facet": new_manifest.verified_summary(),
        "n_shards": len(new_manifest.shards),
        "manifest_digest": hashlib.blake2b(
            new_manifest.to_json(indent=2).encode("utf-8"),
            digest_size=16).hexdigest(),
    }


# -- registration -------------------------------------------------------


_COMMON_SCHEMA = {
    "seed": {"type": "int", "doc": "master seed"},
}

register_job_type("curate", run_curate_job, payload_schema={
    **_COMMON_SCHEMA,
    "n_github_files": {"type": "int"},
    "n_llm_prompts": {"type": "int"},
    "n_queries_per_prompt": {"type": "int"},
    "dedup_threshold": {"type": "float"},
    "keep_variants": {"type": "bool",
                      "doc": "keep near-duplicates as family-tagged rows"},
    "store": {"type": "str", "doc": "store name to shard into"},
})
register_job_type("finetune", run_finetune_job, payload_schema={
    **_COMMON_SCHEMA,
    "store": {"type": "str", "required": True},
    "profile": {"type": "str"},
    "recipe": {"type": "str"},
    "epochs": {"type": "int"},
})
register_job_type("eval", run_eval_job, payload_schema={
    **_COMMON_SCHEMA,
    "suite": {"type": "str"},
    "profile": {"type": "str"},
    "recipe": {"type": "str"},
    "store": {"type": "str"},
    "n_problems": {"type": "int"},
    "n_samples": {"type": "int"},
    "n_test_vectors": {"type": "int"},
    "repair_budget": {"type": "int",
                      "doc": "repair retries per failed sample"},
})
register_job_type("probe", run_probe_job, payload_schema={
    "spin": {"type": "int", "doc": "digest-chain length"},
})
register_job_type("formal", run_formal_job, payload_schema={
    **_COMMON_SCHEMA,
    "store": {"type": "str", "required": True,
              "doc": "store whose verified tier to (re)compute"},
    "bound": {"type": "int", "doc": "cycles checked for sequential designs"},
    "batch_size": {"type": "int", "doc": "rows per batched store read"},
})
register_job_type("repair", run_repair_job, payload_schema={
    **_COMMON_SCHEMA,
    "n_candidates": {"type": "int"},
    "budget": {"type": "int", "doc": "repair iterations per candidate"},
    "n_test_vectors": {"type": "int"},
    "functional_fraction": {"type": "float"},
    "dedup_threshold": {"type": "float"},
    "store": {"type": "str", "doc": "store name to shard into"},
})
