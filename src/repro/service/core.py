"""The service composition root: queue + workers + stores on one dir.

:class:`PyraNetService` owns the on-disk layout::

    <root>/
      queue/        the persistent job journal (JobQueue)
      jobs/<id>/    per-job scratch: checkpoint journal, artifacts
      stores/<n>/   named sharded dataset stores (the read side)

and exposes every endpoint as a plain-dict method — the HTTP layer
(:mod:`~repro.service.http`) is just a JSON codec over this object, so
tests and embedded callers drive the service without sockets.

The failure model, end to end: submissions are exactly-once per
idempotency key (queue-level), executions are at-least-once with
byte-identical resumes (per-job checkpoints + content-addressed
outputs), and a job that keeps failing lands in the dead-letter ledger
without stalling its neighbours (worker-pool shield).
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..obs import Observability
from ..pipeline import ParallelExecutor, ResultCache
from ..resilience import Resilience
from ..store import SamplingService, StoreManifest, StoreReader
from ..store.manifest import MANIFEST_NAME
from .handlers import JobContext
from .jobs import get_job_type, job_type_names, validate_payload
from .jobs import Job
from .queue import JobQueue
from .workers import WorkerPool, default_resilience

PathLike = Union[str, Path]


class UnknownJobError(KeyError):
    """404: no such job."""


class UnknownStoreError(KeyError):
    """404: no such store."""


class PyraNetService:
    """One long-running curation/finetune/eval service instance.

    Args:
        root: service home directory (created if missing); reopening
            the same root resumes the same queue — killed workers'
            jobs are re-queued and resume from their checkpoints.
        n_workers: worker pool width.
        obs: observability handle; a live one by default so ``/healthz``
            and ``/report`` always have metrics to serve.
        resilience: job-guard runtime; defaults to
            :func:`~repro.service.workers.default_resilience` (retry +
            quarantine, no breakers).  Attach a
            :class:`~repro.resilience.FaultPlan` here to run drills —
            it is injected into every job's pipeline.
        executor: intra-job fan-out for curation/eval stages.
        durable: fsync queue and checkpoint journal writes.
        poll_interval: worker idle poll.
        max_recoveries: crash re-queues per job before dead-lettering.
    """

    def __init__(self, root: PathLike, n_workers: int = 2,
                 obs: Optional[Observability] = None,
                 resilience: Optional[Resilience] = None,
                 executor: Optional[ParallelExecutor] = None,
                 durable: bool = True,
                 poll_interval: float = 0.02,
                 max_recoveries: int = 3) -> None:
        self.root = Path(root)
        self.obs = obs if obs is not None else Observability()
        self.resilience = (resilience if resilience is not None
                           else default_resilience(self.obs))
        if self.resilience.obs is None:
            self.resilience.obs = self.obs
        self.queue = JobQueue(self.root / "queue", obs=self.obs,
                              durable=durable,
                              max_recoveries=max_recoveries)
        self.context = JobContext(
            jobs_root=self.root / "jobs",
            stores_root=self.root / "stores",
            fault_plan=self.resilience.fault_plan,
            executor=executor,
            durable=durable,
        )
        self.pool = WorkerPool(self.queue, self.context,
                               n_workers=n_workers,
                               resilience=self.resilience, obs=self.obs,
                               poll_interval=poll_interval)
        self._started = time.monotonic()
        #: store name -> (manifest mtime, SamplingService); re-opened
        #: when a curate job rewrites the manifest.
        self._readers: Dict[str, Any] = {}

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self.pool.start()

    def stop(self, drain_queue: bool = False,
             reason: str = "graceful") -> None:
        """Graceful shutdown: in-flight jobs finish (optionally the
        whole queue drains), then the exit is journaled."""
        self.pool.stop(drain_queue=drain_queue)
        self.queue.journal_shutdown(reason)

    # -- job endpoints --------------------------------------------------

    def submit(self, job_type: str,
               params: Optional[Dict[str, Any]] = None,
               idempotency_key: Optional[str] = None) -> Dict[str, Any]:
        """``POST /jobs``: enqueue (or dedupe onto) a job."""
        if get_job_type(job_type) is None:
            raise ValueError(f"unknown job type {job_type!r}; known: "
                             f"{job_type_names()}")
        validate_payload(job_type, params or {})
        job, created = self.queue.submit(job_type, params,
                                         idempotency_key=idempotency_key)
        return {"job_id": job.job_id, "created": created,
                "status": job.status}

    def jobs(self) -> List[Dict[str, Any]]:
        """``GET /jobs``: every job, submission order, compact rows."""
        return [job.summary() for job in self.queue.jobs()]

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/<id>``: full record minus the run report."""
        found = self._job(job_id)
        data = found.to_dict()
        data.pop("report", None)
        return data

    def job_report(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/<id>/report``: the job's own merged RunReport
        plus its dead-letter marker and the service resilience view."""
        found = self._job(job_id)
        return {
            "job_id": found.job_id,
            "type": found.type,
            "status": found.status,
            "attempts": found.attempts,
            "recovered": found.recovered,
            "error": found.error,
            "quarantine": dict(found.quarantine),
            "result": dict(found.result),
            "report": dict(found.report),
            "resilience": self.resilience.summary(),
            "dead_letter_total": len(self.resilience.dead_letter),
        }

    # -- health / telemetry ---------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``: liveness + the load-bearing metrics,
        straight from the service registry."""
        registry = self.obs.registry
        return {
            "status": "ok",
            "run_id": self.obs.run_id,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "workers": self.pool.n_workers,
            "workers_running": self.pool.running,
            "queue": self.queue.counts(),
            "depth": self.queue.depth(),
            "metrics": {
                name: registry.counter(name).value
                for name in ("service.jobs.submitted",
                             "service.jobs.deduped",
                             "service.jobs.claimed",
                             "service.jobs.finished",
                             "service.jobs.failed",
                             "service.jobs.recovered",
                             "service.http.requests")
            },
        }

    def run_report(self) -> Dict[str, Any]:
        """``GET /report``: the service's merged RunReport document."""
        return self.obs.run_report(meta={
            "service_root": str(self.root),
            "workers": self.pool.n_workers,
        }).to_dict()

    # -- store endpoints ------------------------------------------------

    def stores(self) -> List[Dict[str, Any]]:
        """``GET /stores``: every named store with its totals."""
        rows = []
        root = self.context.stores_root
        if root.is_dir():
            for path in sorted(root.iterdir()):
                if not (path / MANIFEST_NAME).exists():
                    continue
                manifest = StoreManifest.load(path)
                rows.append({"name": path.name,
                             "n_entries": manifest.n_entries,
                             "n_shards": len(manifest.shards),
                             "total_bytes": manifest.total_bytes})
        return rows

    def facets(self, store: str) -> Dict[str, Any]:
        """``GET /stores/<name>/facets``: the (layer, complexity)
        histogram from the manifest alone — no shard reads."""
        return self._manifest(store).facets()

    def sample(self, store: str, n: int = 8,
               layer: Optional[int] = None,
               batch_size: int = 64) -> Dict[str, Any]:
        """``GET /stores/<name>/sample``: up to ``n`` rows streamed off
        the shards (store order; only covering shards are opened)."""
        service = self._sampling(store)
        rows: List[Dict[str, Any]] = []
        for batch in service.stream_batches(batch_size=batch_size,
                                            layer=layer):
            for entry in batch:
                rows.append(entry.to_dict())
                if len(rows) >= n:
                    break
            if len(rows) >= n:
                break
        return {"store": store, "layer": layer, "n": len(rows),
                "rows": rows}

    # -- internals ------------------------------------------------------

    def _job(self, job_id: str) -> Job:
        found = self.queue.get(job_id)
        if found is None:
            raise UnknownJobError(job_id)
        return found

    def _store_dir(self, store: str) -> Path:
        path = self.context.store_dir(store)
        if not (path / MANIFEST_NAME).exists():
            raise UnknownStoreError(store)
        return path

    def _manifest(self, store: str) -> StoreManifest:
        return StoreManifest.load(self._store_dir(store))

    def _sampling(self, store: str) -> SamplingService:
        """A cached reader per store, re-opened when the manifest
        changes (a curate job rewriting the store invalidates it).

        Keyed on the manifest *content* digest, not mtime: an atomic
        replace can preserve mtime (os.replace + utime, or a rewrite
        within filesystem timestamp resolution), which would pin a
        stale reader forever."""
        path = self._store_dir(store)
        manifest_bytes = (path / MANIFEST_NAME).read_bytes()
        digest = hashlib.blake2b(manifest_bytes, digest_size=16).hexdigest()
        cached = self._readers.get(store)
        if cached is not None and cached[0] == digest:
            return cached[1]
        reader = StoreReader(path, cache=ResultCache(), obs=self.obs)
        service = SamplingService(reader)
        self._readers[store] = (digest, service)
        return service
