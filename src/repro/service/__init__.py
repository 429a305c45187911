"""``repro.service``: PyraNet as a long-running job service.

An API server + persistent job queue + worker pool that turns every
one-shot workload — curation, fine-tuning, evaluation — into a job
type submitted over HTTP and drained by resumable, idempotent workers:

* :class:`JobQueue` — an event-sourced FIFO journaled through
  :class:`repro.resilience.Checkpointer` (atomic digest-verified
  entries; reopening a queue directory re-queues jobs a dead worker
  left running);
* :mod:`~repro.service.handlers` — thin adapters over
  ``build_pyranet`` / ``PyraNet.finetune`` / ``PyraNet.evaluate``;
  every job owns a checkpoint journal, so a killed worker's job
  *resumes* byte-identical;
* :class:`WorkerPool` — drains the queue through
  :class:`~repro.pipeline.ParallelExecutor` under a
  :class:`~repro.resilience.StageShield`: a poisoned job is
  quarantined into the dead-letter ledger, never the pool's problem;
* :class:`PyraNetService` — the composition root (queue + workers +
  named stores on one directory) whose methods *are* the endpoints;
* :mod:`~repro.service.http` / :class:`ServiceClient` — the stdlib
  HTTP codec over it, with per-request spans and latency histograms.

See ``examples/serve.py`` for the runnable quickstart.
"""

from .core import PyraNetService, UnknownJobError, UnknownStoreError
from .client import ServiceClient, ServiceError
from .handlers import (
    JobContext,
    dataset_digest,
    register_handler,
)
from .http import ServiceHTTPServer, serve, serve_in_thread
from .jobs import (
    Job,
    JobType,
    get_job_type,
    job_id_for,
    job_type_names,
    params_digest,
    register_job_type,
    unregister_job_type,
    validate_payload,
)
from .queue import JobQueue, QUEUE_SIGNATURE
from .workers import WorkerPool, default_resilience

__all__ = [
    "Job",
    "JobContext",
    "JobQueue",
    "JobType",
    "PyraNetService",
    "QUEUE_SIGNATURE",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "UnknownJobError",
    "UnknownStoreError",
    "WorkerPool",
    "dataset_digest",
    "default_resilience",
    "get_job_type",
    "job_id_for",
    "job_type_names",
    "params_digest",
    "register_handler",
    "register_job_type",
    "serve",
    "serve_in_thread",
    "unregister_job_type",
    "validate_payload",
]
