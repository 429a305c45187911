"""The worker pool: drains the queue, survives its jobs.

Execution goes through the same machinery stage records use — each
handler call is wrapped by a :class:`repro.resilience.StageShield`, so
a job that raises is retried under the pool's policy and, exhausted,
comes back as a :class:`~repro.resilience.Quarantined` marker instead
of an exception.  The marker fails *that job* into the dead-letter
ledger (surfaced by ``/jobs/<id>/report``) and the pool keeps draining
— one poisoned job never takes the pool down.

The one thing allowed to kill a worker is
:class:`~repro.resilience.SimulatedCrash` (a ``BaseException``, the
fault-injection model of ``kill -9``): it tears through the shield and
the worker loop by design, leaving the job ``running`` in the journal.
The next queue open re-queues it, and the job's own checkpoint journal
makes the re-run resume byte-identical.

Two draining modes:

* :meth:`WorkerPool.run_pending` — synchronous batch drain through
  :meth:`ParallelExecutor.map`, wrapped and settled by the shield
  (tests, embedded callers);
* :meth:`WorkerPool.start` / :meth:`WorkerPool.stop` — long-running
  named worker threads for the HTTP service; ``stop()`` is graceful,
  letting each worker finish its in-flight job before exiting.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from ..obs import Observability, resolve
from ..pipeline import ParallelExecutor
from ..resilience import Resilience
from ..resilience.retry import RetryPolicy
from ..resilience.runtime import Quarantined
from .handlers import JobContext
from .jobs import Job, get_job_type, job_type_names
from .queue import JobQueue

#: Default job-level retry: one retry for transient failures, no
#: backoff theatrics — a job re-run is expensive, and resumable jobs
#: replay their checkpoints anyway.
DEFAULT_JOB_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.01,
                                max_delay_s=0.1)

#: Shield site jobs execute under (dead-letter entries key on it).
JOB_SITE = "service.job"


def default_resilience(obs: Optional[Observability] = None) -> Resilience:
    """The pool's default runtime: job-level retry + quarantine, no
    circuit breakers (jobs are heterogeneous; one bad job type must not
    open a breaker over the whole pool)."""
    return Resilience(retry=DEFAULT_JOB_RETRY, breaker=None, obs=obs)


class WorkerPool:
    """N workers draining one :class:`JobQueue`.

    Args:
        queue: the shared persistent queue.
        context: on-disk layout + fault plan handed to every handler.
        n_workers: worker thread count (and the batch width of
            :meth:`run_pending`).
        resilience: job-level guard policy; defaults to
            :func:`default_resilience`.
        obs: service-level observability (worker gauges, job spans).
        poll_interval: idle sleep between queue polls in thread mode.
    """

    def __init__(self, queue: JobQueue, context: JobContext,
                 n_workers: int = 2,
                 resilience: Optional[Resilience] = None,
                 obs: Optional[Observability] = None,
                 poll_interval: float = 0.05) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.queue = queue
        self.context = context
        self.n_workers = n_workers
        self.obs = resolve(obs)
        self.resilience = (resilience if resilience is not None
                           else default_resilience(self.obs))
        self.poll_interval = poll_interval
        self.executor = ParallelExecutor(mode="thread",
                                         max_workers=n_workers)
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._drain_queue = False

    # -- synchronous drain ----------------------------------------------

    def run_pending(self, max_jobs: Optional[int] = None) -> int:
        """Drain queued jobs now; returns how many were executed.

        Claims up to ``n_workers`` jobs at a time and maps the batch
        through the executor behind the shield — quarantined
        jobs are failed into the queue, the rest committed, and the
        next batch claimed, until the queue is empty (or ``max_jobs``
        is reached).
        """
        executed = 0
        while max_jobs is None or executed < max_jobs:
            batch: List[Job] = []
            limit = self.n_workers
            if max_jobs is not None:
                limit = min(limit, max_jobs - executed)
            while len(batch) < limit:
                job = self.queue.claim(worker="run_pending")
                if job is None:
                    break
                batch.append(job)
            if not batch:
                break
            shield = self.resilience.shield(JOB_SITE, mode="thread")
            if shield is None:
                outcomes = self.executor.map(self._run_handler, batch)
            else:
                outcomes = shield.settle(self.executor.map(
                    shield.wrap(self._run_handler), batch))
            for job, outcome in zip(batch, outcomes):
                self._commit(job, outcome)
            executed += len(batch)
        return executed

    # -- long-running workers -------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        self.obs.gauge("service.workers").set(self.n_workers)
        for index in range(self.n_workers):
            thread = threading.Thread(
                target=self._loop, args=(f"worker-{index}",),
                name=f"pyranet-worker-{index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, drain_queue: bool = False,
             timeout: Optional[float] = None) -> None:
        """Graceful shutdown: every worker finishes its in-flight job
        (and, with ``drain_queue=True``, keeps claiming until the queue
        is empty) before exiting."""
        self._drain_queue = drain_queue
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        self.obs.gauge("service.workers").set(0)

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def _loop(self, name: str) -> None:
        shield = self.resilience.shield(JOB_SITE, mode="thread")
        while True:
            job = self.queue.claim(worker=name)
            if job is None:
                if self._stop.is_set():
                    return
                time.sleep(self.poll_interval)
                continue
            self._execute_one(job, shield)
            if self._stop.is_set() and not self._drain_queue:
                return

    def _execute_one(self, job: Job, shield: Any) -> None:
        """One job through the shield (the thread-mode path).  A
        SimulatedCrash tears straight through — that is the point."""
        if shield is None:
            try:
                outcome: Any = self._run_handler(job)
            except Exception as exc:
                self.queue.fail(job.job_id,
                                error=f"{type(exc).__name__}: {exc}")
                return
            self._commit(job, outcome)
            return
        guarded = shield.wrap(self._run_handler)
        outcome = shield.settle([guarded(job)])[0]
        self._commit(job, outcome)

    # -- the job body ---------------------------------------------------

    def _run_handler(self, job: Job) -> Dict[str, Any]:
        """Execute one job under a fresh per-job observability handle;
        the merged run report ships back with the result."""
        job_type = get_job_type(job.type)
        if job_type is None:
            raise ValueError(f"unknown job type {job.type!r}; known: "
                             f"{job_type_names()}")
        handler = job_type.runner
        started = time.perf_counter()
        job_obs = Observability()
        with self.obs.span("service.job.execute", job_id=job.job_id,
                           type=job.type, attempt=job.attempts):
            with job_obs.span("service.job.run", job_id=job.job_id,
                              type=job.type, attempt=job.attempts):
                result = handler(job, self.context, job_obs)
        report = job_obs.run_report(meta={
            "job_id": job.job_id, "type": job.type,
            "attempt": job.attempts}).to_dict()
        return {"result": result, "report": report,
                "wall_s": time.perf_counter() - started}

    def _commit(self, job: Job, outcome: Any) -> None:
        """Settle one executed job into the queue journal."""
        if isinstance(outcome, Quarantined):
            self.obs.counter("service.jobs.quarantined").inc()
            self.queue.fail(
                job.job_id,
                error=f"{outcome.error_type}: {outcome.error}",
                quarantine=outcome.to_dict())
            return
        self.queue.finish(job.job_id, result=outcome["result"],
                          report=outcome["report"],
                          wall_s=outcome["wall_s"])
