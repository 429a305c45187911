"""Concurrency drills: racing submitters, racing workers, exact counts."""

import threading

from repro.obs import Observability
from repro.service import JobQueue, PyraNetService, serve_in_thread
from repro.service import ServiceClient

N_THREADS = 16


def in_threads(fn, n=N_THREADS):
    """Run ``fn(index)`` on n threads through a start barrier."""
    barrier = threading.Barrier(n)
    results = [None] * n
    errors = []

    def runner(index):
        barrier.wait()
        try:
            results[index] = fn(index)
        except Exception as exc:  # surfaced by the caller's assert
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,))
               for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


class TestRacingSubmitters:
    def test_duplicate_key_executes_exactly_once(self, tmp_path):
        """N racing submitters of one idempotency key -> one job, one
        execution, and the obs counters account for every submission."""
        obs = Observability()
        service = PyraNetService(tmp_path, n_workers=4, obs=obs,
                                 durable=False)
        calls = []
        from repro.service import register_job_type, unregister_job_type

        def counting(job, ctx, job_obs):
            calls.append(job.job_id)
            return {"ok": True}

        register_job_type("count-test", counting)
        try:
            results = in_threads(
                lambda i: service.submit("count-test", {"x": 1},
                                         idempotency_key="one"))
            executed = service.pool.run_pending()
        finally:
            unregister_job_type("count-test")

        job_ids = {row["job_id"] for row in results}
        assert len(job_ids) == 1
        assert sum(1 for row in results if row["created"]) == 1
        assert executed == 1
        assert len(calls) == 1

        counter = obs.registry.counter
        assert counter("service.jobs.submitted").value == 1
        assert counter("service.jobs.deduped").value == N_THREADS - 1
        assert counter("service.jobs.claimed").value == 1
        assert counter("service.jobs.finished").value == 1
        assert counter("service.jobs.failed").value == 0
        service.stop()

    def test_duplicate_key_over_http(self, tmp_path):
        obs = Observability()
        service = PyraNetService(tmp_path, n_workers=2, obs=obs,
                                 durable=False, poll_interval=0.01)
        server, thread = serve_in_thread(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               timeout=10.0)
        try:
            results = in_threads(
                lambda i: client.submit("probe", {"spin": 2},
                                        idempotency_key="http-one"),
                n=8)
            job_ids = {row["job_id"] for row in results}
            assert len(job_ids) == 1
            record = client.wait(job_ids.pop(), timeout=10)
            assert record["status"] == "done"
            assert record["attempts"] == 1
            counter = obs.registry.counter
            assert counter("service.jobs.submitted").value == 1
            assert counter("service.jobs.deduped").value == 7
            assert counter("service.jobs.finished").value == 1
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
            thread.join(timeout=5)

    def test_distinct_keys_all_execute(self, tmp_path):
        obs = Observability()
        service = PyraNetService(tmp_path, n_workers=4, obs=obs,
                                 durable=False)
        in_threads(lambda i: service.submit("probe", {"spin": 1},
                                            idempotency_key=f"k{i}"))
        assert service.pool.run_pending() == N_THREADS
        counter = obs.registry.counter
        assert counter("service.jobs.submitted").value == N_THREADS
        assert counter("service.jobs.deduped").value == 0
        assert counter("service.jobs.finished").value == N_THREADS
        service.stop()


class TestRacingClaimers:
    def test_each_job_claimed_once(self, tmp_path):
        queue = JobQueue(tmp_path, durable=False)
        for i in range(N_THREADS):
            queue.submit("probe", {"n": i})

        claims = in_threads(lambda i: queue.claim(worker=f"w{i}"))
        claimed_ids = [job.job_id for job in claims if job is not None]
        assert len(claimed_ids) == N_THREADS
        assert len(set(claimed_ids)) == N_THREADS
        assert queue.depth() == 0
