"""PyraNetService + WorkerPool behaviour, driven in-process (no HTTP)."""

import pytest

from repro.obs import Observability
from repro.service import (
    PyraNetService,
    UnknownJobError,
    UnknownStoreError,
    register_job_type,
    unregister_job_type,
)


@pytest.fixture
def service(tmp_path):
    svc = PyraNetService(tmp_path / "svc", n_workers=2,
                         obs=Observability(), durable=False)
    yield svc
    svc.stop()


def run_all(service):
    return service.pool.run_pending()


class TestJobLifecycle:
    def test_probe_job_runs_to_done(self, service):
        sub = service.submit("probe", {"spin": 3},
                             idempotency_key="p")
        assert sub["created"] and sub["status"] == "queued"
        assert run_all(service) == 1
        record = service.job(sub["job_id"])
        assert record["status"] == "done"
        assert record["result"]["spin"] == 3
        assert record["result"]["digest"]

    def test_probe_digest_is_deterministic(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            svc = PyraNetService(tmp_path / name, durable=False)
            sub = svc.submit("probe", {"spin": 4}, idempotency_key="k")
            svc.pool.run_pending()
            digests.append(svc.job(sub["job_id"])["result"]["digest"])
        assert digests[0] == digests[1]

    def test_unknown_job_type_rejected_at_submit(self, service):
        with pytest.raises(ValueError, match="unknown job type"):
            service.submit("mine-bitcoin", {})

    def test_unknown_job_id_raises(self, service):
        with pytest.raises(UnknownJobError):
            service.job("job-nope")
        with pytest.raises(UnknownJobError):
            service.job_report("job-nope")

    def test_jobs_listing_in_submission_order(self, service):
        ids = [service.submit("probe", {"n": i})["job_id"]
               for i in range(3)]
        assert [row["job_id"] for row in service.jobs()] == ids

    def test_job_record_excludes_report_payload(self, service):
        sub = service.submit("probe", {"spin": 1})
        run_all(service)
        assert "report" not in service.job(sub["job_id"])
        assert service.job_report(sub["job_id"])["report"]["spans"]


class TestQuarantine:
    def test_poisoned_job_fails_without_stalling_the_pool(self, service):
        def explode(job, ctx, obs):
            raise RuntimeError("poisoned payload")

        register_job_type("explode-test", explode)
        try:
            bad = service.submit("explode-test", {})
            good = service.submit("probe", {"spin": 1})
            assert run_all(service) == 2
        finally:
            unregister_job_type("explode-test")

        failed = service.job(bad["job_id"])
        assert failed["status"] == "failed"
        assert "poisoned payload" in failed["error"]
        assert service.job(good["job_id"])["status"] == "done"

    def test_dead_letter_surfaces_in_job_report(self, service):
        def explode(job, ctx, obs):
            raise RuntimeError("always broken")

        register_job_type("explode-test", explode)
        try:
            sub = service.submit("explode-test", {})
            run_all(service)
        finally:
            unregister_job_type("explode-test")

        report = service.job_report(sub["job_id"])
        assert report["status"] == "failed"
        assert report["quarantine"]["site"] == "service.job"
        assert report["quarantine"]["error_type"] == "RuntimeError"
        assert report["dead_letter_total"] >= 1
        assert report["resilience"]["quarantined"] >= 1

    def test_transient_failure_is_retried_to_success(self, service):
        calls = []

        def flaky(job, ctx, obs):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("transient")
            return {"ok": True}

        register_job_type("flaky-test", flaky)
        try:
            sub = service.submit("flaky-test", {})
            run_all(service)
        finally:
            unregister_job_type("flaky-test")

        assert len(calls) == 2  # DEFAULT_JOB_RETRY.max_attempts
        assert service.job(sub["job_id"])["status"] == "done"


class TestThreadedWorkers:
    def test_start_stop_drains_in_flight_jobs(self, tmp_path):
        svc = PyraNetService(tmp_path, n_workers=2, durable=False,
                             poll_interval=0.01)
        subs = [svc.submit("probe", {"spin": 2, "n": i})
                for i in range(6)]
        svc.start()
        assert svc.healthz()["workers_running"]
        svc.stop(drain_queue=True)
        assert not svc.healthz()["workers_running"]
        for sub in subs:
            assert svc.job(sub["job_id"])["status"] == "done"
        assert svc.queue.depth() == 0

    def test_start_is_idempotent(self, tmp_path):
        svc = PyraNetService(tmp_path, n_workers=1, durable=False)
        svc.start()
        svc.start()
        assert sum(t.is_alive() for t in svc.pool._threads) == 1
        svc.stop()


class TestHealthAndReport:
    def test_healthz_shape(self, service):
        service.submit("probe", {"spin": 1})
        run_all(service)
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["queue"]["done"] == 1
        assert health["depth"] == 0
        assert health["metrics"]["service.jobs.submitted"] == 1
        assert health["metrics"]["service.jobs.finished"] == 1

    def test_run_report_carries_job_spans(self, service):
        service.submit("probe", {"spin": 1})
        run_all(service)
        report = service.run_report()
        names = {span["name"] for span in report["spans"]}
        assert "service.job.execute" in names

    def test_job_latency_histogram_is_fed(self, service):
        service.submit("probe", {"spin": 1})
        run_all(service)
        histogram = service.obs.registry.histogram("service.job.latency_s")
        assert histogram.count == 1


class TestStoreEndpoints:
    def test_unknown_store_raises(self, service):
        with pytest.raises(UnknownStoreError):
            service.facets("nope")
        with pytest.raises(UnknownStoreError):
            service.sample("nope")

    def test_bad_store_name_rejected(self, service):
        with pytest.raises(ValueError):
            service.facets("../escape")

    def test_curate_store_facets_sample_round_trip(self, service):
        sub = service.submit(
            "curate",
            {"n_github_files": 30, "n_llm_prompts": 2,
             "n_queries_per_prompt": 2, "seed": 5, "store": "unit"},
            idempotency_key="c")
        run_all(service)
        record = service.job(sub["job_id"])
        assert record["status"] == "done", record["error"]
        assert record["result"]["store"] == "unit"

        stores = service.stores()
        assert [row["name"] for row in stores] == ["unit"]
        assert stores[0]["n_entries"] == record["result"]["n_entries"]

        facets = service.facets("unit")
        assert facets["n_entries"] == record["result"]["n_entries"]
        assert sum(facets["complexity"].values()) == facets["n_entries"]

        sample = service.sample("unit", n=3)
        assert sample["n"] == 3
        layer = int(next(iter(facets["layers"])))
        filtered = service.sample("unit", n=2, layer=layer)
        assert all(row["layer"] == layer for row in filtered["rows"])

    def test_sampling_reader_refreshes_when_store_rewritten(
            self, service):
        for seed, files in ((1, 30), (2, 40)):
            service.submit(
                "curate",
                {"n_github_files": files, "n_llm_prompts": 2,
                 "n_queries_per_prompt": 2, "seed": seed,
                 "store": "rw"},
                idempotency_key=f"c{seed}")
            run_all(service)
            facets = service.facets("rw")
            sample = service.sample("rw", n=10_000)
            assert sample["n"] == facets["n_entries"]
