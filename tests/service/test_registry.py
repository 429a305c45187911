"""The job-type registry and the ``repair`` job type."""

import pytest

from repro.obs import Observability
from repro.service import (
    PyraNetService,
    get_job_type,
    job_type_names,
    register_job_type,
    unregister_job_type,
    validate_payload,
)


@pytest.fixture
def service(tmp_path):
    svc = PyraNetService(tmp_path / "svc", n_workers=2,
                         obs=Observability(), durable=False)
    yield svc
    svc.stop()


def _runner(job, ctx, obs):
    return {"ok": True}


class TestRegistry:
    def test_builtins_registered(self):
        assert {"curate", "finetune", "eval", "probe",
                "repair"} <= set(job_type_names())

    def test_register_and_unregister(self):
        register_job_type("reg-test", _runner,
                          payload_schema={"x": {"type": "int"}})
        try:
            job_type = get_job_type("reg-test")
            assert job_type.runner is _runner
            assert job_type.payload_schema["x"]["type"] == "int"
            assert "reg-test" in job_type_names()
        finally:
            unregister_job_type("reg-test")
        assert get_job_type("reg-test") is None

    def test_registration_without_schema_is_schema_less(self):
        register_job_type("schema-less-test", _runner)
        try:
            assert get_job_type("schema-less-test").payload_schema == {}
        finally:
            unregister_job_type("schema-less-test")


class TestPayloadValidation:
    def test_unknown_type_lists_known(self):
        with pytest.raises(ValueError, match="unknown job type"):
            validate_payload("mine-bitcoin", {})

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError, match="wants int"):
            validate_payload("probe", {"spin": "lots"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValueError, match="got bool"):
            validate_payload("probe", {"spin": True})

    def test_int_accepted_for_float(self):
        validate_payload("curate", {"dedup_threshold": 1})

    def test_required_field_enforced(self):
        with pytest.raises(ValueError, match="params\\['store'\\]"):
            validate_payload("finetune", {})

    def test_undeclared_params_pass_through(self):
        validate_payload("probe", {"n": 3, "anything": "goes"})

    def test_submit_rejects_invalid_payload(self, service):
        with pytest.raises(ValueError, match="wants int"):
            service.submit("repair", {"n_candidates": "many"})


class TestRepairJob:
    def test_repair_job_lands_store_with_facet(self, service):
        sub = service.submit("repair", {
            "n_candidates": 10, "seed": 7, "budget": 2,
            "store": "repair-store"}, idempotency_key="r")
        assert service.pool.run_pending() == 1
        record = service.job(sub["job_id"])
        assert record["status"] == "done", record["error"]
        result = record["result"]
        assert result["store"] == "repair-store"
        assert result["n_records"] > 0
        assert result["origins"].get("repair", 0) > 0
        assert 0.0 <= result["fix_rate"] <= 1.0
        # The store is queryable through the service's facet surface.
        facets = service.facets("repair-store")
        assert facets["origins"] == result["origins"]

    def test_repair_job_without_store_reports_digest(self, service):
        sub = service.submit("repair", {"n_candidates": 8, "seed": 3,
                                        "budget": 2},
                             idempotency_key="r2")
        service.pool.run_pending()
        record = service.job(sub["job_id"])
        assert record["status"] == "done", record["error"]
        assert record["result"]["dataset_digest"]

    def test_repair_job_deterministic(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            svc = PyraNetService(tmp_path / name, durable=False)
            sub = svc.submit("repair", {"n_candidates": 8, "seed": 3,
                                        "budget": 2},
                             idempotency_key="k")
            svc.pool.run_pending()
            digests.append(
                svc.job(sub["job_id"])["result"]["dataset_digest"])
            svc.stop()
        assert digests[0] == digests[1]


class TestEvalJobConfig:
    def test_eval_job_with_repair_budget(self, service):
        sub = service.submit("eval", {
            "suite": "machine", "n_problems": 2, "n_samples": 2,
            "seed": 1, "repair_budget": 1}, idempotency_key="e")
        service.pool.run_pending()
        record = service.job(sub["job_id"])
        assert record["status"] == "done", record["error"]
        result = record["result"]
        assert result["repair_budget"] == 1
        assert result["config"]["repair_budget"] == 1
        assert len(result["fix_rate_curve"]) == 2
        assert result["report_digest"]
