"""The Reportable contract: schema attrs, round-trips, frozen bytes.

The golden strings in this file pin the *legacy* JSON layouts.  The
observability refactor re-expressed ``PipelineTrace`` as a view over
the metric registry — these tests are what "byte-identical" means:
do not update the golden literals to make a change pass; change the
code until the old bytes come back.
"""

import json

import pytest

from repro.corpus import GitHubScrapeSimulator
from repro.dataset.families import FamilyReport
from repro.dataset.pipeline import (
    CurationPipeline,
    CurationResult,
    PipelineReport,
)
from repro.eval.harness import EvalReport, ProblemResult
from repro.obs import Observability, Reportable, RunReport
from repro.pipeline import PipelineTrace, StageMetrics
from repro.store import StoreManifest

#: The committed legacy layout of PipelineTrace.to_json (sorted keys,
#: compact separators, ints-as-ints).  Frozen.
GOLDEN_TRACE_JSON = (
    '{"meta": {"executor": {"max_workers": 1, "mode": "serial"}, '
    '"n_input": 4}, "pipeline": "curation", "stages": [{"cache_hits": 2, '
    '"cache_misses": 1, "drops": {"duplicate": 1}, "n_in": 4, "n_out": 3, '
    '"name": "dedup", "wall_time_s": 0.25}, {"cache_hits": 0, '
    '"cache_misses": 0, "drops": {}, "n_in": 3, "n_out": 3, '
    '"name": "syntax_check", "wall_time_s": 0.125}], "wall_time_s": 0.5}'
)


def _golden_trace() -> PipelineTrace:
    return PipelineTrace(
        pipeline="curation",
        wall_time_s=0.5,
        meta={"n_input": 4, "executor": {"mode": "serial",
                                         "max_workers": 1}},
        stages=[
            StageMetrics(name="dedup", n_in=4, n_out=3, wall_time_s=0.25,
                         drops={"duplicate": 1}, cache_hits=2,
                         cache_misses=1),
            StageMetrics(name="syntax_check", n_in=3, n_out=3,
                         wall_time_s=0.125),
        ],
    )


REPORTABLE_CLASSES = [PipelineTrace, StageMetrics, PipelineReport,
                      CurationResult, EvalReport, StoreManifest, RunReport,
                      FamilyReport]


class TestProtocol:
    @pytest.mark.parametrize("cls", REPORTABLE_CLASSES)
    def test_satisfies_reportable(self, cls):
        assert issubclass(cls, Reportable)

    @pytest.mark.parametrize("cls", REPORTABLE_CLASSES)
    def test_declares_versioned_schema(self, cls):
        assert cls.schema.startswith("pyranet/")
        assert cls.schema.rsplit("/", 1)[1].startswith("v")


class TestGoldenBytes:
    def test_trace_to_json_is_byte_identical(self):
        assert _golden_trace().to_json() == GOLDEN_TRACE_JSON

    def test_trace_round_trip_preserves_bytes(self):
        restored = PipelineTrace.from_json(GOLDEN_TRACE_JSON)
        assert restored.to_json() == GOLDEN_TRACE_JSON

    def test_from_registry_rebuilds_byte_identical_trace(self):
        # publish_trace folds the trace into the registry; from_registry
        # is the inverse view.  The pair must round-trip exact bytes —
        # the trace is a *view* over the registry, not a fork of it.
        trace = _golden_trace()
        obs = Observability()
        obs.publish_trace(trace)
        rebuilt = PipelineTrace.from_registry(obs.registry, "curation")
        assert rebuilt.to_json() == GOLDEN_TRACE_JSON

    def test_from_registry_without_publish_raises(self):
        with pytest.raises(KeyError):
            PipelineTrace.from_registry(Observability().registry, "nope")

    def test_schema_key_not_injected_into_legacy_payloads(self):
        assert "schema" not in _golden_trace().to_dict()
        assert "schema" not in StageMetrics(name="s").to_dict()
        assert "schema" not in StoreManifest().to_dict()


class TestRoundTrips:
    def test_curation_result_round_trips(self):
        raw = GitHubScrapeSimulator(seed=5).scrape(40)
        result = CurationPipeline(seed=5).run(raw)
        assert len(result.dataset) > 0
        restored = CurationResult.from_json(result.to_json())
        assert restored.to_dict() == result.to_dict()
        assert [e.entry_id for e in restored.dataset] == [
            e.entry_id for e in result.dataset]
        assert restored.report.trace.to_json() == \
            result.report.trace.to_json()

    def test_eval_report_round_trips_with_schema_key_tolerated(self):
        report = EvalReport(
            suite="machine", model_name="m",
            results=[ProblemResult(problem_id="p", n_samples=4,
                                   n_passed=2,
                                   failure_kinds={"compile": 2})],
        )
        data = report.to_dict()
        data["schema"] = EvalReport.schema  # future writers may add it
        restored = EvalReport.from_dict(data)
        assert restored.to_dict() == report.to_dict()

    def test_trace_from_dict_tolerates_schema_key(self):
        data = _golden_trace().to_dict()
        data["schema"] = PipelineTrace.schema
        data["stages"][0]["schema"] = StageMetrics.schema
        assert PipelineTrace.from_dict(data).to_json() == GOLDEN_TRACE_JSON

    def test_manifest_from_dict_tolerates_schema_key(self):
        manifest = StoreManifest(n_entries=0)
        data = manifest.to_dict()
        data["schema"] = StoreManifest.schema
        assert StoreManifest.from_dict(data).to_dict() == manifest.to_dict()


class TestManifestDeprecationShim:
    def test_explicit_indent_does_not_warn(self):
        import warnings

        manifest = StoreManifest()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compact = manifest.to_json(indent=None)
            pretty = manifest.to_json(indent=2)
        assert json.loads(compact) == json.loads(pretty)
        assert "\n" in pretty and "\n" not in compact
