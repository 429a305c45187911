"""Every report type under one JSON rule: pinned bytes, round trips and
lenient loading.

One seeded run yields an instance of each report type: a curation of
150 scraped files that keeps its near-duplicate variants (so design
families carry variants and evidence), a store write, a family split,
an architecture fine-tune on the split's train side, classic and
budget-1 repair evaluation on six Machine problems, ``verify_design``
and functional tests (goldens, an operator mutant and a syntax break)
over ten design families, a fault-injected resilient curation, a
repair transcript with its feedback and a queued job record.  The
types that run does not produce (``FaultRule`` outside a plan,
``Quarantined``, ``SpanContext`` and a non-empty ``DeadLetterReport``)
are built by hand.

``TestDigest`` pins a sha256 of each type's ``to_json()`` output, with
every wall-clock field and run, trace or span id set to a constant
first.  Do not update a pinned digest to make a change pass: the bytes
a report writes are the contract, so change the code until the old
bytes come back.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core import PyraNet
from repro.corpus.templates import generate_design
from repro.dataset.corrupt import operator_mutants
from repro.dataset.pipeline import PipelineReport, build_pyranet
from repro.eval.functional import run_functional_test
from repro.eval.harness import EvalReport
from repro.obs import Observability, SpanContext, report_json
from repro.pipeline import ParallelExecutor
from repro.repairloop import RepairLoop
from repro.repairloop.feedback import RepairFeedback
from repro.resilience import (FaultPlan, FaultRule, Quarantined, Resilience,
                              RetryPolicy)
from repro.resilience.runtime import DeadLetterReport
from repro.service.queue import JobQueue
from repro.verilog import check
from repro.verilog.formal import verify_design

#: Ten design families whose formal checks are cheap; two of them are
#: outside the modelled subset, so both verdict kinds appear.
FAMILIES = ("absolute_value", "barrel_shifter", "bcd_to_7seg",
            "clock_divider", "decoder", "lfsr", "popcount", "sync_fifo",
            "traffic_light", "updown_counter")

#: Keys whose values depend on the clock, the process or the temp dir
#: (matched as name suffixes, so registry gauges such as
#: ``pipeline.curation.wall_time_s`` count too), and random ids.
_VOLATILE_KEYS = ("wall_time_s", "wall_s", "cpu_time_s", "start_s",
                  "rss_peak_bytes", "directory")
_ID_KEYS = ("run_id", "trace_id", "span_id", "parent_id")


def _serial():
    return ParallelExecutor(mode="serial", max_workers=1)


def _seeded_run(tmp_path):
    """The top-level artefacts of one seeded run, in a fixed order."""
    obs = Observability(run_id="codec")
    pyranet = PyraNet(seed=3, n_samples=4, n_test_vectors=8,
                      executor=_serial(), obs=obs)
    pyranet.curation = build_pyranet(
        n_github_files=150, n_llm_prompts=2, n_queries_per_prompt=3,
        seed=3, executor=_serial(), obs=obs, keep_variants=True)
    manifest = pyranet.save_store(tmp_path / "store", max_shard_bytes=4096)
    service = pyranet.load_store(tmp_path / "store", obs=obs)
    split = service.split(eval_fraction=0.2)
    model = pyranet.finetune("codellama-7b-instruct-sim",
                             recipe="architecture",
                             dataset=service.train_view(split))
    eval_report = pyranet.evaluate(model, suite="machine", n_problems=6)
    repair_report = pyranet.evaluate_repair(model, suite="machine",
                                            repair_budget=1, n_problems=6)

    checks = []
    for name in FAMILIES:
        design = generate_design(name, random.Random(name))
        checks.append(verify_design(design.source))
        checks.append(run_functional_test(design.source, design.spec,
                                          n_vectors=8))
        for mutant in operator_mutants(design.source, max_mutants=1):
            checks.append(run_functional_test(mutant, design.spec,
                                              n_vectors=8))
    broken = generate_design("up_counter", random.Random(0)).source
    broken = broken.replace(";", "", 1)
    spec = generate_design("up_counter", random.Random(0)).spec
    checks.append(run_functional_test(broken, spec, n_vectors=8))

    plan = FaultPlan.seeded(1, ["stage.syntax_check", "stage.rank_label"],
                            n_faults=3, max_ordinal=40)
    resilience = Resilience(
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
        fault_plan=plan, sleep=lambda seconds: None)
    build_pyranet(n_github_files=40, n_llm_prompts=0, seed=4,
                  executor=_serial(), resilience=resilience)

    transcript = RepairLoop(budget=2).run(broken, candidate_id="codec")
    diagnostics = check(broken).diagnostics
    feedback = RepairFeedback.from_check(check(broken))
    job, _ = JobQueue(tmp_path / "queue").submit(
        "curate", {"n_github_files": 10, "families": True},
        idempotency_key="codec")
    job.report = pyranet.run_report().to_dict()

    dead_letter = DeadLetterReport()
    quarantined = Quarantined(site="stage.describe", error_type="ValueError",
                              error="bad record", attempts=2,
                              value_repr="'x'", value_digest="00ff")
    dead_letter.add(quarantined)
    hand_built = [
        FaultRule(site="stage.dedup", kind="delay", ordinals=(1, 4),
                  delay_s=0.5),
        quarantined,
        SpanContext(trace_id="t-1", span_id="s-2"),
        dead_letter,
    ]
    return [pyranet.curation, manifest, split, eval_report,
            repair_report, pyranet.eval_config(), *checks, plan,
            resilience.report(), transcript, feedback, *diagnostics, job,
            pyranet.run_report(), *hand_built]


def _reports(value, found):
    """Every object with ``to_dict`` reachable from ``value``
    (dataclass fields, list items and dict values), in visit order."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _reports(item, found)
        return found
    if isinstance(value, dict):
        for item in value.values():
            _reports(item, found)
        return found
    if hasattr(value, "to_dict") and not isinstance(value, type):
        found.append(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for item in dataclasses.fields(value):
            _reports(getattr(value, item.name), found)
    elif hasattr(value, "rules"):  # FaultPlan
        _reports(list(value.rules), found)
    return found


def _to_json(report):
    to_json = getattr(report, "to_json", None)
    return to_json() if to_json is not None else report_json(report.to_dict())


def _load(cls, text):
    from_json = getattr(cls, "from_json", None)
    if from_json is not None:
        return from_json(text)
    return cls.from_dict(json.loads(text))


def _normalise(value):
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key.endswith(_VOLATILE_KEYS):
                out[key] = 0
            elif key in _ID_KEYS:
                out[key] = "id"
            else:
                out[key] = _normalise(item)
        return out
    if isinstance(value, list):
        return [_normalise(item) for item in value]
    return value


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    """``type name -> instances`` over the seeded run."""
    found = _reports(_seeded_run(tmp_path_factory.mktemp("codec")), [])
    by_type = {}
    for report in found:
        by_type.setdefault(type(report).__name__, []).append(report)
    return by_type


def _digest(reports):
    hasher = hashlib.sha256()
    for report in reports:
        text = report_json(_normalise(json.loads(_to_json(report))))
        hasher.update(text.encode("utf-8") + b"\n")
    return hasher.hexdigest()[:16]


#: ``type name -> digest`` of the normalised JSON of its instances.
GOLDEN_DIGESTS = {
    "CurationResult": "cd3a1c873e283a7f",
    "DatasetEntry": "fcd47a17b66be14d",
    "DeadLetterReport": "1ef7a5d9d98a5195",
    "Diagnostic": "c5941e078edd3350",
    "EvalConfig": "ee37102b9bc8aecd",
    "EvalReport": "063f565ede054df8",
    "Evidence": "2ed40b220019ca1a",
    "Family": "bdf3ace1b36c9489",
    "FamilyReport": "db802f4500d14c08",
    "FamilySplit": "40bbf32e217f0d35",
    "FamilyVariant": "499e4f3dc16c73c2",
    "FaultPlan": "4c0f805f5ff9166b",
    "FaultRule": "3aafd577301b6780",
    "FormalReport": "7bd600f53b723fd7",
    "FunnelStats": "2d2988b884947d95",
    "Job": "ed9fe24529b29686",
    "LayerReport": "a912ac42a4ea3c61",
    "Mismatch": "ff9923457803e95e",
    "PipelineReport": "2ac20a7caa720eb4",
    "PipelineTrace": "97d6d5c1b6cb6b06",
    "ProblemResult": "b1ef208a47fd32ee",
    "Quarantined": "f8d784ad158c5a3d",
    "RepairEvalReport": "c9beefc87665ce74",
    "RepairFeedback": "8ee32d4776340c70",
    "RepairIteration": "dc747f81c38f80d9",
    "RepairProblemResult": "2efb00f87af90cb8",
    "RepairTranscript": "3362a4a1997a5ec1",
    "ResilienceReport": "ecf8aeeee8fda6d7",
    "RunReport": "ddf7a55115b79d8f",
    "ShardInfo": "8f7ae87e4a464eec",
    "SpanContext": "25b508ec607108a6",
    "StageMetrics": "3e9850c3aeeee643",
    "StoreManifest": "2f9d97ecdb82d93b",
    "TestOutcome": "98df65f4cb7de2d6",
}

REPORT_TYPES = sorted(GOLDEN_DIGESTS)


class TestDigest:
    def test_every_report_type_is_covered(self, instances):
        assert sorted(instances) == REPORT_TYPES

    @pytest.mark.parametrize("name", REPORT_TYPES)
    def test_bytes_are_pinned(self, instances, name):
        assert _digest(instances[name]) == GOLDEN_DIGESTS[name]


class TestRoundTrip:
    @pytest.mark.parametrize("name", REPORT_TYPES)
    def test_json_round_trip_preserves_bytes(self, instances, name):
        for report in instances[name]:
            text = _to_json(report)
            assert _to_json(_load(type(report), text)) == text


class TestLenientLoading:
    """Loaders ignore keys a later revision may add."""

    def test_pipeline_report_with_an_extra_funnel_counter(self, instances):
        report = instances["PipelineReport"][0]
        data = report.to_dict()
        data["funnel"]["after_formal"] = 7
        loaded = PipelineReport.from_dict(data)
        assert loaded.to_json() == report.to_json()

    def test_eval_report_with_an_extra_stage_key(self, instances):
        report = instances["EvalReport"][0]
        data = report.to_dict()
        for stage in data["trace"]["stages"]:
            stage["cpu_time_s"] = 0.5
        loaded = EvalReport.from_dict(data)
        assert loaded.to_json() == report.to_json()

    @pytest.mark.parametrize("name", REPORT_TYPES)
    def test_schema_key_is_ignored(self, instances, name):
        for report in instances[name]:
            data = report.to_dict()
            data["schema"] = "pyranet/later-revision/v9"
            loaded = type(report).from_dict(data)
            assert _to_json(loaded) == _to_json(report)
