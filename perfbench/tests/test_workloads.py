"""Workloads at a small scale: probes reached, originals restored,
known answers checked, and ``BENCHMARK.json`` in step with the code."""

from __future__ import annotations

import importlib
import json
import random
from pathlib import Path

import pytest

from perfbench import probes, run
from perfbench.workloads import (Check, Curate, Eval, Iteration, WORKLOADS,
                                 broken_variant, counting_function,
                                 planted_runaway, runaway_shape)

ROOT = Path(__file__).resolve().parents[2]

SMALL = {
    "curate": Curate(n_files=300, n_prompts=4, n_queries=4),
    "eval": Eval(n_files=200, n_samples=2),
    # Planted runaways cost a second or two each; none at this scale.
    "check": Check(n_goldens=4, n_runaways=0),
}


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "ANSWERS", tmp_path / "out" / "answers.json")
    return tmp_path / "out"


def _originals():
    out = {}
    for probe in probes.PROBES:
        module = importlib.import_module(probe.module)
        owner = getattr(module, probe.cls) if probe.cls else module
        out[probe.label] = (vars(owner)[probe.attr] if probe.cls
                            else getattr(owner, probe.attr))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reaches_its_probes_and_restores_them(name, out_dir,
                                                         tmp_path):
    before = _originals()
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    outcome = run.run_workload(name, 0, 0.0, True, workdir,
                               workload=SMALL[name])
    assert outcome["result"]["correct"], outcome["detail"]["problems"]
    assert _originals() == before

    saved = json.loads((out_dir / f"{name}-seed0" / "per_layer.json")
                       .read_text())
    calls = saved["wrapper_calls"]
    for probe in probes.PROBES:
        if name in probe.exercised:
            assert calls[probe.label] > 0, probe.label
    metrics = outcome["result"]["metrics"]
    assert set(metrics) == set(probes.metric_units())
    assert metrics["trace.wall_s"]["value"] > 0
    if name in ("curate", "check"):
        assert metrics["trace.named_share"]["value"] >= 0.75
    if name == "curate":
        assert metrics["verilog.sim.calls"]["value"] == 0
        # The planted comparator reaches the formal checker and blows
        # its budget.
        assert metrics["verilog.formal.unsupported"]["value"] >= 1
    assert (out_dir / f"{name}-seed0" / "run_report.json").exists()
    assert (out_dir / f"{name}-seed0" / "spans.jsonl.gz").exists()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_reports_every_end_to_end_metric(name, out_dir,
                                                      tmp_path):
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    outcome = run.run_workload(name, 1, 0.0, False, workdir,
                               workload=SMALL[name])
    result = outcome["result"]
    assert result["correct"], outcome["detail"]["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {key: metric["unit"] for key, metric
            in result["metrics"].items()} == run.END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    # Built from the fastest stages, never slower than an iteration.
    walls = outcome["detail"]["iteration_wall_s"]
    assert result["metrics"]["wall_s"]["value"] <= min(walls)
    assert outcome["detail"]["median_wall_s"] >= min(walls)


def test_gated_times_add_up_each_stages_fastest_repetition():
    def iteration(**stages):
        return Iteration(items=1, failed=0, answer=None, stages=stages)

    runs = [(iteration(a=(3.0, 2.5), b=(1.0, 1.5)), 4.0, 4.0),
            (iteration(a=(2.0, 2.6), b=(2.0, 1.2)), 4.0, 3.8)]
    assert run._fastest_stages(runs) == (3.0, 3.7)
    # A workload without stages is one stage.
    plain = [(iteration(), 4.0, 3.0), (iteration(), 5.0, 2.0)]
    assert run._fastest_stages(plain) == (4.0, 2.0)
    with pytest.raises(RuntimeError):
        run._fastest_stages([runs[0], (iteration(a=(1.0, 1.0)), 1.0, 1.0)])


@pytest.mark.parametrize("walls, seconds, expected", [
    # 2 + 1 + 1 = 4 s; a fourth iteration ends at 5 s, nearer 5.2 s.
    ([2.0, 1.0, 1.0, 1.0, 1.0], 5.2, 4),
    ([2.0, 1.0, 1.0, 1.0, 1.0], 4.4, 3),
    # Three at least, unless the first alone takes the requested time.
    ([0.1] * 5, 0.2, 3),
    ([10.0, 1.0], 5.0, 1),
])
def test_iterations_stop_nearest_the_requested_time(monkeypatch, tmp_path,
                                                    walls, seconds,
                                                    expected):
    clock = [0.0]
    script = iter(walls)

    def timed(workload, inputs, workdir, tracer=None):
        wall = next(script)
        clock[0] += wall
        return None, wall, wall

    monkeypatch.setattr(run, "_timed", timed)
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    assert len(run._iterate_for(None, None, tmp_path, seconds)) == expected


def test_curate_paths_agree_and_answers_are_compared(out_dir, tmp_path):
    workdir = tmp_path / "first"
    workdir.mkdir()
    outcome = run.run_workload("curate", 3, 0.0, False, workdir,
                               workload=SMALL["curate"])
    assert outcome["result"]["correct"], outcome["detail"]["problems"]
    detail = outcome["detail"]
    assert detail["stream_wall_s"] > 0 and detail["in_memory_wall_s"] > 0
    assert detail["stream_cpu_ratio"] > 0
    answers = json.loads(run.ANSWERS.read_text())
    assert len(answers) == 1
    key = next(iter(answers))
    answers[key] = "a different digest"
    run.ANSWERS.write_text(json.dumps(answers))
    workdir = tmp_path / "again"
    workdir.mkdir()
    outcome = run.run_workload("curate", 3, 0.0, False, workdir,
                               workload=SMALL["curate"])
    assert not outcome["result"]["correct"]
    assert outcome["result"]["failed"] >= 1


def test_curate_flags_paths_that_disagree(monkeypatch, tmp_path):
    import perfbench.workloads as workloads

    real = workloads.dataset_digest
    calls = []

    def digest(dataset):
        calls.append(dataset)
        return real(dataset) + ("-stream" if len(calls) == 1 else "")

    monkeypatch.setattr(workloads, "dataset_digest", digest)
    curate = SMALL["curate"]
    outcome = curate.iterate(curate.setup(0, tmp_path), tmp_path, None)
    assert outcome.problems == [
        "the streaming and in-memory datasets differ"]
    assert outcome.failed == 1


def test_runaway_shapes():
    assert runaway_shape("for (i = WIDTH - 2; i >= 0; i = i + 1)")
    assert runaway_shape("for (i = 0; i < WIDTH; i = i - 1)")
    assert not runaway_shape("for (i = WIDTH - 2; i >= 0; i = i - 1)")
    assert not runaway_shape("for (i = 0; i < WIDTH; i = i + 1)")
    # Terminates at once: the condition is false on entry.
    assert not runaway_shape("for (i = 0; i > WIDTH; i = i + 1)")
    for index in range(2):
        assert runaway_shape(planted_runaway(index).source)
        assert not runaway_shape(counting_function(index))


def test_planted_runaways_fail_and_their_goldens_pass():
    from repro.eval import run_functional_test

    # Heavier padding spends the step budget in fewer loop iterations.
    for index in range(2):
        runaway = planted_runaway(index, padding=1000)
        golden = counting_function(index, padding=1000)
        assert run_functional_test(golden, runaway.spec).passed
        assert not run_functional_test(runaway.source, runaway.spec).passed


def test_untraced_check_checks_runaways_once_outside_the_timing(out_dir,
                                                               tmp_path):
    outcome = run.run_workload("check", 0, 0.0, False, tmp_path,
                               workload=Check(n_goldens=2, n_runaways=1))
    assert outcome["result"]["correct"], outcome["detail"]["problems"]
    detail = outcome["detail"]
    assert detail["runaway_s"] > 0
    # Each iteration and the runaway after them.
    per_iteration = (outcome["result"]["attempted"] - 1) / detail["iterations"]
    assert per_iteration == int(per_iteration)
    assert detail["runaway_s"] > outcome["result"]["metrics"]["wall_s"][
        "value"] / per_iteration


def test_check_inputs_hold_the_planted_runaways_only():
    candidates = Check(n_goldens=40).setup(5, Path("."))
    runaways = [c for c in candidates if runaway_shape(c.source)]
    assert sorted(c.kind for c in runaways) == ["runaway", "runaway"]
    # One of each shape.
    assert len({c.source for c in runaways}) == 2
    kinds = {c.kind for c in candidates}
    assert kinds == {"golden", "mutant", "broken", "runaway"}


def test_broken_variants_never_hide_in_comments():
    from repro.verilog import ParseError, parse
    from repro.corpus import family_names, generate_design

    rng = random.Random(0)
    for _ in range(60):
        design = generate_design(rng.choice(family_names()), rng)
        with pytest.raises(ParseError):
            parse(broken_variant(design.source, rng))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == probes.metric_units()
