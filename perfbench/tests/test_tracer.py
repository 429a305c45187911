"""Self time, threads and patching of the outside-in tracer."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from perfbench import probes, tracer as tracer_module
from perfbench.tracer import Tracer


class FakeClock:
    """Both clocks of the tracer, advanced by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def thread_time(self) -> float:
        return self.now / 2  # half the wall time is CPU


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_module, "time", fake)
    return fake


def test_self_time_subtracts_nested_children(clock):
    tracer = Tracer()
    outer = tracer.enter("outer")
    clock.now = 1.0
    middle = tracer.enter("middle")
    clock.now = 2.0
    inner = tracer.enter("inner")
    clock.now = 5.0
    tracer.exit(inner)
    clock.now = 6.0
    tracer.exit(middle)
    clock.now = 7.0
    second = tracer.enter("inner")
    clock.now = 8.0
    tracer.exit(second)
    clock.now = 10.0
    tracer.exit(outer)

    layers = tracer.layers
    assert layers["inner"].self_s == pytest.approx(4.0)
    assert layers["inner"].calls == 2
    assert layers["middle"].self_s == pytest.approx(2.0)
    assert layers["outer"].self_s == pytest.approx(10.0 - 5.0 - 1.0)
    assert layers["outer"].cpu_s == pytest.approx((10.0 - 5.0 - 1.0) / 2)
    # Self times partition the outermost span.
    assert sum(t.self_s for t in layers.values()) == pytest.approx(10.0)
    parents = {span.id: span.parent for span in tracer.spans}
    assert parents[inner.span_id] == middle.span_id
    assert parents[middle.span_id] == outer.span_id
    assert parents[outer.span_id] is None


def test_spans_on_two_threads_do_not_nest():
    tracer = Tracer()
    both_open = threading.Barrier(2)

    def main_thread_work():
        with tracer.span("a"):
            both_open.wait(timeout=5)
            with tracer.span("a.child"):
                time.sleep(0.10)
            time.sleep(0.05)

    def other_thread_work():
        with tracer.span("b"):
            both_open.wait(timeout=5)
            time.sleep(0.20)

    other = threading.Thread(target=other_thread_work)
    other.start()
    main_thread_work()
    other.join(timeout=10)
    assert not other.is_alive()

    layers = tracer.layers
    # "b" overlaps "a" in time but runs on another thread: it is
    # neither a child of "a" nor subtracted from it.
    assert layers["a"].self_s == pytest.approx(0.05, abs=0.04)
    assert layers["a.child"].self_s == pytest.approx(0.10, abs=0.04)
    assert layers["b"].self_s == pytest.approx(0.20, abs=0.04)
    # Sleeping threads use (almost) no CPU.
    assert layers["b"].cpu_s < 0.05
    by_layer = {span.layer: span for span in tracer.spans}
    assert by_layer["b"].parent is None
    assert by_layer["a.child"].parent == by_layer["a"].id
    assert by_layer["a"].thread != by_layer["b"].thread


def test_wrap_times_calls_and_runs_hooks_outside_the_span(clock):
    tracer = Tracer()
    seen = []

    def work(source):
        clock.now += 3.0
        return source.upper()

    def slow_after(tracer_, args, kwargs, result):
        clock.now += 100.0
        seen.append(result)

    wrapped = tracer.wrap(work, "layer", label="work", source_arg=0,
                          after=slow_after)
    assert wrapped("abc") == "ABC"
    assert seen == ["ABC"]
    assert tracer.layers["layer"].self_s == pytest.approx(3.0)
    assert tracer.wrapper_calls["work"] == [1]
    assert tracer.ledger()[0]["layer"] == "layer"


def test_wrap_counts_errors_and_reraises():
    tracer = Tracer()
    errors = []

    def boom(source):
        raise ValueError("for loop exceeded iteration cap")

    wrapped = tracer.wrap(boom, "sim", on_error=lambda t, exc:
                          errors.append(str(exc)))
    with pytest.raises(ValueError):
        wrapped("x")
    assert errors == ["for loop exceeded iteration cap"]
    assert tracer.layers["sim"].calls == 1
    assert tracer._stack_top() is None


def test_cap_hit_hook_counts_only_cap_errors():
    from repro.verilog import SimulationError

    tracer = Tracer()
    probes._count_cap_hit(tracer, SimulationError(
        "for loop exceeded iteration cap"))
    probes._count_cap_hit(tracer, SimulationError(
        "simulation execution budget exceeded"))
    probes._count_cap_hit(tracer, SimulationError("unknown task 'x'"))
    assert tracer.counts["verilog.sim.cap_hits"] == 2


def _bindings(original):
    """Every (module, name) in a patched package bound to ``original``."""
    return [(name, attr) for name, module in list(sys.modules.items())
            if module is not None
            and name.split(".")[0] in tracer_module.PATCHED_PACKAGES
            for attr, value in list(vars(module).items())
            if value is original]


def _target(probe):
    import importlib

    module = importlib.import_module(probe.module)
    if probe.cls is None:
        return getattr(module, probe.attr)
    return getattr(module, probe.cls).__dict__[probe.attr]


def test_every_probe_patches_every_by_name_binding_and_restores():
    import perfbench.workloads  # noqa: F401  (its imports are bindings too)

    originals = {probe.label: _target(probe) for probe in probes.PROBES}
    before = {probe.label: _bindings(originals[probe.label])
              for probe in probes.PROBES if probe.cls is None}
    # The lexer, parser and functional test are imported by name all
    # over the program; the patch must reach each of those modules.
    assert len(before["repro.verilog.parser.parse"]) >= 8
    assert len(before["repro.eval.functional.run_functional_test"]) >= 3

    tracer = Tracer()
    replaced = probes.install(tracer)
    try:
        for probe in probes.PROBES:
            if probe.cls is None:
                assert replaced[probe.label] == len(before[probe.label])
                assert _bindings(originals[probe.label]) == []
                for module_name, attr in before[probe.label]:
                    wrapper = getattr(sys.modules[module_name], attr)
                    assert (wrapper.__perfbench_original__
                            is originals[probe.label])
            else:
                assert _target(probe) is not originals[probe.label]
    finally:
        tracer.restore()

    for probe in probes.PROBES:
        assert _target(probe) is originals[probe.label]
        if probe.cls is None:
            assert _bindings(originals[probe.label]) == before[probe.label]


def test_wrapper_in_a_forked_child_runs_the_original_unrecorded(clock):
    tracer = Tracer()
    tracer.pid = -1  # as seen from a worker forked after install
    wrapped = tracer.wrap(lambda source: source * 2, "layer", label="f")
    assert wrapped("ab") == "abab"
    assert tracer.spans == []
    assert tracer.wrapper_calls["f"] == [0]
