"""Functional equivalence checking against golden models.

VerilogEval judges a completion *functionally*: the candidate module is
simulated against the problem's hidden testbench.  Here the testbench
is generated from the problem's :class:`~repro.corpus.spec.DesignSpec`:
random (seeded) stimulus is driven into the candidate via
:class:`~repro.verilog.Simulator`, and every output is compared with
the golden Python model after each vector/cycle.

Failure taxonomy mirrors what an EDA flow reports: parse errors,
elaboration errors, interface mismatches (missing/mis-sized ports),
runtime errors (combinational loops, unsupported constructs), X-valued
outputs, and plain mismatches.  A candidate whose execution runs out
of the simulator's step budget (a runaway loop or recursion, while it
is built, during a vector, or in a constant function folded into a
parameter) fails as ``budget``: each entry into the simulator (its
construction, every poke and every clock edge) gets a fresh
``STEP_BUDGET`` of steps, so a test's allowance grows with its vector
count and a runaway stops after a bounded number of steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..corpus.spec import DesignSpec, PortDef
from ..obs.reportable import Reportable
from ..verilog import (
    ElaborationError,
    ParseError,
    SimulationError,
    Simulator,
    StopSimulation,
)
from ..verilog.frontend import join_scope
from ..verilog.parser import parse
from ..verilog.preprocessor import PreprocessorError
from ..verilog.sim.eval import EvalError
from ..verilog.sim.interp import StepBudgetExceeded
from ..verilog.sim.values import Vec4


@dataclass
class Mismatch(Reportable):
    """One observed output disagreement."""

    vector_index: int
    output: str
    expected: int
    actual: str
    inputs: Dict[str, int] = field(default_factory=dict)


@dataclass
class TestOutcome(Reportable):
    """Result of one functional test run (:class:`~repro.obs.Reportable`)."""

    schema = "pyranet/test-outcome/v1"

    passed: bool
    failure_kind: Optional[str] = None
    detail: str = ""
    vectors_run: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


def _find_candidate_module(source: str, spec: DesignSpec) -> Optional[str]:
    """Pick the module in ``source`` to test.

    Preference order: exact name match with the spec, then any module
    whose port names cover the spec's ports, then the last module.
    """
    from ..verilog.preprocessor import PreprocessorError, preprocess

    try:
        if "`" in source:
            source = preprocess(source).text
        tree = parse(source)
    except (ParseError, PreprocessorError):
        return None
    if not tree.modules:
        return None
    wanted = {p.name for p in spec.inputs} | {p.name for p in spec.outputs}
    for module in tree.modules:
        if module.name == spec.module_name:
            return module.name
    for module in tree.modules:
        if wanted.issubset(set(module.port_names())):
            return module.name
    return tree.modules[-1].name


def _check_interface(sim: Simulator, spec: DesignSpec) -> Optional[str]:
    """Return an error string when the candidate's ports do not match."""
    for port in spec.inputs:
        if port.name not in sim.design.signals:
            return f"missing input port {port.name!r}"
        width = sim.design.signals[port.name].width
        if width != port.width:
            return (
                f"input {port.name!r} is {width} bits, expected "
                f"{port.width}"
            )
    for port in spec.outputs:
        if port.name not in sim.design.signals:
            return f"missing output port {port.name!r}"
        width = sim.design.signals[port.name].width
        if width != port.width:
            return (
                f"output {port.name!r} is {width} bits, expected "
                f"{port.width}"
            )
    return None


def _random_inputs(
    spec: DesignSpec, rng: random.Random
) -> Dict[str, int]:
    values: Dict[str, int] = {}
    for port in spec.inputs:
        if port.role != "data":
            continue
        if port.width == 1:
            values[port.name] = rng.randint(0, 1)
        else:
            # Mix extremes and uniform values for better coverage.
            choice = rng.random()
            if choice < 0.1:
                values[port.name] = 0
            elif choice < 0.2:
                values[port.name] = port.mask
            else:
                values[port.name] = rng.randint(0, port.mask)
    return values


def _compare_outputs(
    sim: Simulator,
    spec: DesignSpec,
    expected: Dict[str, int],
    inputs: Dict[str, int],
    index: int,
    outcome: TestOutcome,
) -> bool:
    """Compare every expected output; record mismatches.  Returns
    True when all match."""
    ok = True
    for name, want in expected.items():
        if want is None:
            continue  # golden marks this output as don't-care
        port = spec.find_output(name)
        if port is None:
            continue
        actual = sim.peek(name)
        actual_int = actual.to_int_or_none()
        if actual_int is None or actual_int != (want & port.mask):
            ok = False
            outcome.mismatches.append(Mismatch(
                vector_index=index, output=name,
                expected=want & port.mask,
                actual=actual.to_bit_string(), inputs=dict(inputs),
            ))
    return ok


def run_functional_test(
    source: str,
    spec: DesignSpec,
    n_vectors: int = 48,
    seed: int = 1234,
    max_mismatches: int = 4,
) -> TestOutcome:
    """Simulate ``source`` against ``spec``'s golden model.

    Args:
        source: candidate Verilog text (any number of modules).
        spec: interface + golden behaviour to check against.
        n_vectors: number of random vectors (comb) or cycles (seq).
        seed: stimulus RNG seed — fixed so results are reproducible.
        max_mismatches: stop after this many disagreements.

    Returns:
        A :class:`TestOutcome`.

    The call joins the front-end memo scope already open in this
    context, or opens its own, so the candidate is parsed once.
    """
    with join_scope():
        return _run_functional_test(source, spec, n_vectors, seed,
                                    max_mismatches)


def _run_functional_test(source: str, spec: DesignSpec, n_vectors: int,
                         seed: int, max_mismatches: int) -> TestOutcome:
    outcome = TestOutcome(passed=False)
    golden = spec.golden
    if golden is None:
        outcome.failure_kind = "no-golden"
        outcome.detail = "spec has no golden model"
        return outcome
    top = _find_candidate_module(source, spec)
    if top is None:
        outcome.failure_kind = "parse"
        outcome.detail = "candidate source does not parse"
        return outcome
    try:
        sim = Simulator(source, top=top)
    except ParseError as exc:
        outcome.failure_kind = "parse"
        outcome.detail = str(exc)
        return outcome
    except PreprocessorError as exc:
        outcome.failure_kind = "parse"
        outcome.detail = str(exc)
        return outcome
    except StepBudgetExceeded as exc:
        outcome.failure_kind = "budget"
        outcome.detail = str(exc)
        return outcome
    except (ElaborationError, SimulationError, EvalError) as exc:
        outcome.failure_kind = "elaborate"
        outcome.detail = str(exc)
        return outcome
    interface_error = _check_interface(sim, spec)
    if interface_error:
        outcome.failure_kind = "interface"
        outcome.detail = interface_error
        return outcome
    rng = random.Random(seed)
    try:
        if golden.is_sequential:
            _run_sequential(sim, spec, rng, n_vectors, max_mismatches,
                            outcome)
        else:
            _run_combinational(sim, spec, rng, n_vectors, max_mismatches,
                               outcome)
    except StepBudgetExceeded as exc:
        outcome.failure_kind = "budget"
        outcome.detail = str(exc)
        return outcome
    except (SimulationError, StopSimulation, EvalError) as exc:
        outcome.failure_kind = "runtime"
        outcome.detail = str(exc)
        return outcome
    except (ValueError, KeyError) as exc:
        outcome.failure_kind = "runtime"
        outcome.detail = f"{type(exc).__name__}: {exc}"
        return outcome
    if outcome.mismatches:
        outcome.failure_kind = "mismatch"
        first = outcome.mismatches[0]
        outcome.detail = (
            f"output {first.output!r}: expected {first.expected}, got "
            f"{first.actual} (vector {first.vector_index})"
        )
        return outcome
    outcome.passed = True
    return outcome


def _run_combinational(
    sim: Simulator,
    spec: DesignSpec,
    rng: random.Random,
    n_vectors: int,
    max_mismatches: int,
    outcome: TestOutcome,
) -> None:
    for index in range(n_vectors):
        inputs = _random_inputs(spec, rng)
        for name, value in inputs.items():
            sim.poke(name, value)
        expected = spec.golden.comb(dict(inputs))
        outcome.vectors_run += 1
        _compare_outputs(sim, spec, expected, inputs, index, outcome)
        if len(outcome.mismatches) >= max_mismatches:
            return


def _run_sequential(
    sim: Simulator,
    spec: DesignSpec,
    rng: random.Random,
    n_cycles: int,
    max_mismatches: int,
    outcome: TestOutcome,
) -> None:
    clock = spec.clock_name or "clk"
    reset = spec.reset_name
    active = 0 if spec.reset_active_low else 1
    sim.poke(clock, 0)
    # Reset sequence: hold reset active across two rising edges so both
    # synchronous and asynchronous candidate implementations settle.
    if reset is not None:
        for port in spec.inputs:
            if port.role == "data":
                sim.poke(port.name, 0)
        sim.poke(reset, active)
        sim.clock(clock, 2)
        sim.poke(reset, 1 - active)
    state = spec.golden.reset()
    for index in range(n_cycles):
        inputs = _random_inputs(spec, rng)
        for name, value in inputs.items():
            sim.poke(name, value)
        sim.clock(clock, 1)
        state, expected = spec.golden.step(state, dict(inputs))
        outcome.vectors_run += 1
        _compare_outputs(sim, spec, expected, inputs, index, outcome)
        if len(outcome.mismatches) >= max_mismatches:
            return
