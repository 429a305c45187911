"""Bounded equivalence / property checking over elaborated designs.

Entry points:

* :func:`check_equivalence` — are two designs observably identical?
  Combinational designs are compared exactly (all inputs at once);
  sequential designs are unrolled ``bound`` cycles from their declared
  initial state under shared per-cycle input variables.
* :func:`check_properties` — do boolean assertions over the top-level
  nets hold (at every checked cycle, for all inputs)?
* :func:`verify_design` — the curation-tier verdict: the design is in
  the modelled synthesizable subset, has no combinational loops or
  driver conflicts, and every output bit is defined on all paths.

All three run through one driver and return a versioned
:class:`FormalReport`: a design that does not parse or elaborate is an
``error``; one outside the modelled subset, past the BDD node budget or
past its model's step budget (``STEP_BUDGET`` steps for the whole
check, counted as the simulator counts) is ``unsupported``.  Reports
carry no wall-clock data and only deterministic fields, so re-running
the same check anywhere yields byte-identical JSON (house rule for
distributed curation).

The cycle semantics mirror ``Simulator.clock``: the edge processes
observe the pre-edge settled combinational state, non-blocking updates
land after all edge processes ran, and outputs are observed after the
post-edge settle with the same cycle inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from ...obs.reportable import Reportable
from .. import ast_nodes as ast
from ..parser import ParseError, parse
from ..sim.design import (
    CombProcess,
    Design,
    EdgeProcess,
    ElaborationError,
    InitialProcess,
    Scope,
    Signal,
    TimedAlwaysProcess,
)
from ..sim.runtime import elaborate_source
from ..sim.elaborate import collect_lvalue_index_reads, collect_reads
from ..sim.interp import StepBudget, StepBudgetExceeded
from .bdd import FALSE, TRUE, BDDBudgetError, BDDManager, DEFAULT_NODE_BUDGET
from .sym import (
    FormalUnsupported,
    SymVec,
    SymbolicContext,
    collect_writes,
)

#: Default number of unrolled cycles for sequential checks.
DEFAULT_BOUND = 5

FORMAL_REPORT_SCHEMA = "pyranet/formal-report/v1"

DesignLike = Union[str, Design]


@dataclass
class FormalReport(Reportable):
    """Versioned, deterministic result document for one formal check."""

    schema: str = field(default=FORMAL_REPORT_SCHEMA, init=False)
    mode: str = "equivalence"  # equivalence | properties | verify
    #: equivalent | inequivalent | holds | fails | verified |
    #: unsupported | error
    status: str = "unsupported"
    detail: str = ""
    bound: int = 0
    counterexample: Optional[Dict[str, Any]] = None
    properties: List[Dict[str, Any]] = field(default_factory=list)
    n_inputs: int = 0
    n_outputs: int = 0
    n_state_bits: int = 0
    n_bdd_nodes: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("equivalent", "holds", "verified")


class _VarPool:
    """Shared (port, bit, cycle) → BDD variable allocation.

    Both sides of an equivalence check draw their input variables from
    one pool, so identical stimulus reaches both designs and variable
    order interleaves naturally in first-use order.
    """

    def __init__(self, mgr: BDDManager) -> None:
        self.mgr = mgr
        self._vars: Dict[Tuple[str, int, int], int] = {}
        #: var index -> (port, bit, cycle), for counterexample readback.
        self.origin: Dict[int, Tuple[str, int, int]] = {}

    def var(self, name: str, bit: int, cycle: int) -> int:
        key = (name, bit, cycle)
        node = self._vars.get(key)
        if node is None:
            node = self.mgr.new_var()
            self._vars[key] = node
            self.origin[self.mgr.var_of(node)] = key
        return node

    def input_bits(self, signal: Signal, cycle: int) -> List[int]:
        return [self.var(signal.name, i, cycle)
                for i in range(signal.width)]


#: A persisted value: (bits, undef-guards), both LSB-first node lists.
_StateEntry = Tuple[List[int], List[int]]
_State = Dict[str, _StateEntry]


class DesignModel:
    """One design compiled for symbolic execution.

    Construction performs all whole-design admission checks (single
    clock, no timing controls, acyclic combinational logic, exclusive
    drivers); :meth:`settle` and :meth:`step` then evaluate cycles.
    """

    def __init__(self, design: Design, mgr: BDDManager,
                 pool: _VarPool) -> None:
        self.design = design
        self.mgr = mgr
        self.pool = pool
        #: The steps every execution of this design's code in one check
        #: shares; running out is an ``unsupported`` verdict.
        self.budget = StepBudget()
        self.comb_procs: List[CombProcess] = []
        self.edge_procs: List[EdgeProcess] = []
        self.initial_procs: List[InitialProcess] = []
        self.clock: Optional[Tuple[str, str]] = None  # (edge, flat name)
        self.state_names: List[str] = []
        self._classify()
        self._analyze_clock()
        self._analyze_drivers()
        self._order_comb()
        self.initial_state = self._run_initials()

    # -- admission checks ----------------------------------------------

    def _classify(self) -> None:
        if self.design.inouts:
            raise FormalUnsupported("inout port")
        for proc in self.design.processes:
            if isinstance(proc, CombProcess):
                self.comb_procs.append(proc)
            elif isinstance(proc, EdgeProcess):
                self.edge_procs.append(proc)
            elif isinstance(proc, InitialProcess):
                self.initial_procs.append(proc)
            elif isinstance(proc, TimedAlwaysProcess):
                raise FormalUnsupported("timing-controlled always block")

    def _analyze_clock(self) -> None:
        triggers: Set[Tuple[str, str]] = set()
        for proc in self.edge_procs:
            triggers.update(proc.triggers)
        if not triggers:
            return
        if len(triggers) > 1:
            raise FormalUnsupported(
                "multiple clocks or asynchronous triggers")
        edge, name = next(iter(triggers))
        signal = self.design.signals.get(name)
        if signal is None or name not in self.design.inputs:
            raise FormalUnsupported("clock is not a top-level input")
        if signal.width != 1:
            raise FormalUnsupported("multi-bit clock")
        self.clock = (edge, name)

    def _proc_write_set(self, proc: CombProcess) -> Set[str]:
        writes: Set[str] = set()
        if proc.assign is not None:
            target, _ = proc.assign
            scope = proc.target_scope or proc.scope
            from .sym import _target_signals
            _target_signals(target, scope, writes)
        else:
            collect_writes(proc.body, proc.scope, writes)
        return writes

    def _analyze_drivers(self) -> None:
        state: Set[str] = set()
        for proc in self.edge_procs:
            collect_writes(proc.body, proc.scope, state)
        clock_name = self.clock[1] if self.clock else None
        if clock_name in state:
            raise FormalUnsupported("clock driven inside the design")
        self.state_names = sorted(state)

        self._comb_writes: List[Set[str]] = []
        claimed: Dict[str, int] = {}  # signal -> claiming proc index
        for index, proc in enumerate(self.comb_procs):
            writes = self._proc_write_set(proc)
            self._comb_writes.append(writes)
            for name in writes:
                if name in state:
                    raise FormalUnsupported(
                        "signal driven by both clocked and "
                        "combinational logic")
                if name == clock_name:
                    raise FormalUnsupported("clock driven inside the design")
                prev = claimed.get(name)
                if prev is not None and prev != index:
                    signal = self.design.signals.get(name)
                    if not self._disjoint_assign_bits(name):
                        raise FormalUnsupported(
                            f"multiple combinational drivers of "
                            f"{(signal.name if signal else name)!r}")
                claimed[name] = index

    def _disjoint_assign_bits(self, name: str) -> bool:
        """True when every continuous assign driving ``name`` touches a
        statically distinct bit range (legal split-bus drivers)."""
        covered: Set[int] = set()
        from ..sim.eval import ConstStore, EvalError, Evaluator
        from ..sim.interp import SimulationError, resolve_lvalue
        const_eval = Evaluator(ConstStore())
        for proc in self.comb_procs:
            if proc.assign is None:
                # A body-form process writes with last-write-wins var
                # semantics; sharing bits with anything is a conflict.
                if name in self._proc_write_set(proc):
                    return False
                continue
            target, _ = proc.assign
            scope = proc.target_scope or proc.scope
            if name not in self._proc_write_set(proc):
                continue
            try:
                ops = resolve_lvalue(target, scope, const_eval)
            except (EvalError, SimulationError):
                return False
            for op in ops:
                if op.signal.name != name:
                    continue
                if op.oob or op.mem_index is not None:
                    return False
                for bit in range(op.lo, op.hi + 1):
                    if bit in covered:
                        return False
                    covered.add(bit)
        return True

    def _proc_read_set(self, proc: CombProcess) -> Set[str]:
        reads: Set[str] = set()
        if proc.assign is not None:
            target, value = proc.assign
            collect_reads(value, proc.scope, reads)
            collect_lvalue_index_reads(
                target, proc.target_scope or proc.scope, reads)
        else:
            collect_reads(proc.body, proc.scope, reads)
        return reads

    def _order_comb(self) -> None:
        """Topologically order combinational processes writer→reader;
        a cycle in the over-approximated dependency graph is rejected
        (the simulator would settle it iteratively, possibly x)."""
        n = len(self.comb_procs)
        reads = [self._proc_read_set(p) for p in self.comb_procs]
        writer_of: Dict[str, List[int]] = {}
        for index, writes in enumerate(self._comb_writes):
            for name in writes:
                writer_of.setdefault(name, []).append(index)
        successors: List[Set[int]] = [set() for _ in range(n)]
        indegree = [0] * n
        for index in range(n):
            for name in reads[index]:
                for writer in writer_of.get(name, ()):
                    if writer != index and index not in successors[writer]:
                        successors[writer].add(index)
                        indegree[index] += 1
        ready = sorted(i for i in range(n) if indegree[i] == 0)
        order: List[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in sorted(successors[node]):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != n:
            raise FormalUnsupported("combinational loop")
        self._comb_order = order
        clock_name = self.clock[1] if self.clock else None
        if clock_name is not None:
            used: Set[str] = set()
            for read_set in reads:
                used |= read_set
            for proc in self.edge_procs:
                collect_reads(proc.body, proc.scope, used)
            if clock_name in used:
                raise FormalUnsupported("clock used as data")

    # -- evaluation -----------------------------------------------------

    def _make_context(self, inputs: Dict[str, List[int]],
                      state: _State) -> SymbolicContext:
        ctx = SymbolicContext(self.design, self.mgr, self.budget)
        for signal in self.design.signals.values():
            if signal.is_memory:
                continue
            ctx.init_signal(signal)
        for name, bits in inputs.items():
            signal = self.design.signals[name]
            ctx.init_signal(signal, bits, defined=True)
        if self.clock is not None:
            ctx.init_signal(self.design.signals[self.clock[1]],
                            [FALSE], defined=True)
        for name, (bits, guards) in state.items():
            ctx.env[name] = list(bits)
            ctx.undef[name] = list(guards)
        return ctx

    def _run_comb(self, ctx: SymbolicContext) -> None:
        for index in self._comb_order:
            proc = self.comb_procs[index]
            if proc.assign is not None:
                ctx.run_comb_assign(proc)
            else:
                ctx.exec_stmt(proc.body, proc.scope)

    def _run_initials(self) -> _State:
        """Execute initial blocks (constants only) for seed values."""
        ctx = SymbolicContext(self.design, self.mgr, self.budget)
        for signal in self.design.signals.values():
            if signal.is_memory:
                continue
            ctx.init_signal(signal)
        for proc in self.initial_procs:
            ctx.exec_stmt(proc.body, proc.scope)
        ctx.apply_nba()
        state: _State = {}
        comb_written: Set[str] = set()
        for writes in getattr(self, "_comb_writes", []):
            comb_written |= writes
        for name, guards in ctx.undef.items():
            if all(g == TRUE for g in guards):
                continue  # never written
            if name in comb_written:
                continue  # settle overwrites the seed at t=0
            if name not in self.design.signals:
                continue  # block-local temp
            state[name] = (ctx.env[name], guards)
        return state

    @property
    def is_sequential(self) -> bool:
        return bool(self.edge_procs)

    def data_inputs(self) -> List[Signal]:
        clock_name = self.clock[1] if self.clock else None
        return [signal for name, signal in sorted(self.design.inputs.items())
                if name != clock_name]

    def outputs(self) -> List[Signal]:
        return [signal for _, signal in sorted(self.design.outputs.items())]

    def initial_full_state(self, free_state: bool) -> _State:
        """The cycle-0 state; undefined bits become fresh variables when
        ``free_state`` (checks then cover *all* initial states)."""
        state: _State = dict(self.initial_state)
        for name in self.state_names:
            signal = self.design.signals[name]
            if signal.is_memory:
                raise FormalUnsupported(f"memory {name!r}")
            bits, guards = state.get(
                name, ([FALSE] * signal.width, [TRUE] * signal.width))
            if any(g != FALSE for g in guards):
                if not free_state:
                    raise FormalUnsupported("uninitialized sequential state")
                bits = list(bits)
                for i, guard in enumerate(guards):
                    if guard != FALSE:
                        bits[i] = self.pool.var(f"{name}@init", i, 0)
                state[name] = (bits, [FALSE] * signal.width)
        return state

    def settle(self, inputs: Dict[str, List[int]],
               state: _State) -> SymbolicContext:
        ctx = self._make_context(inputs, state)
        self._run_comb(ctx)
        return ctx

    def step(self, inputs: Dict[str, List[int]],
             state: _State) -> Tuple[_State, SymbolicContext]:
        """One clock cycle: pre-edge settle, edge processes in design
        order (mirroring the kernel's FIFO), NBA commit, post-edge
        settle with the same inputs."""
        ctx = self._make_context(inputs, state)
        self._run_comb(ctx)
        for proc in self.edge_procs:
            ctx.exec_stmt(proc.body, proc.scope)
        ctx.apply_nba()
        persistent = set(self.state_names) | set(self.initial_state)
        new_state: _State = {
            name: (ctx.env[name], ctx.undef[name])
            for name in sorted(persistent)
            if name in ctx.env
        }
        out_ctx = self.settle(inputs, new_state)
        return new_state, out_ctx

    def cycles(self, n: int, state: _State,
               clocked: bool) -> Iterator[Tuple[int, SymbolicContext]]:
        """``(cycle, settled context)`` for each of ``n`` cycles from
        ``state`` under the pool's input variables of that cycle: one
        clock edge per cycle when ``clocked``, else one settle."""
        for cycle in range(n):
            stimulus = {signal.name: self.pool.input_bits(signal, cycle)
                        for signal in self.data_inputs()}
            if clocked:
                state, ctx = self.step(stimulus, state)
            else:
                ctx = self.settle(stimulus, state)
            yield cycle, ctx

    def read_output(self, ctx: SymbolicContext, signal: Signal) -> SymVec:
        try:
            return ctx.read_signal(signal)
        except FormalUnsupported:
            raise FormalUnsupported(
                f"output {signal.name!r} not fully driven")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _as_design(source: DesignLike, top: Optional[str] = None) -> Design:
    if isinstance(source, Design):
        return source
    return elaborate_source(source, top)


def _checked(mode: str, bound: int, node_budget: int,
             designs: Sequence[Tuple[DesignLike, Optional[str]]],
             check: Callable[..., FormalReport]) -> FormalReport:
    """``check(*models)`` over ``designs`` (each with its top), modelled
    on one BDD manager and input pool, with the report's sizes filled
    in.

    A design that does not parse or elaborate gives an ``error``
    report; one outside the modelled subset, or past the BDD node
    budget or a model's step budget, an ``unsupported`` one.  Both
    carry ``bound`` and no sizes.
    """
    try:
        elaborated = [_as_design(design, top) for design, top in designs]
    except (ParseError, ElaborationError) as exc:
        return FormalReport(mode=mode, status="error", bound=bound,
                            detail=f"{type(exc).__name__}: {exc}")
    mgr = BDDManager(node_budget=node_budget)
    pool = _VarPool(mgr)
    try:
        models = [DesignModel(design, mgr, pool) for design in elaborated]
        report = check(*models)
    except BDDBudgetError:
        reason = "BDD node budget exceeded"
    except FormalUnsupported as exc:
        reason = exc.reason
    except StepBudgetExceeded as exc:
        reason = str(exc)
    else:
        report.n_inputs = sum(s.width for s in models[0].data_inputs())
        report.n_outputs = sum(s.width for s in models[0].outputs())
        report.n_state_bits = sum(model.design.signals[name].width
                                  for model in models
                                  for name in model.state_names)
        report.n_bdd_nodes = len(mgr)
        return report
    return FormalReport(mode=mode, status="unsupported", detail=reason,
                        bound=bound)


def _ports_match(a: DesignModel, b: DesignModel) -> Optional[str]:
    def port_map(signals: Sequence[Signal]) -> Dict[str, int]:
        return {s.name: s.width for s in signals}

    in_a, in_b = port_map(a.data_inputs()), port_map(b.data_inputs())
    if in_a != in_b:
        return "input ports differ"
    out_a, out_b = port_map(a.outputs()), port_map(b.outputs())
    if out_a != out_b:
        return "output ports differ"
    return None


def _assignment_inputs(assignment: Dict[int, bool], pool: _VarPool,
                       n_cycles: int,
                       inputs: Sequence[Signal]) -> List[Dict[str, int]]:
    """Decode a BDD model into per-cycle input integers (don't-care
    variables read as 0, making replays deterministic)."""
    cycles: List[Dict[str, int]] = []
    values: Dict[Tuple[str, int, int], bool] = {}
    for var, bit in assignment.items():
        origin = pool.origin.get(var)
        if origin is not None:
            values[origin] = bit
    for cycle in range(n_cycles):
        row = {}
        for signal in inputs:
            acc = 0
            for i in range(signal.width):
                if values.get((signal.name, i, cycle), False):
                    acc |= 1 << i
            row[signal.name] = acc
        cycles.append(row)
    return cycles


def _sym_int(mgr: BDDManager, value: SymVec,
             assignment: Dict[int, bool]) -> int:
    acc = 0
    for i, bit in enumerate(value.bits):
        if mgr.eval_node(bit, assignment):
            acc |= 1 << i
    return acc


def check_equivalence(design_a: DesignLike, design_b: DesignLike,
                      bound: int = DEFAULT_BOUND,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      top_a: Optional[str] = None,
                      top_b: Optional[str] = None) -> FormalReport:
    """Exact (combinational) or bounded (sequential) equivalence.

    Two sequential designs compare over ``bound`` cycles from their
    declared initial states; a ``counterexample`` in the report gives
    per-cycle input values replayable against the simulator.
    """
    def check(model_a: DesignModel, model_b: DesignModel) -> FormalReport:
        mismatch = _ports_match(model_a, model_b)
        if mismatch is not None:
            raise FormalUnsupported(mismatch)
        sequential = model_a.is_sequential or model_b.is_sequential
        n_cycles = bound if sequential else 1
        if sequential and bound < 1:
            raise FormalUnsupported("bound must be >= 1")
        mgr, pool = model_a.mgr, model_a.pool
        inputs = model_a.data_inputs()
        report = FormalReport(mode="equivalence", status="equivalent",
                              bound=n_cycles)
        runs = zip(
            model_a.cycles(n_cycles, model_a.initial_full_state(False),
                           sequential),
            model_b.cycles(n_cycles, model_b.initial_full_state(False),
                           sequential))
        for (cycle, ctx_a), (_, ctx_b) in runs:
            for signal in model_a.outputs():
                value_a = model_a.read_output(
                    ctx_a, model_a.design.outputs[signal.name])
                value_b = model_b.read_output(
                    ctx_b, model_b.design.outputs[signal.name])
                miscompare = mgr.not_(mgr.and_all(
                    mgr.xnor_(x, y)
                    for x, y in zip(value_a.bits, value_b.bits)))
                if miscompare == FALSE:
                    continue
                assignment = mgr.sat_one(miscompare)
                assert assignment is not None
                report.status = "inequivalent"
                report.detail = (
                    f"output {signal.name!r} differs at cycle {cycle}")
                report.counterexample = {
                    "cycles": _assignment_inputs(
                        assignment, pool, cycle + 1, inputs),
                    "output": signal.name,
                    "cycle": cycle,
                    "value_a": _sym_int(mgr, value_a, assignment),
                    "value_b": _sym_int(mgr, value_b, assignment),
                }
                return report
        return report
    return _checked("equivalence", bound, node_budget,
                    [(design_a, top_a), (design_b, top_b)], check)


def _parse_assertion(text: str) -> ast.Expr:
    """Parse a boolean expression by wrapping it in a throwaway module."""
    wrapper = (f"module __assertion__;\n"
               f"wire __p__;\n"
               f"assign __p__ = ({text});\n"
               f"endmodule\n")
    source = parse(wrapper)
    if not source.modules:
        raise ParseError("assertion did not parse")
    for item in source.modules[-1].items:
        if isinstance(item, ast.ContinuousAssign):
            return item.value
    raise ParseError("assertion did not parse")


def check_properties(design: DesignLike,
                     assertions: Sequence[str],
                     bound: int = DEFAULT_BOUND,
                     node_budget: int = DEFAULT_NODE_BUDGET,
                     top: Optional[str] = None) -> FormalReport:
    """Check boolean assertions over top-level nets for all inputs.

    Sequential designs are checked at the end of each of ``bound``
    cycles; a design without initial state is checked from *every*
    possible initial state (stronger than reachable-state checking, so
    ``holds`` is sound and a ``fails`` counterexample may start from an
    unreachable state — the report says which).
    """
    def check(model: DesignModel) -> FormalReport:
        mgr = model.mgr
        free_state = False
        try:
            state = model.initial_full_state(free_state=False)
        except FormalUnsupported:
            state = model.initial_full_state(free_state=True)
            free_state = True
        n_cycles = bound if model.is_sequential else 1
        scope = model.design.top_scope
        if scope is None:
            scope = Scope("")
        contexts = list(model.cycles(n_cycles, state, model.is_sequential))
        inputs = model.data_inputs()
        results: List[Dict[str, Any]] = []
        for text in assertions:
            entry: Dict[str, Any] = {"assertion": text, "status": "holds",
                                     "detail": "", "counterexample": None}
            try:
                expr = _parse_assertion(text)
                for cycle, ctx in contexts:
                    value = ctx.eval_sym(expr, scope)
                    violated = mgr.not_(value.truthy())
                    if violated == FALSE:
                        continue
                    assignment = mgr.sat_one(violated)
                    assert assignment is not None
                    entry["status"] = "fails"
                    entry["detail"] = (
                        f"violated at cycle {cycle}"
                        + (" (from an arbitrary initial state)"
                           if free_state else ""))
                    entry["counterexample"] = {
                        "cycles": _assignment_inputs(
                            assignment, model.pool, cycle + 1, inputs),
                        "cycle": cycle,
                    }
                    break
            except ParseError as exc:
                entry["status"] = "error"
                entry["detail"] = f"ParseError: {exc}"
            except FormalUnsupported as exc:
                entry["status"] = "unsupported"
                entry["detail"] = exc.reason
            results.append(entry)
        statuses = {entry["status"] for entry in results}
        if "fails" in statuses:
            overall = "fails"
        elif statuses - {"holds"}:
            overall = "unsupported"
        else:
            overall = "holds"
        return FormalReport(
            mode="properties", status=overall, bound=n_cycles,
            detail="free initial state" if free_state else "",
            properties=results)
    return _checked("properties", bound, node_budget, [(design, top)], check)


def verify_design(design: DesignLike, bound: int = 2,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  top: Optional[str] = None) -> FormalReport:
    """The curation-tier well-formedness verdict.

    ``verified`` means: the design elaborates into the modelled
    synchronous subset, has no combinational loops, no conflicting or
    missing drivers, and every output bit is a defined two-valued
    function of inputs and state on **all** paths — checked for all
    input vectors and (when state is uninitialized) all initial states.
    """
    def check(model: DesignModel) -> FormalReport:
        n_cycles = bound if model.is_sequential else 1
        for _, ctx in model.cycles(n_cycles,
                                   model.initial_full_state(free_state=True),
                                   model.is_sequential):
            for signal in model.outputs():
                model.read_output(ctx, signal)
        kind = "sequential" if model.is_sequential else "combinational"
        return FormalReport(mode="verify", status="verified", bound=n_cycles,
                            detail=f"{kind} design, all outputs defined")
    return _checked("verify", bound, node_budget, [(design, top)], check)


def verify_code(code: str, bound: int = 2,
                node_budget: int = DEFAULT_NODE_BUDGET) -> Tuple[bool, str]:
    """Curation convenience: ``(verified, detail)`` for raw source.

    Never raises — any parse/elaboration/unsupported outcome is a
    ``(False, reason)`` verdict.
    """
    try:
        report = verify_design(code, bound=bound, node_budget=node_budget)
    except Exception as exc:  # pragma: no cover - defensive
        return False, f"{type(exc).__name__}: {exc}"
    if report.status == "verified":
        return True, report.detail
    return False, f"{report.status}: {report.detail}"


__all__ = [
    "DEFAULT_BOUND",
    "FORMAL_REPORT_SCHEMA",
    "DesignModel",
    "FormalReport",
    "check_equivalence",
    "check_properties",
    "verify_code",
    "verify_design",
]
