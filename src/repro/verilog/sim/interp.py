"""Procedural statements, lvalues and user functions, compiled.

A :class:`Compiler` turns statements into closures ``fn(frame)``.  The
frame's slot 0 is the *machine* charged for the work: the kernel's
:class:`StepBudget` for module code, a :class:`_Call` (one per function
call: its depth, charging the same budget) inside functions; the other
slots hold the running function's local variables.

Processes that may not suspend (continuous logic, edge-triggered
blocks, function bodies) compile to plain closures, and a timing
control reached in one raises :class:`SimulationError`.  Threads
(``initial`` and timed ``always``) compile to generator functions that
yield suspension requests the kernel turns into scheduler events, but
only for statements that contain ``#``, ``@`` or ``wait``; the rest of
a thread runs as plain closures.

Every statement executed charges one step, and every loop iteration
one more (a run of empty statements charges its length at once).  All
of it is charged to one :class:`StepBudget` of ``STEP_BUDGET`` steps per
entry into Verilog execution: building a simulator, one ``settle`` of
the kernel (a poke or a clock edge), one ``run``, or one function call
in a constant context.  Running out raises :class:`StepBudgetExceeded`,
so a runaway loop or recursion fails after a bounded number of steps
wherever it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from .. import ast_nodes as ast
from .design import (
    FuncBinding,
    Scope,
    Signal,
    SignalBinding,
    TaskBinding,
    declared_signal,
)
from .eval import (
    ConstStore,
    EvalError,
    Evaluator,
    ExprCompiler,
    FrameSignal,
    NotStatic,
    constant,
    indexed_bounds,
    part_bounds,
    raiser,
    resolve_hierarchical,
)
from .values import Vec4


class SimulationError(Exception):
    """Raised for runtime semantic errors (x index writes aside) and
    exceeded execution budgets."""


class StepBudgetExceeded(SimulationError):
    """An entry into Verilog execution ran out of its step budget."""


class StopSimulation(Exception):
    """Raised by ``$finish`` / ``$stop``."""


#: A suspension request produced by a timing control.
#: kinds: ("delay", ticks) | ("event", SensitivityList, scope)
#:        | ("wait", cond_expr, scope)
Suspension = Tuple


@dataclass
class WriteOp:
    """One resolved slice of an lvalue.

    ``mem_index`` is the zero-based element offset for memories.  ``hi``
    and ``lo`` are physical bit positions within the element/signal; a
    full write has ``hi == width-1, lo == 0``.  ``oob`` marks writes
    whose index fell outside the target (silently dropped, per LRM).
    """

    signal: Signal
    mem_index: Optional[int]
    hi: int
    lo: int
    oob: bool = False

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


def split_value_for_ops(value: Vec4, ops: Sequence[WriteOp]) -> List[Vec4]:
    """Distribute ``value`` across MSB-first write slices."""
    total = sum(op.width for op in ops)
    value = value.resize(total) if value.width < total else value
    pieces: List[Vec4] = []
    offset = total
    for op in ops:
        offset -= op.width
        pieces.append(value.slice(offset + op.width - 1, offset))
    return pieces


#: Steps one entry into Verilog execution may take.  No entry of a
#: non-runaway functional test over the corpus families, their operator
#: mutants, the eval suites and the Table I grid takes more than 67.
STEP_BUDGET = 100_000

#: Calls nested deeper than this return all-x instead of running.
MAX_FUNCTION_DEPTH = 64


class StepBudget:
    """The steps left to one entry into Verilog execution."""

    __slots__ = ("left",)

    def __init__(self) -> None:
        self.left = STEP_BUDGET

    def charge(self, amount: int) -> None:
        self.left -= amount
        if self.left <= 0:
            raise StepBudgetExceeded(
                f"step budget exceeded ({STEP_BUDGET} steps)")


# ---------------------------------------------------------------------------
# Lvalues
# ---------------------------------------------------------------------------

#: A compiled lvalue: frame in, MSB-first write slices out.
LvalueFn = Callable[[Optional[list]], List[WriteOp]]


def compile_lvalue(xc: ExprCompiler, expr: ast.Expr,
                   scope: Scope) -> Tuple[Optional[List[WriteOp]], LvalueFn]:
    """(ops, fn): ``ops`` when the slices are fixed (constant indices),
    else None and ``fn(frame)`` resolves them each time."""
    fn, pure = _lvalue(xc, expr, scope)
    if not pure:
        return None, fn
    try:
        ops = fn(None)
    except Exception as exc:  # deferred to the point of assignment
        return None, raiser(exc)
    return ops, lambda fr: ops


def resolve_lvalue(
    expr: ast.Expr, scope: Scope, evaluator: Evaluator
) -> List[WriteOp]:
    """Flatten an lvalue into MSB-first :class:`WriteOp` slices."""
    ops, fn = compile_lvalue(evaluator.compiler, expr, scope)
    return list(ops) if ops is not None else fn(None)


def _lvalue(xc: ExprCompiler, expr, scope: Scope) -> Tuple[LvalueFn, bool]:
    if isinstance(expr, ast.Concat):
        parts = [_lvalue(xc, part, scope) for part in expr.parts]
        fns = [fn for fn, _ in parts]

        def concat(fr):
            ops: List[WriteOp] = []
            for fn in fns:
                ops.extend(fn(fr))
            return ops
        return concat, all(pure for _, pure in parts)
    if isinstance(expr, (ast.Identifier, ast.HierarchicalId)):
        try:
            signal = _lookup_signal(xc, expr, scope)
        except (EvalError, SimulationError) as exc:
            return raiser(exc), True
        if signal.is_memory:
            return raiser(SimulationError(
                f"memory {signal.name!r} assigned without an index")), True
        ops = [WriteOp(signal, None, signal.width - 1, 0)]
        return (lambda fr: ops), True
    if isinstance(expr, ast.Select):
        return _select_lvalue(xc, expr, scope)
    return raiser(SimulationError(
        f"invalid assignment target {type(expr).__name__}")), True


def _lookup_signal(xc: ExprCompiler, expr, scope: Scope) -> Signal:
    if isinstance(expr, ast.Identifier):
        binding = scope.lookup(expr.name)
        if isinstance(binding, SignalBinding):
            return binding.signal
        raise SimulationError(f"cannot assign to {expr.name!r}")
    return resolve_hierarchical(expr, scope, xc.signals)


def _binding_signal(ident: ast.Identifier, scope: Scope) -> Optional[Signal]:
    binding = scope.lookup(ident.name)
    if isinstance(binding, SignalBinding):
        return binding.signal
    return None


def _full_oob(signal: Signal, mem_index: Optional[int] = None):
    return [WriteOp(signal, mem_index, signal.width - 1, 0, oob=True)]


def _element(xc: ExprCompiler, signal: Signal, index_expr, scope: Scope,
             then):
    """Memory element target: resolve the element, then ``then``."""
    index, index_pure = xc.compile(index_expr, scope)
    rest, rest_pure = then
    first, size = signal.array_min, signal.array_size

    def element(fr):
        i = index(fr)
        if i.xz:
            return _full_oob(signal)
        mem_index = i.val - first
        if mem_index < 0 or mem_index >= size:
            return _full_oob(signal)
        return rest(fr, mem_index)
    return element, index_pure and rest_pure


def _select_lvalue(xc: ExprCompiler, expr: ast.Select, scope: Scope):
    # Memory element target: mem[idx] or mem[idx][hi:lo].
    base = expr.base
    if isinstance(base, ast.Select) and isinstance(base.base, ast.Identifier):
        inner = _binding_signal(base.base, scope)
        if inner is not None and inner.is_memory and base.kind == "bit":
            return _element(xc, inner, base.left, scope,
                            _select_bits(xc, expr, inner, scope))
    if isinstance(base, ast.Identifier):
        signal = _binding_signal(base, scope)
        if signal is None:
            return raiser(SimulationError(
                f"cannot assign to {base.name!r}")), True
        if signal.is_memory:
            if expr.kind != "bit":
                return raiser(SimulationError(
                    f"memory {signal.name!r} needs an element index")), True
            whole = (lambda fr, mem_index: [
                WriteOp(signal, mem_index, signal.width - 1, 0)]), True
            return _element(xc, signal, expr.left, scope, whole)
        bits, pure = _select_bits(xc, expr, signal, scope)
        return (lambda fr: bits(fr, None)), pure
    return raiser(SimulationError("unsupported nested lvalue select")), True


def _select_bits(xc: ExprCompiler, expr: ast.Select, signal: Signal,
                 scope: Scope):
    """(fn(frame, mem_index) -> ops, pure) for a bit, part or indexed
    select of ``signal`` (or of one of its memory elements)."""
    width = signal.width
    if expr.kind == "bit":
        index, pure = xc.compile(expr.left, scope)
        position = signal.bit_position

        def bit(fr, mem_index):
            i = index(fr)
            if i.xz:
                return _full_oob(signal, mem_index)
            pos = position(i.to_signed_int() if i.signed else i.val)
            if pos < 0 or pos >= width:
                return [WriteOp(signal, mem_index, 0, 0, oob=True)]
            return [WriteOp(signal, mem_index, pos, pos)]
        return bit, pure

    def sliced(mem_index, bounds):
        hi, lo = bounds
        if lo < 0 or hi >= width:
            return [WriteOp(signal, mem_index, max(hi, 0), max(lo, 0),
                            oob=True)]
        return [WriteOp(signal, mem_index, hi, lo)]
    if expr.kind == "part":
        _, msb, msb_pure = xc.const_int(expr.left, scope)
        _, lsb, lsb_pure = xc.const_int(expr.right, scope)

        def part(fr, mem_index):
            return sliced(mem_index, part_bounds(signal, msb(fr), lsb(fr)))
        return part, msb_pure and lsb_pure
    # Indexed part select.
    _, size, size_pure = xc.const_int(expr.right, scope)
    start, start_pure = xc.compile(expr.left, scope)
    plus = expr.kind == "plus"

    def indexed(fr, mem_index):
        w = size(fr)
        s = start(fr)
        if s.xz:
            return _full_oob(signal, mem_index)
        return sliced(mem_index, indexed_bounds(signal, s.val, w, plus))
    return indexed, size_pure and start_pure


# ---------------------------------------------------------------------------
# Function calls
# ---------------------------------------------------------------------------


class _Call:
    """The machine of one function call: its nesting depth, and the
    ``charge`` of the budget of the entry that made the call."""

    __slots__ = ("charge", "depth")

    def __init__(self, charge, depth: int) -> None:
        self.charge = charge
        self.depth = depth


class _Function:
    """One user function, compiled on its first call."""

    def __init__(self, compiler: "Compiler", binding: FuncBinding) -> None:
        self._compiler = compiler
        self.binding = binding
        self._run = None

    def call(self, args: List[Vec4], charge, depth: int) -> Vec4:
        """Evaluate a call, charging its steps to ``charge``.

        Recursion beyond the depth cap returns all-x instead of failing:
        unknown inputs can drive unbounded recursion (``fact(x)``), and in
        real Verilog non-automatic functions produce garbage there rather
        than aborting the simulation.
        """
        decl = self.binding.decl
        if depth > MAX_FUNCTION_DEPTH:
            return Vec4.all_x(64, decl.signed)
        call = _Call(charge, depth)
        if len(args) != len(decl.inputs):
            raise SimulationError(
                f"function {decl.name!r} expects {len(decl.inputs)} args, "
                f"got {len(args)}"
            )
        if self._run is None:
            self._run = self._compile()
        return self._run(call, args)

    def _compile(self):
        """The function's frame layout and body, once, when every
        declared range is constant; else a runner that lays the frame
        out and compiles the body on each call."""
        try:
            ret, inputs, inits, body, size = self._layout(None)
        except NotStatic:
            return self._run_dynamic

        def run(call, args):
            fr = [call] + [None] * (size - 1)
            fr[ret.slot] = Vec4.all_x(ret.width, ret.signed)
            for signal, actual in zip(inputs, args):
                fr[signal.slot] = actual.resize(signal.width).resize(
                    signal.width, signal.signed)
            for slot, init in inits:
                fr[slot] = init()
            body(fr)
            return fr[ret.slot]
        return run

    def _run_dynamic(self, call, args):
        fr = [call]
        ret, _, _, body, size = self._layout(fr, args)
        fr.extend([None] * (size - len(fr)))
        body(fr)
        return fr[ret.slot]

    def _layout(self, fr, args=None):
        """Declare the return variable, inputs and locals in order, bind
        them in the function's scope and compile the body.  Without a
        frame every range must be constant; with one, ranges are
        evaluated against it as it is built and inputs written in turn."""
        compiler = self._compiler
        binding = self.binding
        decl = binding.decl
        scope = binding.scope.child(f"__fn_{decl.name}")
        slots = [1]
        ret = declared_signal(
            decl, f"__ret_{decl.name}",
            lambda bound: compiler.local.frame_int(bound, binding.scope, fr),
            FrameSignal)
        ret.slot = _take_slot(slots, fr, Vec4.all_x(ret.width, ret.signed))
        scope.bind(decl.name, SignalBinding(signal=ret))
        inputs = []
        for index, formal in enumerate(decl.inputs):
            signal, _ = compiler.declare_frame(formal, scope, fr, slots)
            if fr is not None:
                fr[signal.slot] = args[index].resize(signal.width).resize(
                    signal.width, signal.signed)
            inputs.append(signal)
        inits = [compiler.declare_frame(local, scope, fr, slots)
                 for local in decl.locals]
        inits = [(signal.slot, init) for signal, init in inits]
        body = compiler.atomic(decl.body, scope, _Env(compiler.local, slots))
        return ret, inputs, inits, body, slots[0]


def _take_slot(slots: List[int], fr: Optional[list], value) -> int:
    slot = slots[0]
    slots[0] += 1
    if fr is not None:
        fr.append(value)
    return slot


def _fresh(signal: Signal) -> Callable[[], object]:
    """Initial value of a frame variable: all-x (a memory: unsigned
    all-x elements)."""
    if signal.is_memory:
        width, size = signal.width, signal.array_size
        return lambda: [Vec4.all_x(width) for _ in range(size)]
    value = Vec4.all_x(signal.width, signal.signed)
    return lambda: value


def run_function(binding: FuncBinding, args: List[Vec4],
                 base_store) -> Vec4:
    """Evaluate a user function call outside a kernel (constant
    folding, formal), compiling it for ``base_store``; the call is an
    entry of its own, with a fresh step budget."""
    return Compiler(base_store).function(binding).call(
        args, StepBudget().charge, 0)


def const_function_caller(binding: FuncBinding, args: List[Vec4]) -> Vec4:
    """Function caller for constant contexts (parameter folding)."""
    return run_function(binding, args, ConstStore())


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class _Env:
    """Where compiled statements run: module code (``slots`` None) or a
    function body, whose variables get frame slots from ``slots``."""

    __slots__ = ("xc", "slots")

    def __init__(self, xc: ExprCompiler, slots: Optional[List[int]]) -> None:
        self.xc = xc
        self.slots = slots


def _noop(fr) -> None:
    return None


def _no_suspend(fr):
    return
    yield  # pragma: no cover - makes this a generator function


def _as_gen(fn):
    def gen(fr):
        fn(fr)
        return
        yield  # pragma: no cover - makes this a generator function
    return gen


def _timing_error(kind: str) -> SimulationError:
    return SimulationError(
        "timing control inside a combinational or edge-triggered "
        f"process (suspension {kind!r})"
    )


def case_match(kind: str, subject: Vec4, label: Vec4) -> bool:
    """Case-item matching for case/casez/casex."""
    width = max(subject.width, label.width)
    a = subject.resize(width)
    b = label.resize(width)
    if kind == "case":
        return a.val == b.val and a.xz == b.xz and a.z == b.z
    care = (1 << width) - 1
    if kind == "casez":
        care &= ~a.z & ~b.z
    elif kind == "casex":
        care &= ~a.xz & ~b.xz
    return (
        (a.val & care) == (b.val & care)
        and (a.xz & care) == (b.xz & care)
    )


class Compiler:
    """Compiles procedural code against one store.

    The kernel keeps one for its design, so every process, lvalue and
    function is compiled once per simulation; constant contexts
    (elaboration, formal) build one per function call.  ``kernel`` is
    the simulation kernel behind ``store`` (None in constant contexts):
    it receives writes, ``$display`` and block-local variables.
    """

    def __init__(self, store, kernel=None) -> None:
        self.kernel = kernel
        self.module = ExprCompiler(store, self._module_call)
        self.local = ExprCompiler(store, self._nested_call, frame=True)
        #: id(binding) -> (binding, _Function); the binding is held so
        #: its id stays its own.
        self._functions = {}
        #: id(block) -> (block, number) for unnamed blocks, likewise.
        self._unnamed = {}

    def _block_name(self, stmt: ast.Block) -> str:
        """A block's scope name: its own, or a number of its own for an
        unnamed block, so no two unnamed blocks share variables."""
        return stmt.name or "__blk{}".format(self._unnamed.setdefault(
            id(stmt), (stmt, len(self._unnamed)))[1])

    # -- functions -----------------------------------------------------------

    def function(self, binding: FuncBinding) -> _Function:
        entry = self._functions.get(id(binding))
        if entry is None:
            entry = self._functions[id(binding)] = (
                binding, _Function(self, binding))
        return entry[1]

    def _module_call(self, binding, args):
        function = self.function(binding)
        call = function.call

        def module_call(fr):
            return call([a(fr) for a in args], fr[0].charge, 0)
        return module_call

    def _nested_call(self, binding, args):
        function = self.function(binding)
        call = function.call

        def nested_call(fr):
            values = [a(fr) for a in args]
            caller = fr[0]
            return call(values, caller.charge, caller.depth + 1)
        return nested_call

    def declare_frame(self, decl: ast.Decl, scope: Scope, fr,
                      slots: List[int]):
        """Create a frame variable for ``decl``, bind it, and return it
        with its initial-value maker."""
        signal = declared_signal(
            decl, f"__local_{decl.name}",
            lambda bound: self.local.frame_int(bound, scope, fr),
            FrameSignal)
        init = _fresh(signal)
        signal.slot = _take_slot(slots, fr, None if fr is None else init())
        scope.bind(decl.name, SignalBinding(signal=signal))
        return signal, init

    # -- entry points ----------------------------------------------------------

    def atomic(self, stmt, scope: Scope, env: Optional[_Env] = None):
        """A body that must not suspend (comb/edge block, function)."""
        return self._plain(stmt, scope, env or _Env(self.module, None))

    def thread(self, stmt, scope: Scope):
        """An ``initial`` or timed ``always`` body, as a generator
        function yielding suspension requests."""
        return self._gen(stmt, scope, _Env(self.module, None))

    # -- plain statements --------------------------------------------------------

    def _plain(self, stmt, scope: Scope, env: _Env):
        if stmt is None:
            return _noop
        xc = env.xc
        if isinstance(stmt, ast.Block):
            if stmt.decls:
                return self._declaring(
                    stmt.decls, scope, self._block_name(stmt), env,
                    lambda inner, e: self._seq(stmt.stmts, inner, e), False)
            body = self._seq(stmt.stmts, scope, env)

            def block(fr):
                fr[0].charge(1)
                body(fr)
            return block
        if isinstance(stmt, ast.Assign):
            return self._assign(stmt, scope, env, True)
        if isinstance(stmt, ast.If):
            cond = xc.expr(stmt.cond, scope)
            then = self._plain(stmt.then_stmt, scope, env)
            other = self._plain(stmt.else_stmt, scope, env)

            def if_(fr):
                fr[0].charge(1)
                if cond(fr).val:
                    then(fr)
                else:
                    other(fr)
            return if_
        if isinstance(stmt, ast.Case):
            subject, items, default = self._case_parts(stmt, scope, env,
                                                       self._plain)
            kind = stmt.kind

            def case(fr):
                fr[0].charge(1)
                s = subject(fr)
                for labels, body in items:
                    for label in labels:
                        if case_match(kind, s, label(fr)):
                            body(fr)
                            return
                if default is not None:
                    default(fr)
            return case
        if isinstance(stmt, (ast.For, ast.While, ast.Repeat, ast.Forever)):
            return self._loop(stmt, scope, env, self._plain)
        if isinstance(stmt, ast.Delay):
            amount = xc.expr(stmt.amount, scope)

            def delay(fr):
                fr[0].charge(1)
                amount(fr)
                raise _timing_error("delay")
            return delay
        if isinstance(stmt, ast.EventControl):
            def event(fr):
                fr[0].charge(1)
                raise _timing_error("event")
            return event
        if isinstance(stmt, ast.Wait):
            cond = xc.expr(stmt.cond, scope)
            then = self._plain(stmt.stmt, scope, env)

            def wait(fr):
                fr[0].charge(1)
                if not cond(fr).val:
                    raise _timing_error("wait")
                then(fr)
            return wait
        if isinstance(stmt, ast.SystemTaskCall):
            return self._system_task(stmt, scope)
        if isinstance(stmt, ast.TaskCall):
            return self._task_call(stmt, scope, env, False)
        if isinstance(stmt, (ast.NullStmt, ast.Disable)):
            return _charge_one
        error = SimulationError(
            f"unsupported statement {type(stmt).__name__}")

        def unsupported(fr):
            fr[0].charge(1)
            raise SimulationError(*error.args)
        return unsupported

    def _seq(self, stmts, scope: Scope, env: _Env):
        """A statement list; a run of empty statements charges once."""
        fns = []
        nulls = 0
        for stmt in stmts:
            if isinstance(stmt, (ast.NullStmt, ast.Disable)):
                nulls += 1
                continue
            if nulls:
                fns.append(_charge_steps(nulls))
                nulls = 0
            fns.append(self._plain(stmt, scope, env))
        if nulls:
            fns.append(_charge_steps(nulls))
        if len(fns) == 1:
            return fns[0]

        def seq(fr):
            for fn in fns:
                fn(fr)
        return seq

    def _case_parts(self, stmt: ast.Case, scope: Scope, env: _Env, compile_):
        xc = env.xc
        items = []
        default = None
        for item in stmt.items:
            if not item.exprs:
                default = compile_(item.body, scope, env)
                continue
            items.append(([xc.expr(e, scope) for e in item.exprs],
                          compile_(item.body, scope, env)))
        return xc.expr(stmt.subject, scope), items, default

    def _loop_parts(self, stmt, scope: Scope, env: _Env, compile_):
        """(init, cond, body, step) of a ``for``, ``while`` or
        ``forever`` loop; a ``for`` header's assignments are not charged
        as statements."""
        xc = env.xc
        init = step = _noop
        cond = constant(Vec4.from_int(1, 1))
        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                init = self._assign(stmt.init, scope, env, False)
            if stmt.cond is not None:
                cond = xc.expr(stmt.cond, scope)
            if stmt.step is not None:
                step = self._assign(stmt.step, scope, env, False)
        elif isinstance(stmt, ast.While):
            cond = xc.expr(stmt.cond, scope)
        return init, cond, compile_(stmt.body, scope, env), step

    def _loop(self, stmt, scope: Scope, env: _Env, compile_):
        """A loop: one step, and one more per iteration."""
        if isinstance(stmt, ast.Repeat):
            count = env.xc.expr(stmt.count, scope)
            body = compile_(stmt.body, scope, env)

            def repeat(fr):
                machine = fr[0]
                machine.charge(1)
                n = count(fr)
                if n.xz:
                    return
                for _ in range(n.val):
                    body(fr)
                    machine.charge(1)
            return repeat
        init, cond, body, step = self._loop_parts(stmt, scope, env, compile_)

        def loop(fr):
            machine = fr[0]
            machine.charge(1)
            init(fr)
            while cond(fr).val:
                body(fr)
                step(fr)
                machine.charge(1)
        return loop

    def _gen_loop(self, stmt, scope: Scope, env: _Env):
        """:meth:`_loop` for a body that may suspend."""
        if isinstance(stmt, ast.Repeat):
            count = env.xc.expr(stmt.count, scope)
            body = self._gen(stmt.body, scope, env)

            def repeat(fr):
                fr[0].charge(1)
                n = count(fr)
                if n.xz:
                    return
                for _ in range(n.val):
                    yield from body(fr)
                    fr[0].charge(1)
            return repeat
        init, cond, body, step = self._loop_parts(stmt, scope, env,
                                                  self._gen)

        def loop(fr):
            fr[0].charge(1)
            init(fr)
            while cond(fr).val:
                yield from body(fr)
                step(fr)
                fr[0].charge(1)
        return loop

    # -- assignments ---------------------------------------------------------

    def _assign(self, stmt: ast.Assign, scope: Scope, env: _Env,
                charged: bool):
        """``stmt`` as a closure; ``charged`` charges its step (a ``for``
        header's init and step assignments are not charged)."""
        xc = env.xc
        ops, ops_fn = compile_lvalue(xc, stmt.target, scope)
        blocking = stmt.blocking

        def value_at(total: int, signed_target: bool):
            value, _ = xc.compile(stmt.value, scope, total)

            def assigned(fr):
                v = value(fr)
                if v.width < total:
                    v = v.resize(total, v.signed)
                if signed_target:
                    v = v.as_signed(True)
                return v
            return assigned
        if ops is not None:
            total = sum(op.width for op in ops)
            value = value_at(total, len(ops) == 1 and ops[0].signal.signed)
            write = self._writer(ops, env, blocking)
            if charged:
                def assign(fr):
                    fr[0].charge(1)
                    write(fr, value(fr))
                return assign
            return lambda fr: write(fr, value(fr))
        cache = {}
        write_ops = self._dynamic_writer(env, blocking)

        def assign_dynamic(fr):
            if charged:
                fr[0].charge(1)
            resolved = ops_fn(fr)
            total = sum(op.width for op in resolved)
            key = (total, len(resolved) == 1 and resolved[0].signal.signed)
            value = cache.get(key)
            if value is None:
                value = cache[key] = value_at(*key)
            write_ops(fr, resolved, value(fr))
        return assign_dynamic

    def _writer(self, ops: List[WriteOp], env: _Env, blocking: bool):
        """fn(frame, value) writing ``value`` through fixed ``ops``."""
        if env.slots is None:
            return self.kernel.writer(ops, blocking)
        write_ops = self._dynamic_writer(env, blocking)
        return lambda fr, value: write_ops(fr, ops, value)

    def _dynamic_writer(self, env: _Env, blocking: bool):
        """fn(frame, ops, value) for ops resolved at run time."""
        if env.slots is None:
            write = self.kernel.write
            return lambda fr, ops, value: write(ops, value, blocking)
        if not blocking:
            def non_blocking(fr, ops, value):
                raise SimulationError(
                    "non-blocking assignment inside function")
            return non_blocking
        return _frame_write

    # -- system tasks and task calls -------------------------------------------

    def _system_task(self, stmt: ast.SystemTaskCall, scope: Scope):
        """``$display`` and friends go to the kernel, their arguments
        read as the kernel sees them; outside a kernel they do nothing."""
        if self.kernel is None:
            return _charge_one
        task = self.kernel.system_task_fn(stmt, scope)

        def system_task(fr):
            fr[0].charge(1)
            task()
        return system_task

    def _task_call(self, stmt: ast.TaskCall, scope: Scope, env: _Env,
                   threaded: bool):
        binding = scope.lookup(stmt.name)
        error = None
        if not isinstance(binding, TaskBinding):
            error = SimulationError(f"unknown task {stmt.name!r}")
        else:
            decl = binding.decl
            formals = decl.inputs + decl.outputs
            if len(stmt.args) != len(formals):
                error = SimulationError(
                    f"task {stmt.name!r} expects {len(formals)} args, "
                    f"got {len(stmt.args)}")
        if error is not None:
            def fail(fr):
                fr[0].charge(1)
                raise SimulationError(*error.args)
            return _as_gen(fail) if threaded else fail

        def build(task_scope: Scope, env: _Env):
            xc = env.xc
            ins = [(xc.expr(actual, scope),
                    compile_lvalue(xc, ast.Identifier(name=formal.name),
                                   task_scope)[1])
                   for formal, actual in zip(decl.inputs, stmt.args)]
            outs = [(xc.expr(ast.Identifier(name=formal.name), task_scope),
                     compile_lvalue(xc, actual, scope)[1])
                    for formal, actual in zip(decl.outputs,
                                              stmt.args[len(decl.inputs):])]
            write = self._dynamic_writer(env, True)
            compile_ = self._gen if threaded else self._plain
            body = compile_(decl.body, task_scope, env)

            def copy(fr, pairs):
                for value, target in pairs:
                    v = value(fr)
                    write(fr, target(fr), v)
            if threaded:
                def task_gen(fr):
                    copy(fr, ins)
                    yield from body(fr)
                    copy(fr, outs)
                return task_gen

            def task(fr):
                copy(fr, ins)
                body(fr)
                copy(fr, outs)
            return task
        return self._declaring(decl.inputs + decl.outputs + decl.locals,
                               binding.scope, f"__task_{stmt.name}", env,
                               build, threaded)

    def _declaring(self, decls, scope: Scope, suffix: str, env: _Env,
                   build, threaded: bool):
        """A statement that declares variables in a child scope (a named
        or unnamed block, a task call) and runs ``build(child, env)``.

        Module code binds the kernel's persistent block-local variables
        on first entry and compiles the body then, once.  In a function,
        variables are fresh on every entry: with constant ranges they
        get fixed frame slots and the body is compiled now; otherwise
        each entry declares them and compiles the body again.
        """
        if env.slots is None:
            kernel = self.kernel
            compiled = []

            def body_of(fr):
                if not compiled:
                    child = scope.child(suffix)
                    for decl in decls:
                        kernel.declare_local(decl, child)
                    compiled.append(build(child, env))
                return compiled[0]
        else:
            child = scope.child(suffix)
            slots = [env.slots[0]]
            try:
                inits = [self.declare_frame(decl, child, None, slots)
                         for decl in decls]
            except NotStatic:
                def body_of(fr):
                    child = scope.child(suffix)
                    slots = [len(fr)]
                    for decl in decls:
                        self.declare_frame(decl, child, fr, slots)
                    body = build(child, _Env(env.xc, slots))
                    fr.extend([None] * (slots[0] - len(fr)))
                    return body
            else:
                env.slots[0] = slots[0]
                body = build(child, env)
                resets = [(signal.slot, init) for signal, init in inits]

                def body_of(fr):
                    for slot, init in resets:
                        fr[slot] = init()
                    return body
        if threaded:
            def declaring_gen(fr):
                fr[0].charge(1)
                yield from body_of(fr)(fr)
            return declaring_gen

        def declaring(fr):
            fr[0].charge(1)
            body_of(fr)(fr)
        return declaring

    # -- threads ---------------------------------------------------------------

    def _gen(self, stmt, scope: Scope, env: _Env):
        """Generator-function form of a thread statement."""
        if stmt is None:
            return _no_suspend
        if not _suspends(stmt, scope):
            return _as_gen(self._plain(stmt, scope, env))
        xc = env.xc
        if isinstance(stmt, ast.Block):
            if stmt.decls:
                return self._declaring(
                    stmt.decls, scope, self._block_name(stmt), env,
                    lambda inner, e: self._gen_seq(stmt.stmts, inner, e), True)
            body = self._gen_seq(stmt.stmts, scope, env)

            def block(fr):
                fr[0].charge(1)
                yield from body(fr)
            return block
        if isinstance(stmt, ast.If):
            cond = xc.expr(stmt.cond, scope)
            then = self._gen(stmt.then_stmt, scope, env)
            other = self._gen(stmt.else_stmt, scope, env)

            def if_(fr):
                fr[0].charge(1)
                if cond(fr).val:
                    yield from then(fr)
                else:
                    yield from other(fr)
            return if_
        if isinstance(stmt, ast.Case):
            subject, items, default = self._case_parts(stmt, scope, env,
                                                       self._gen)
            kind = stmt.kind

            def case(fr):
                fr[0].charge(1)
                s = subject(fr)
                for labels, body in items:
                    for label in labels:
                        if case_match(kind, s, label(fr)):
                            yield from body(fr)
                            return
                if default is not None:
                    yield from default(fr)
            return case
        if isinstance(stmt, (ast.For, ast.While, ast.Repeat, ast.Forever)):
            return self._gen_loop(stmt, scope, env)
        if isinstance(stmt, ast.Delay):
            amount = xc.expr(stmt.amount, scope)
            then = self._gen(stmt.stmt, scope, env)

            def delay(fr):
                fr[0].charge(1)
                a = amount(fr)
                yield ("delay", 0 if a.xz else a.val)
                yield from then(fr)
            return delay
        if isinstance(stmt, ast.EventControl):
            sensitivity = stmt.sensitivity
            then = self._gen(stmt.stmt, scope, env)

            def event(fr):
                fr[0].charge(1)
                yield ("event", sensitivity, scope)
                yield from then(fr)
            return event
        if isinstance(stmt, ast.Wait):
            cond_expr = stmt.cond
            cond = xc.expr(cond_expr, scope)
            then = self._gen(stmt.stmt, scope, env)

            def wait(fr):
                fr[0].charge(1)
                while not cond(fr).val:
                    yield ("wait", cond_expr, scope)
                yield from then(fr)
            return wait
        # A task call whose body suspends.
        return self._task_call(stmt, scope, env, True)

    def _gen_seq(self, stmts, scope: Scope, env: _Env):
        fns = [self._gen(stmt, scope, env) for stmt in stmts]

        def seq(fr):
            for fn in fns:
                yield from fn(fr)
        return seq


def _charge_one(fr) -> None:
    fr[0].charge(1)


def _charge_steps(steps: int):
    return lambda fr: fr[0].charge(steps)


def _frame_write(fr, ops: Sequence[WriteOp], value: Vec4) -> None:
    """A blocking write inside a function: locals only."""
    pieces = split_value_for_ops(value, ops)
    for op, piece in zip(ops, pieces):
        signal = op.signal
        if not isinstance(signal, FrameSignal):
            raise SimulationError(
                f"function writes non-local {signal.name!r}"
            )
        if op.oob:
            continue
        slot = signal.slot
        if op.mem_index is not None:
            mem = fr[slot]
            mem[op.mem_index] = mem[op.mem_index].set_slice(op.hi, op.lo,
                                                            piece)
        elif op.hi == signal.width - 1 and op.lo == 0:
            fr[slot] = piece.resize(signal.width, signal.signed)
        else:
            fr[slot] = fr[slot].set_slice(op.hi, op.lo, piece)


def _suspends(stmt, scope: Scope,
              _seen: Optional[Set[int]] = None) -> bool:
    """Can executing ``stmt`` reach a ``#``, ``@`` or ``wait``?  The
    body of each task it calls is read once, so a recursive task ends
    the walk, and nesting depth is not limited."""
    if _seen is None:
        _seen = set()
    for node in ast.statements(stmt):
        if isinstance(node, (ast.Delay, ast.EventControl, ast.Wait)):
            return True
        if isinstance(node, ast.TaskCall):
            binding = scope.lookup(node.name)
            if isinstance(binding, TaskBinding) and id(binding) not in _seen:
                _seen.add(id(binding))
                if _suspends(binding.decl.body, binding.scope, _seen):
                    return True
    return False
