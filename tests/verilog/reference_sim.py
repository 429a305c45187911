"""The tree-walking simulator, kept as the oracle of the compiled one.

``repro.verilog.sim`` compiles each elaborated design into closures
once per kernel.  This module is the expression walk
(``Evaluator._eval_inner``), the generator-per-statement interpreter
and the kernel glue they need, as they were before that compiler, so
``test_sim_oracle.py`` can check the compiled simulator against them
rule for rule.  It changes in four places only: selects on a memory
element (``mem[i][4:1]``) map their bit positions through the
memory's declared range, as writes through the same select always did;
execution is bounded as the package bounds it, by one
:class:`~repro.verilog.sim.interp.StepBudget` per entry (construction,
settle, run or constant function call), charged at the same points as
before; every variable it declares (block locals, function inputs,
locals and return values) takes its shape from the package's one
declaration rule, :func:`~repro.verilog.sim.design.declared_signal`,
so ``integer``/``time``/``real``, ranges and memories are sized as at
module level; and each unnamed block's variables are its own, not
shared with every other unnamed block in the same scope.  The walk
that executes them is its own.

Elaboration, values and net resolution are shared with the package;
exceptions are the package's classes, so type and message compare
directly.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Generator, List, Optional,
                    Sequence, Set, Tuple)

from repro.verilog import ast_nodes as ast
from repro.verilog.sim.design import (
    CombProcess,
    ElaborationError,
    ConstBinding,
    Design,
    EdgeProcess,
    FuncBinding,
    InitialProcess,
    Scope,
    Signal,
    SignalBinding,
    TaskBinding,
    TimedAlwaysProcess,
    declared_signal,
)
from repro.verilog.sim.elaborate import elaborate
from repro.verilog.sim.eval import EvalError
from repro.verilog.sim.interp import (SimulationError, StepBudget,
                                     StopSimulation, _suspends)
from repro.verilog.sim.runtime import Simulator, build_library
from repro.verilog.sim.scheduler import (
    MAX_ACTIVATIONS_PER_SLOT,
    MAX_SIM_TIME,
    _format_verilog,
    _is_negedge,
    _is_posedge,
)
from repro.verilog.sim.values import Vec4, concat_all

class ConstStore:
    """A store for constant folding: any signal read is an error."""

    def read(self, signal: Signal) -> Vec4:
        raise EvalError(
            f"signal {signal.name!r} referenced in constant expression"
        )

    def read_mem(self, signal: Signal, index: int) -> Vec4:
        raise EvalError(
            f"memory {signal.name!r} referenced in constant expression"
        )

    def now(self) -> int:
        return 0

    def random(self) -> int:
        raise EvalError("$random in constant expression")


#: Signature of the callback used to evaluate user-function calls.
FuncCaller = Callable[[FuncBinding, List[Vec4]], Vec4]


class Evaluator:
    """Evaluates expressions against a store and scope."""

    def __init__(self, store, func_caller: Optional[FuncCaller] = None) -> None:
        self._store = store
        self._func_caller = func_caller

    # -- width/sign analysis ---------------------------------------------------

    def width_of(self, expr: ast.Expr, scope: Scope) -> Tuple[int, bool]:
        """Self-determined (width, signed) of ``expr``."""
        if isinstance(expr, ast.Number):
            if expr.width is not None:
                return expr.width, expr.signed
            return 32, expr.signed or expr.text.isdigit() or not expr.text
        if isinstance(expr, ast.RealNumber):
            return 64, True
        if isinstance(expr, ast.StringLiteral):
            return max(8 * len(expr.value), 8), False
        if isinstance(expr, ast.Identifier):
            binding = scope.lookup(expr.name)
            if binding is None:
                raise EvalError(f"unknown identifier {expr.name!r}")
            if isinstance(binding, ConstBinding):
                return binding.value.width, binding.value.signed
            if isinstance(binding, SignalBinding):
                return binding.signal.width, binding.signal.signed
            raise EvalError(f"{expr.name!r} is not a value")
        if isinstance(expr, ast.HierarchicalId):
            signal = self._resolve_hierarchical(expr, scope)
            return signal.width, signal.signed
        if isinstance(expr, ast.Select):
            if expr.kind == "bit":
                base_sig = self._memory_signal(expr.base, scope)
                if base_sig is not None:
                    return base_sig.width, base_sig.signed
                return 1, False
            if expr.kind == "part":
                left = self.eval_const_int(expr.left, scope)
                right = self.eval_const_int(expr.right, scope)
                return abs(left - right) + 1, False
            width = self.eval_const_int(expr.right, scope)
            return width, False
        if isinstance(expr, ast.Concat):
            total = 0
            for part in expr.parts:
                w, _ = self.width_of(part, scope)
                total += w
            return total, False
        if isinstance(expr, ast.Replicate):
            count = self.eval_const_int(expr.count, scope)
            w, _ = self.width_of(expr.value, scope)
            return max(count, 0) * w or 1, False
        if isinstance(expr, ast.Unary):
            if expr.op in ("!", "&", "|", "^", "~&", "~|", "~^", "^~"):
                return 1, False
            return self.width_of(expr.operand, scope)
        if isinstance(expr, ast.Binary):
            op = expr.op
            if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">=",
                      "&&", "||"):
                return 1, False
            if op in ("<<", ">>", "<<<", ">>>", "**"):
                return self.width_of(expr.left, scope)
            lw, ls = self.width_of(expr.left, scope)
            rw, rs = self.width_of(expr.right, scope)
            return max(lw, rw), ls and rs
        if isinstance(expr, ast.Ternary):
            lw, ls = self.width_of(expr.if_true, scope)
            rw, rs = self.width_of(expr.if_false, scope)
            return max(lw, rw), ls and rs
        if isinstance(expr, ast.FunctionCall):
            binding = scope.lookup_function(expr.name)
            if binding is None:
                raise EvalError(f"unknown function {expr.name!r}")
            ret = declared_signal(
                binding.decl, binding.decl.name,
                lambda bound: self.eval_const_int(bound, binding.scope))
            return ret.width, ret.signed
        if isinstance(expr, ast.SystemCall):
            if expr.name in ("$signed", "$unsigned") and expr.args:
                w, _ = self.width_of(expr.args[0], scope)
                return w, expr.name == "$signed"
            if expr.name == "$time":
                return 64, False
            return 32, expr.name == "$random"
        raise EvalError(f"cannot size expression {type(expr).__name__}")

    # -- main evaluation ---------------------------------------------------------

    def eval(
        self,
        expr: ast.Expr,
        scope: Scope,
        ctx_width: Optional[int] = None,
        ctx_signed: Optional[bool] = None,
    ) -> Vec4:
        """Evaluate ``expr``; when ``ctx_width`` is given, the expression
        is computed at ``max(self_width, ctx_width)`` bits so carries are
        not lost (assignment-context widening)."""
        value = self._eval_inner(expr, scope, ctx_width, ctx_signed)
        return value

    def _ctx(self, expr: ast.Expr, scope: Scope, ctx_width: Optional[int]) -> int:
        width, _ = self.width_of(expr, scope)
        if ctx_width is None:
            return width
        return max(width, ctx_width)

    def _eval_inner(
        self,
        expr: ast.Expr,
        scope: Scope,
        ctx_width: Optional[int],
        ctx_signed: Optional[bool],
    ) -> Vec4:
        if isinstance(expr, ast.Number):
            width = expr.width if expr.width is not None else 32
            value = Vec4(width, expr.value, expr.xz_mask, expr.z_mask,
                         expr.signed or (expr.width is None))
            if ctx_width is not None and ctx_width > width:
                value = value.resize(ctx_width)
            return value
        if isinstance(expr, ast.RealNumber):
            return Vec4.from_int(int(expr.value), 64, signed=True)
        if isinstance(expr, ast.StringLiteral):
            width = max(8 * len(expr.value), 8)
            acc = 0
            for ch in expr.value:
                acc = (acc << 8) | ord(ch)
            return Vec4.from_int(acc, width)
        if isinstance(expr, ast.Identifier):
            return self._eval_identifier(expr, scope, ctx_width)
        if isinstance(expr, ast.HierarchicalId):
            signal = self._resolve_hierarchical(expr, scope)
            value = self._store.read(signal)
            if ctx_width is not None and ctx_width > value.width:
                value = value.resize(ctx_width)
            return value
        if isinstance(expr, ast.Select):
            return self._eval_select(expr, scope, ctx_width)
        if isinstance(expr, ast.Concat):
            parts = [self._eval_inner(p, scope, None, None) for p in expr.parts]
            return concat_all(parts)
        if isinstance(expr, ast.Replicate):
            count = self.eval_const_int(expr.count, scope)
            if count <= 0:
                raise EvalError(f"replication count {count} must be positive")
            value = self._eval_inner(expr.value, scope, None, None)
            return value.replicate(count)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, scope, ctx_width)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, scope, ctx_width)
        if isinstance(expr, ast.Ternary):
            return self._eval_ternary(expr, scope, ctx_width, ctx_signed)
        if isinstance(expr, ast.FunctionCall):
            return self._eval_function_call(expr, scope)
        if isinstance(expr, ast.SystemCall):
            return self._eval_system_call(expr, scope, ctx_width)
        raise EvalError(f"cannot evaluate {type(expr).__name__}")

    def _eval_identifier(
        self, expr: ast.Identifier, scope: Scope, ctx_width: Optional[int]
    ) -> Vec4:
        binding = scope.lookup(expr.name)
        if binding is None:
            raise EvalError(f"unknown identifier {expr.name!r}")
        if isinstance(binding, ConstBinding):
            value = binding.value
        elif isinstance(binding, SignalBinding):
            if binding.signal.is_memory:
                raise EvalError(
                    f"memory {expr.name!r} used without an index"
                )
            value = self._store.read(binding.signal)
        else:
            raise EvalError(f"{expr.name!r} is not a value")
        if ctx_width is not None and ctx_width > value.width:
            value = value.resize(ctx_width)
        return value

    def _resolve_hierarchical(
        self, expr: ast.HierarchicalId, scope: Scope
    ) -> Signal:
        """Resolve ``a.b.c`` by joining onto the scope path.

        Used by testbench-style probes; tries progressively shorter
        prefixes of the current path.
        """
        suffix = ".".join(expr.parts)
        candidates = []
        path = scope.path
        while True:
            candidates.append(f"{path}.{suffix}" if path else suffix)
            if not path:
                break
            path = path.rpartition(".")[0]
        store_signals = getattr(self._store, "signals", None)
        if store_signals is not None:
            for name in candidates:
                if name in store_signals:
                    return store_signals[name]
        raise EvalError(f"cannot resolve hierarchical name {suffix!r}")

    def _memory_signal(self, expr: ast.Expr, scope: Scope) -> Optional[Signal]:
        """Return the memory Signal when ``expr`` names one, else None."""
        if isinstance(expr, ast.Identifier):
            binding = scope.lookup(expr.name)
            if isinstance(binding, SignalBinding) and binding.signal.is_memory:
                return binding.signal
        return None

    def _eval_select(
        self, expr: ast.Select, scope: Scope, ctx_width: Optional[int]
    ) -> Vec4:
        mem = self._memory_signal(expr.base, scope)
        if mem is not None and expr.kind == "bit":
            index = self._eval_inner(expr.left, scope, None, None)
            if index.has_unknown:
                return Vec4.all_x(mem.width)
            return self._store.read_mem(mem, index.to_int() - mem.array_min)
        base_signal = self._signal_of(expr.base, scope)
        base = self._eval_inner(expr.base, scope, None, None)
        if expr.kind == "bit":
            index = self._eval_inner(expr.left, scope, None, None)
            if index.has_unknown:
                return Vec4.all_x(1)
            pos = self._to_position(base_signal, index.to_signed_int()
                                    if index.signed else index.to_int())
            return base.slice(pos, pos)
        if expr.kind == "part":
            msb_i = self.eval_const_int(expr.left, scope)
            lsb_i = self.eval_const_int(expr.right, scope)
            hi = self._to_position(base_signal, msb_i)
            lo = self._to_position(base_signal, lsb_i)
            if hi < lo:
                hi, lo = lo, hi
            return base.slice(hi, lo)
        # Indexed part selects: base[b +: w] / base[b -: w].
        width = self.eval_const_int(expr.right, scope)
        start = self._eval_inner(expr.left, scope, None, None)
        if start.has_unknown:
            return Vec4.all_x(width)
        start_i = start.to_int()
        ascending = base_signal is not None and base_signal.msb < base_signal.lsb
        if expr.kind == "plus":
            lo_idx, hi_idx = (start_i, start_i + width - 1)
            if ascending:
                lo_idx, hi_idx = start_i + width - 1, start_i
        else:
            lo_idx, hi_idx = (start_i - width + 1, start_i)
            if ascending:
                lo_idx, hi_idx = start_i, start_i - width + 1
        hi = self._to_position(base_signal, hi_idx)
        lo = self._to_position(base_signal, lo_idx)
        if hi < lo:
            hi, lo = lo, hi
        return base.slice(hi, lo)

    def _signal_of(self, expr: ast.Expr, scope: Scope) -> Optional[Signal]:
        if isinstance(expr, ast.Identifier):
            binding = scope.lookup(expr.name)
            if isinstance(binding, SignalBinding):
                return binding.signal
        if isinstance(expr, ast.Select) and expr.kind == "bit":
            # A memory element: positions follow the element's range.
            return self._memory_signal(expr.base, scope)
        return None

    @staticmethod
    def _to_position(signal: Optional[Signal], index: int) -> int:
        if signal is None:
            return index
        return signal.bit_position(index)

    def _eval_unary(
        self, expr: ast.Unary, scope: Scope, ctx_width: Optional[int]
    ) -> Vec4:
        op = expr.op
        if op == "!":
            return self._eval_inner(expr.operand, scope, None, None).logical_not()
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            operand = self._eval_inner(expr.operand, scope, None, None)
            return {
                "&": operand.reduce_and,
                "~&": operand.reduce_nand,
                "|": operand.reduce_or,
                "~|": operand.reduce_nor,
                "^": operand.reduce_xor,
                "~^": operand.reduce_xnor,
                "^~": operand.reduce_xnor,
            }[op]()
        operand = self._eval_inner(expr.operand, scope, ctx_width, None)
        if ctx_width is not None and ctx_width > operand.width:
            operand = operand.resize(ctx_width)
        if op == "~":
            return operand.bit_not()
        if op == "-":
            return operand.neg()
        if op == "+":
            return operand
        raise EvalError(f"unsupported unary operator {op!r}")

    def _eval_binary(
        self, expr: ast.Binary, scope: Scope, ctx_width: Optional[int]
    ) -> Vec4:
        op = expr.op
        if op in ("&&", "||"):
            left = self._eval_inner(expr.left, scope, None, None)
            # Short-circuit when decidable.
            if op == "&&" and left.truthiness() is False:
                return Vec4.from_int(0, 1)
            if op == "||" and left.truthiness() is True:
                return Vec4.from_int(1, 1)
            right = self._eval_inner(expr.right, scope, None, None)
            return left.logical_and(right) if op == "&&" else left.logical_or(right)
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            # Comparison operands size to each other, not the context.
            lw, ls = self.width_of(expr.left, scope)
            rw, rs = self.width_of(expr.right, scope)
            width = max(lw, rw)
            left = self._eval_inner(expr.left, scope, width, None)
            right = self._eval_inner(expr.right, scope, width, None)
            signed = ls and rs
            left = left.resize(width, left.signed and signed)
            right = right.resize(width, right.signed and signed)
            return {
                "==": left.eq, "!=": left.ne,
                "===": left.case_eq, "!==": left.case_ne,
                "<": left.lt, "<=": left.le, ">": left.gt, ">=": left.ge,
            }[op](right)
        if op in ("<<", ">>", "<<<", ">>>"):
            width = self._ctx(expr.left, scope, ctx_width)
            left = self._eval_inner(expr.left, scope, width, None)
            left = left.resize(width, left.signed)
            amount = self._eval_inner(expr.right, scope, None, None)
            if op == "<<" or op == "<<<":
                return left.shl(amount)
            if op == ">>>":
                return left.ashr(amount)
            return left.shr(amount)
        if op == "**":
            width = self._ctx(expr.left, scope, ctx_width)
            left = self._eval_inner(expr.left, scope, width, None)
            right = self._eval_inner(expr.right, scope, None, None)
            return left.resize(width, left.signed).power(right)
        # Arithmetic / bitwise: context-determined width.
        width = self._ctx(expr, scope, ctx_width)
        left = self._eval_inner(expr.left, scope, width, None)
        right = self._eval_inner(expr.right, scope, width, None)
        signed = left.signed and right.signed
        left = left.resize(width, left.signed)
        right = right.resize(width, right.signed)
        if not signed:
            left = left.as_signed(False)
            right = right.as_signed(False)
        methods = {
            "+": left.add, "-": left.sub, "*": left.mul,
            "/": left.div, "%": left.mod,
            "&": left.bit_and, "|": left.bit_or,
            "^": left.bit_xor, "~^": left.bit_xnor, "^~": left.bit_xnor,
        }
        method = methods.get(op)
        if method is None:
            raise EvalError(f"unsupported binary operator {op!r}")
        return method(right)

    def _eval_ternary(
        self,
        expr: ast.Ternary,
        scope: Scope,
        ctx_width: Optional[int],
        ctx_signed: Optional[bool],
    ) -> Vec4:
        cond = self._eval_inner(expr.cond, scope, None, None)
        width = self._ctx(expr, scope, ctx_width)
        truth = cond.truthiness()
        if truth is True:
            return self._eval_inner(expr.if_true, scope, width, ctx_signed)
        if truth is False:
            return self._eval_inner(expr.if_false, scope, width, ctx_signed)
        # Unknown condition: bitwise-merge the two arms (LRM 5.1.13).
        a = self._eval_inner(expr.if_true, scope, width, ctx_signed).resize(width)
        b = self._eval_inner(expr.if_false, scope, width, ctx_signed).resize(width)
        same = ~(a.val ^ b.val) & ~a.xz & ~b.xz & ((1 << width) - 1)
        return Vec4(width, a.val & same, ~same & ((1 << width) - 1), 0)

    def _eval_function_call(self, expr: ast.FunctionCall, scope: Scope) -> Vec4:
        binding = scope.lookup_function(expr.name)
        if binding is None:
            raise EvalError(f"unknown function {expr.name!r}")
        if self._func_caller is None:
            raise EvalError(
                f"function call {expr.name!r} not allowed in this context"
            )
        args = [self._eval_inner(a, scope, None, None) for a in expr.args]
        return self._func_caller(binding, args)

    def _eval_system_call(
        self, expr: ast.SystemCall, scope: Scope, ctx_width: Optional[int]
    ) -> Vec4:
        name = expr.name
        if name == "$clog2":
            arg = self._eval_inner(expr.args[0], scope, None, None)
            if arg.has_unknown:
                return Vec4.all_x(32)
            value = arg.to_int()
            result = max(value - 1, 0).bit_length()
            return Vec4.from_int(result, 32)
        if name == "$signed":
            arg = self._eval_inner(expr.args[0], scope, None, None)
            return arg.as_signed(True)
        if name == "$unsigned":
            arg = self._eval_inner(expr.args[0], scope, None, None)
            return arg.as_signed(False)
        if name in ("$time", "$stime", "$realtime"):
            return Vec4.from_int(self._store.now(), 64)
        if name == "$random":
            return Vec4.from_int(self._store.random() & 0xFFFFFFFF, 32,
                                 signed=True)
        if name == "$bits":
            width, _ = self.width_of(expr.args[0], scope)
            return Vec4.from_int(width, 32)
        raise EvalError(f"unsupported system function {name!r}")

    # -- constants ------------------------------------------------------------

    def eval_const_int(self, expr: ast.Expr, scope: Scope) -> int:
        """Evaluate a constant expression to a Python int (signed)."""
        value = self._eval_inner(expr, scope, None, None)
        if value.has_unknown:
            raise EvalError("constant expression evaluates to x/z")
        return value.to_signed_int() if value.signed else value.to_int()


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


def resolve_lvalue(
    expr: ast.Expr, scope: Scope, evaluator: Evaluator
) -> List[WriteOp]:
    """Flatten an lvalue into MSB-first :class:`WriteOp` slices."""
    if isinstance(expr, ast.Concat):
        ops: List[WriteOp] = []
        for part in expr.parts:
            ops.extend(resolve_lvalue(part, scope, evaluator))
        return ops
    if isinstance(expr, (ast.Identifier, ast.HierarchicalId)):
        signal = _lookup_signal(expr, scope, evaluator)
        if signal.is_memory:
            raise SimulationError(
                f"memory {signal.name!r} assigned without an index"
            )
        return [WriteOp(signal, None, signal.width - 1, 0)]
    if isinstance(expr, ast.Select):
        return _resolve_select_lvalue(expr, scope, evaluator)
    raise SimulationError(
        f"invalid assignment target {type(expr).__name__}"
    )


def _lookup_signal(
    expr: ast.Expr, scope: Scope, evaluator: Evaluator
) -> Signal:
    if isinstance(expr, ast.Identifier):
        binding = scope.lookup(expr.name)
        if isinstance(binding, SignalBinding):
            return binding.signal
        raise SimulationError(f"cannot assign to {expr.name!r}")
    if isinstance(expr, ast.HierarchicalId):
        return evaluator._resolve_hierarchical(expr, scope)
    raise SimulationError("invalid assignment target")


def _resolve_select_lvalue(
    expr: ast.Select, scope: Scope, evaluator: Evaluator
) -> List[WriteOp]:
    # Memory element target: mem[idx] or mem[idx][hi:lo].
    base = expr.base
    mem_index: Optional[int] = None
    if isinstance(base, ast.Select) and isinstance(base.base, ast.Identifier):
        inner_sig = _binding_signal(base.base, scope)
        if inner_sig is not None and inner_sig.is_memory and base.kind == "bit":
            index_val = evaluator.eval(base.left, scope)
            if index_val.has_unknown:
                return [WriteOp(inner_sig, None, inner_sig.width - 1, 0,
                                oob=True)]
            mem_index = (index_val.to_int() - inner_sig.array_min)
            if mem_index < 0 or mem_index >= inner_sig.array_size:
                return [WriteOp(inner_sig, None, inner_sig.width - 1, 0,
                                oob=True)]
            signal = inner_sig
            return _select_bits(expr, signal, mem_index, scope, evaluator)
    if isinstance(base, ast.Identifier):
        signal = _binding_signal(base, scope)
        if signal is None:
            raise SimulationError(f"cannot assign to {base.name!r}")
        if signal.is_memory:
            if expr.kind != "bit":
                raise SimulationError(
                    f"memory {signal.name!r} needs an element index"
                )
            index_val = evaluator.eval(expr.left, scope)
            if index_val.has_unknown:
                return [WriteOp(signal, None, signal.width - 1, 0, oob=True)]
            mem_index = index_val.to_int() - signal.array_min
            if mem_index < 0 or mem_index >= signal.array_size:
                return [WriteOp(signal, None, signal.width - 1, 0, oob=True)]
            return [WriteOp(signal, mem_index, signal.width - 1, 0)]
        return _select_bits(expr, signal, None, scope, evaluator)
    raise SimulationError("unsupported nested lvalue select")


def _binding_signal(ident: ast.Identifier, scope: Scope) -> Optional[Signal]:
    binding = scope.lookup(ident.name)
    if isinstance(binding, SignalBinding):
        return binding.signal
    return None


def _select_bits(
    expr: ast.Select,
    signal: Signal,
    mem_index: Optional[int],
    scope: Scope,
    evaluator: Evaluator,
) -> List[WriteOp]:
    if expr.kind == "bit":
        index_val = evaluator.eval(expr.left, scope)
        if index_val.has_unknown:
            return [WriteOp(signal, mem_index, signal.width - 1, 0, oob=True)]
        raw = (index_val.to_signed_int() if index_val.signed
               else index_val.to_int())
        pos = signal.bit_position(raw)
        if pos < 0 or pos >= signal.width:
            return [WriteOp(signal, mem_index, 0, 0, oob=True)]
        return [WriteOp(signal, mem_index, pos, pos)]
    if expr.kind == "part":
        msb_i = evaluator.eval_const_int(expr.left, scope)
        lsb_i = evaluator.eval_const_int(expr.right, scope)
        hi = signal.bit_position(msb_i)
        lo = signal.bit_position(lsb_i)
        if hi < lo:
            hi, lo = lo, hi
        if lo < 0 or hi >= signal.width:
            return [WriteOp(signal, mem_index, max(hi, 0),
                            max(lo, 0), oob=True)]
        return [WriteOp(signal, mem_index, hi, lo)]
    # Indexed part select.
    width = evaluator.eval_const_int(expr.right, scope)
    start = evaluator.eval(expr.left, scope)
    if start.has_unknown:
        return [WriteOp(signal, mem_index, signal.width - 1, 0, oob=True)]
    start_i = start.to_int()
    ascending = signal.msb < signal.lsb
    if expr.kind == "plus":
        lo_idx, hi_idx = start_i, start_i + width - 1
        if ascending:
            lo_idx, hi_idx = start_i + width - 1, start_i
    else:
        lo_idx, hi_idx = start_i - width + 1, start_i
        if ascending:
            lo_idx, hi_idx = start_i, start_i - width + 1
    hi = signal.bit_position(hi_idx)
    lo = signal.bit_position(lo_idx)
    if hi < lo:
        hi, lo = lo, hi
    if lo < 0 or hi >= signal.width:
        return [WriteOp(signal, mem_index, max(hi, 0), max(lo, 0), oob=True)]
    return [WriteOp(signal, mem_index, hi, lo)]


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


# ---------------------------------------------------------------------------
# Statement execution
# ---------------------------------------------------------------------------

class Interpreter:
    """Executes statements against a machine object."""

    def __init__(self, machine) -> None:
        self._machine = machine
        #: id(block) -> (block, number), numbered on first entry.
        self._unnamed: Dict[int, Tuple[ast.Block, int]] = {}

    def run_atomic(self, stmt: Optional[ast.Stmt], scope: Scope) -> None:
        """Execute a statement that must not suspend (comb/edge body)."""
        gen = self.exec_stmt(stmt, scope)
        for suspension in gen:
            raise SimulationError(
                "timing control inside a combinational or edge-triggered "
                f"process (suspension {suspension[0]!r})"
            )

    def exec_stmt(
        self, stmt: Optional[ast.Stmt], scope: Scope
    ) -> Generator[Suspension, None, None]:
        """Execute one statement, yielding timing-control suspensions."""
        if stmt is None:
            return
        machine = self._machine
        machine.charge(1)
        if isinstance(stmt, ast.Block):
            block_scope = scope
            if stmt.decls:
                block_scope = scope.child(
                    stmt.name or "__blk{}".format(self._unnamed.setdefault(
                        id(stmt), (stmt, len(self._unnamed)))[1]))
                for decl in stmt.decls:
                    machine.declare_local(decl, block_scope)
            for inner in stmt.stmts:
                yield from self.exec_stmt(inner, block_scope)
            return
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, scope)
            return
        if isinstance(stmt, ast.If):
            cond = machine.eval(stmt.cond, scope)
            if cond.is_true():
                yield from self.exec_stmt(stmt.then_stmt, scope)
            else:
                yield from self.exec_stmt(stmt.else_stmt, scope)
            return
        if isinstance(stmt, ast.Case):
            yield from self._exec_case(stmt, scope)
            return
        if isinstance(stmt, ast.For):
            yield from self._exec_for(stmt, scope)
            return
        if isinstance(stmt, ast.While):
            while True:
                cond = machine.eval(stmt.cond, scope)
                if not cond.is_true():
                    return
                yield from self.exec_stmt(stmt.body, scope)
                machine.charge(1)
            return
        if isinstance(stmt, ast.Repeat):
            count = machine.eval(stmt.count, scope)
            if count.has_unknown:
                return
            for _ in range(count.to_int()):
                yield from self.exec_stmt(stmt.body, scope)
                machine.charge(1)
            return
        if isinstance(stmt, ast.Forever):
            while True:
                yield from self.exec_stmt(stmt.body, scope)
                machine.charge(1)
            return
        if isinstance(stmt, ast.Delay):
            amount = machine.eval(stmt.amount, scope)
            ticks = 0 if amount.has_unknown else amount.to_int()
            yield ("delay", ticks)
            yield from self.exec_stmt(stmt.stmt, scope)
            return
        if isinstance(stmt, ast.EventControl):
            yield ("event", stmt.sensitivity, scope)
            yield from self.exec_stmt(stmt.stmt, scope)
            return
        if isinstance(stmt, ast.Wait):
            cond = machine.eval(stmt.cond, scope)
            while not cond.is_true():
                yield ("wait", stmt.cond, scope)
                cond = machine.eval(stmt.cond, scope)
            yield from self.exec_stmt(stmt.stmt, scope)
            return
        if isinstance(stmt, ast.SystemTaskCall):
            machine.system_task(stmt, scope)
            return
        if isinstance(stmt, ast.TaskCall):
            yield from self._exec_task_call(stmt, scope)
            return
        if isinstance(stmt, (ast.NullStmt, ast.Disable)):
            return
        raise SimulationError(
            f"unsupported statement {type(stmt).__name__}"
        )

    # -- pieces ------------------------------------------------------------

    def _exec_assign(self, stmt: ast.Assign, scope: Scope) -> None:
        machine = self._machine
        ops = resolve_lvalue(stmt.target, scope, machine.evaluator)
        total = sum(op.width for op in ops)
        signed_target = len(ops) == 1 and ops[0].signal.signed
        value = machine.eval(stmt.value, scope, ctx_width=total)
        value = value.resize(total, value.signed) if value.width < total else value
        if signed_target:
            value = value.as_signed(True)
        machine.write(ops, value, blocking=stmt.blocking)

    def _exec_case(
        self, stmt: ast.Case, scope: Scope
    ) -> Generator[Suspension, None, None]:
        machine = self._machine
        subject = machine.eval(stmt.subject, scope)
        default_item: Optional[ast.CaseItem] = None
        for item in stmt.items:
            if not item.exprs:
                default_item = item
                continue
            for expr in item.exprs:
                label = machine.eval(expr, scope)
                if _case_match(stmt.kind, subject, label):
                    yield from self.exec_stmt(item.body, scope)
                    return
        if default_item is not None:
            yield from self.exec_stmt(default_item.body, scope)

    def _exec_for(
        self, stmt: ast.For, scope: Scope
    ) -> Generator[Suspension, None, None]:
        machine = self._machine
        if stmt.init is not None:
            self._exec_assign(stmt.init, scope)
        while True:
            if stmt.cond is not None:
                cond = machine.eval(stmt.cond, scope)
                if not cond.is_true():
                    return
            yield from self.exec_stmt(stmt.body, scope)
            if stmt.step is not None:
                self._exec_assign(stmt.step, scope)
            machine.charge(1)

    def _exec_task_call(
        self, stmt: ast.TaskCall, scope: Scope
    ) -> Generator[Suspension, None, None]:
        machine = self._machine
        binding = scope.lookup(stmt.name)
        if not isinstance(binding, TaskBinding):
            raise SimulationError(f"unknown task {stmt.name!r}")
        decl = binding.decl
        formals = decl.inputs + decl.outputs
        if len(stmt.args) != len(formals):
            raise SimulationError(
                f"task {stmt.name!r} expects {len(formals)} args, "
                f"got {len(stmt.args)}"
            )
        task_scope = binding.scope.child(f"__task_{stmt.name}")
        for decl_item in decl.inputs + decl.outputs + decl.locals:
            machine.declare_local(decl_item, task_scope)
        for formal, actual in zip(decl.inputs, stmt.args):
            value = machine.eval(actual, scope)
            machine.write(
                resolve_lvalue(
                    ast.Identifier(name=formal.name), task_scope,
                    machine.evaluator,
                ),
                value,
                blocking=True,
            )
        yield from self.exec_stmt(decl.body, task_scope)
        for formal, actual in zip(
            decl.outputs, stmt.args[len(decl.inputs):]
        ):
            value = machine.eval(
                ast.Identifier(name=formal.name), task_scope
            )
            machine.write(
                resolve_lvalue(actual, scope, machine.evaluator),
                value,
                blocking=True,
            )


def _case_match(kind: str, subject: Vec4, label: Vec4) -> bool:
    """Case-item matching for case/casez/casex."""
    width = max(subject.width, label.width)
    a = subject.resize(width)
    b = label.resize(width)
    mask = (1 << width) - 1
    care = mask
    if kind == "casez":
        care &= ~a.z & ~b.z
    elif kind == "casex":
        care &= ~a.xz & ~b.xz
    if kind == "case":
        return a.val == b.val and a.xz == b.xz and a.z == b.z
    return (
        (a.val & care) == (b.val & care)
        and (a.xz & care) == (b.xz & care)
    )


# ---------------------------------------------------------------------------
# Function evaluation (shared by kernel and constant folding)
# ---------------------------------------------------------------------------


class _FrameStore:
    """Store overlay holding function/task local variables."""

    def __init__(self, base) -> None:
        self._base = base
        self.locals: Dict[int, Vec4] = {}
        self.local_mems: Dict[int, List[Vec4]] = {}
        self.signals = getattr(base, "signals", {})

    def is_local(self, signal: Signal) -> bool:
        return id(signal) in self.locals or id(signal) in self.local_mems

    def add_local(self, signal: Signal) -> None:
        if signal.is_memory:
            self.local_mems[id(signal)] = [
                Vec4.all_x(signal.width) for _ in range(signal.array_size)
            ]
        else:
            self.locals[id(signal)] = Vec4.all_x(signal.width, signal.signed)

    def read(self, signal: Signal) -> Vec4:
        if id(signal) in self.locals:
            return self.locals[id(signal)]
        return self._base.read(signal)

    def read_mem(self, signal: Signal, index: int) -> Vec4:
        mem = self.local_mems.get(id(signal))
        if mem is not None:
            if 0 <= index < len(mem):
                return mem[index]
            return Vec4.all_x(signal.width)
        return self._base.read_mem(signal, index)

    def write_local(self, op: WriteOp, value: Vec4) -> None:
        if op.oob:
            return
        if op.mem_index is not None:
            mem = self.local_mems[id(op.signal)]
            current = mem[op.mem_index]
            mem[op.mem_index] = current.set_slice(op.hi, op.lo, value)
            return
        current = self.locals[id(op.signal)]
        if op.hi == op.signal.width - 1 and op.lo == 0:
            self.locals[id(op.signal)] = value.resize(
                op.signal.width, op.signal.signed
            )
        else:
            self.locals[id(op.signal)] = current.set_slice(op.hi, op.lo, value)

    def now(self) -> int:
        return self._base.now()

    def random(self) -> int:
        return self._base.random()


class FunctionMachine:
    """Machine used while evaluating a user-defined function."""

    #: Calls nested deeper than this return all-x.
    MAX_DEPTH = 64

    def __init__(self, base_store, base_machine=None, depth: int = 0) -> None:
        if depth > self.MAX_DEPTH:
            raise SimulationError("function recursion too deep")
        self._store = _FrameStore(base_store)
        self._base_machine = base_machine
        self._depth = depth
        self.evaluator = Evaluator(self._store, self._call_function)
        # Steps go to the budget of the entry that made the call; a call
        # outside a kernel is an entry of its own.
        self.charge = (StepBudget().charge if base_machine is None
                       else base_machine.charge)

    # machine interface -----------------------------------------------------

    def eval(self, expr: ast.Expr, scope: Scope,
             ctx_width: Optional[int] = None) -> Vec4:
        return self.evaluator.eval(expr, scope, ctx_width)

    def write(self, ops: Sequence[WriteOp], value: Vec4,
              blocking: bool) -> None:
        if not blocking:
            raise SimulationError("non-blocking assignment inside function")
        pieces = split_value_for_ops(value, ops)
        for op, piece in zip(ops, pieces):
            if not self._store.is_local(op.signal):
                raise SimulationError(
                    f"function writes non-local {op.signal.name!r}"
                )
            self._store.write_local(op, piece)

    def declare_local(self, decl: ast.Decl, scope: Scope) -> None:
        declare_frame_local(decl, scope, self._store, self.evaluator)

    def system_task(self, stmt: ast.SystemTaskCall, scope: Scope) -> None:
        if self._base_machine is not None:
            self._base_machine.system_task(stmt, scope)
        # Silently ignore $display inside constant functions.

    def _call_function(self, binding: FuncBinding, args: List[Vec4]) -> Vec4:
        return run_function(binding, args, self._store._base, self,
                            self._depth + 1)

    # function body execution ----------------------------------------------

    def execute(self, binding: FuncBinding, args: List[Vec4]) -> Vec4:
        decl = binding.decl
        if len(args) != len(decl.inputs):
            raise SimulationError(
                f"function {decl.name!r} expects {len(decl.inputs)} args, "
                f"got {len(args)}"
            )
        func_scope = binding.scope.child(f"__fn_{decl.name}")
        const_eval = self.evaluator
        # Return variable.
        ret_signal = declared_signal(
            decl, f"__ret_{decl.name}",
            lambda bound: const_eval.eval_const_int(bound, binding.scope))
        self._store.add_local(ret_signal)
        func_scope.bind(decl.name, SignalBinding(signal=ret_signal))
        for formal, actual in zip(decl.inputs, args):
            declare_frame_local(formal, func_scope, self._store, const_eval)
            binding_f = func_scope.lookup(formal.name)
            assert isinstance(binding_f, SignalBinding)
            self._store.write_local(
                WriteOp(binding_f.signal, None,
                        binding_f.signal.width - 1, 0),
                actual.resize(binding_f.signal.width),
            )
        for local in decl.locals:
            declare_frame_local(local, func_scope, self._store, const_eval)
        interpreter = Interpreter(self)
        interpreter.run_atomic(decl.body, func_scope)
        return self._store.read(ret_signal)


def declare_frame_local(
    decl: ast.Decl, scope: Scope, store: _FrameStore, evaluator: Evaluator
) -> None:
    """Create a frame-local variable for ``decl`` and bind it."""
    signal = declared_signal(
        decl, f"__local_{decl.name}",
        lambda bound: evaluator.eval_const_int(bound, scope))
    store.add_local(signal)
    scope.bind(decl.name, SignalBinding(signal=signal))


def run_function(
    binding: FuncBinding,
    args: List[Vec4],
    base_store,
    base_machine=None,
    depth: int = 0,
) -> Vec4:
    """Evaluate a user function call.

    Recursion beyond the depth cap returns all-x instead of failing:
    unknown inputs can drive unbounded recursion (``fact(x)``), and in
    real Verilog non-automatic functions produce garbage there rather
    than aborting the simulation.
    """
    if depth > FunctionMachine.MAX_DEPTH:
        return Vec4.all_x(64, binding.decl.signed)
    machine = FunctionMachine(base_store, base_machine, depth)
    return machine.execute(binding, args)


class _Thread:
    """A suspended initial/timed-always process."""

    __slots__ = ("gen", "proc_index", "done", "restart_body")

    def __init__(self, gen: Generator, proc_index: int,
                 restart_body: bool = False) -> None:
        self.gen = gen
        self.proc_index = proc_index
        self.done = False
        self.restart_body = restart_body


class Kernel:
    """Runtime state and event loop for one elaborated design."""

    def __init__(self, design: Design, seed: int = 0) -> None:
        self.design = design
        self.signals = design.signals  # used by Evaluator hierarchical probes
        self.time = 0
        self.finished = False
        self.display_output: List[str] = []
        self._rng_state = (seed * 6364136223846793005 + 1442695040888963407) & (
            (1 << 64) - 1
        )

        self._values: Dict[str, Vec4] = {}
        self._memories: Dict[str, List[Vec4]] = {}
        self._driver_contribs: Dict[str, Dict[int, Vec4]] = {}
        self._local_signals: Dict[str, Signal] = {}

        self._comb_sens: Dict[str, List[int]] = {}
        self._edge_sens: Dict[str, List[Tuple[int, str]]] = {}
        self._active: Deque = deque()
        self._in_active: Set[int] = set()
        self._nba: List[Tuple[Sequence[WriteOp], Vec4]] = []
        #: heap of (time, seq, thread)
        self._timewheel: List[Tuple[int, int, _Thread]] = []
        self._heap_seq = 0
        #: threads blocked on @(...) or wait(): thread -> (sens, scope) kind
        self._event_waiters: List[Tuple[_Thread, object, Scope, str]] = []

        self.evaluator = Evaluator(self, self._call_function)
        self._interp = Interpreter(self)
        #: The steps left to the current entry: construction, one
        #: settle or one run.
        self.budget = StepBudget()
        #: Index of the always-block comb process currently executing.
        #: Its own blocking writes must not retrigger it (the @* control
        #: re-arms only after the body completes — LRM 9.7.5).
        self._running_always: Optional[int] = None

        self._init_state()
        self._index_processes()

    # -- store interface (used by Evaluator) ---------------------------------

    def read(self, signal: Signal) -> Vec4:
        value = self._values.get(signal.name)
        if value is None:
            return Vec4.all_x(signal.width, signal.signed)
        return value

    def read_mem(self, signal: Signal, index: int) -> Vec4:
        mem = self._memories.get(signal.name)
        if mem is None or index < 0 or index >= len(mem):
            return Vec4.all_x(signal.width)
        return mem[index]

    def now(self) -> int:
        return self.time

    def random(self) -> int:
        self._rng_state = (
            self._rng_state * 6364136223846793005 + 1442695040888963407
        ) & ((1 << 64) - 1)
        return (self._rng_state >> 24) & 0xFFFFFFFF

    # -- machine interface (used by Interpreter) ---------------------------

    def charge(self, amount: int) -> None:
        self.budget.charge(amount)

    def eval(self, expr: ast.Expr, scope: Scope,
             ctx_width: Optional[int] = None) -> Vec4:
        return self.evaluator.eval(expr, scope, ctx_width)

    def write(self, ops: Sequence[WriteOp], value: Vec4,
              blocking: bool) -> None:
        if not blocking:
            self._nba.append((ops, value))
            return
        pieces = split_value_for_ops(value, ops)
        for op, piece in zip(ops, pieces):
            self._apply_write(op, piece)

    def declare_local(self, decl: ast.Decl, scope: Scope) -> None:
        """Create a persistent block-local variable on first entry."""
        key = scope.flat_name(decl.name)
        existing = self._local_signals.get(key)
        if existing is not None:
            scope.bind(decl.name, SignalBinding(signal=existing))
            return
        signal = declared_signal(
            decl, key,
            lambda bound: self.evaluator.eval_const_int(bound, scope))
        self._local_signals[key] = signal
        if signal.is_memory:
            self._memories[key] = [Vec4.all_x(signal.width, signal.signed)
                                   for _ in range(signal.array_size)]
        else:
            self._values[key] = Vec4.all_x(signal.width, signal.signed)
        scope.bind(decl.name, SignalBinding(signal=signal))

    def system_task(self, stmt: ast.SystemTaskCall, scope: Scope) -> None:
        name = stmt.name
        if name in ("$display", "$write", "$strobe", "$monitor",
                    "$displayb", "$displayh", "$error", "$warning",
                    "$info", "$fatal"):
            text = self._format_display(stmt.args, scope)
            self.display_output.append(text)
            if name == "$fatal":
                raise StopSimulation("$fatal")
            return
        if name in ("$finish", "$stop"):
            raise StopSimulation(name)
        if name in ("$readmemh", "$readmemb", "$dumpfile", "$dumpvars",
                    "$dumpon", "$dumpoff", "$timeformat", "$monitoron",
                    "$monitoroff", "$random", "$srandom"):
            return  # accepted and ignored
        raise SimulationError(f"unsupported system task {name!r}")

    def _call_function(self, binding, args: List[Vec4]) -> Vec4:
        return run_function(binding, args, self, self)

    # -- initialisation ------------------------------------------------------

    def _init_state(self) -> None:
        for signal in self.design.signals.values():
            if signal.is_memory:
                self._memories[signal.name] = [
                    Vec4.all_x(signal.width, signal.signed)
                    for _ in range(signal.array_size)
                ]
                continue
            if signal.kind == "net" and signal.name not in self.design.inputs:
                self._values[signal.name] = Vec4.all_z(signal.width,
                                                       signal.signed)
                self._driver_contribs[signal.name] = {}
            else:
                self._values[signal.name] = Vec4.all_x(signal.width,
                                                       signal.signed)

    def _index_processes(self) -> None:
        for index, proc in enumerate(self.design.processes):
            if isinstance(proc, CombProcess):
                for name in proc.sensitivity:
                    self._comb_sens.setdefault(name, []).append(index)
            elif isinstance(proc, EdgeProcess):
                for edge, name in proc.triggers:
                    self._edge_sens.setdefault(name, []).append((index, edge))

    def initialize(self) -> None:
        """Time-zero start-up: run every comb process once, launch
        threads, then settle."""
        self.budget = StepBudget()
        for index, proc in enumerate(self.design.processes):
            if isinstance(proc, CombProcess):
                self._schedule_proc(index)
        for index, proc in enumerate(self.design.processes):
            if isinstance(proc, InitialProcess):
                thread = _Thread(
                    self._interp.exec_stmt(proc.body, proc.scope), index
                )
                self._run_thread(thread)
            elif isinstance(proc, TimedAlwaysProcess):
                thread = _Thread(
                    self._interp.exec_stmt(proc.body, proc.scope), index,
                    restart_body=True,
                )
                self._run_thread(thread)
        self._settle()

    # -- scheduling primitives -------------------------------------------------

    def _schedule_proc(self, index: int) -> None:
        if index in self._in_active or index == self._running_always:
            return
        self._in_active.add(index)
        self._active.append(index)

    def _notify_change(self, name: str, old: Vec4, new: Vec4) -> None:
        for index in self._comb_sens.get(name, ()):
            self._schedule_proc(index)
        edge_list = self._edge_sens.get(name)
        if edge_list:
            old_bit = old.bit(0)
            new_bit = new.bit(0)
            pos = _is_posedge(old_bit, new_bit)
            neg = _is_negedge(old_bit, new_bit)
            for index, edge in edge_list:
                if (edge == "posedge" and pos) or (edge == "negedge" and neg):
                    self._schedule_proc(index)
        if self._event_waiters:
            self._wake_event_waiters(name, old, new)

    def _notify_memory_change(self, name: str) -> None:
        for index in self._comb_sens.get(name, ()):
            self._schedule_proc(index)

    def _wake_event_waiters(self, name: str, old: Vec4, new: Vec4) -> None:
        still_waiting: List[Tuple[_Thread, object, Scope, str]] = []
        to_wake: List[_Thread] = []
        for entry in self._event_waiters:
            thread, payload, scope, kind = entry
            woke = False
            if kind == "event":
                sens = payload
                if sens.star:
                    woke = True
                else:
                    for item in sens.items:
                        sig = self._sens_signal(item.expr, scope)
                        if sig is None or sig.name != name:
                            continue
                        old_bit, new_bit = old.bit(0), new.bit(0)
                        if item.edge == "posedge":
                            woke = _is_posedge(old_bit, new_bit)
                        elif item.edge == "negedge":
                            woke = _is_negedge(old_bit, new_bit)
                        else:
                            woke = True
                        if woke:
                            break
            else:  # wait: recheck on any change of a read signal
                woke = True
            if woke:
                to_wake.append(thread)
            else:
                still_waiting.append(entry)
        if to_wake:
            self._event_waiters = still_waiting
            for thread in to_wake:
                self._active.append(thread)

    def _sens_signal(self, expr: ast.Expr, scope: Scope) -> Optional[Signal]:
        if isinstance(expr, ast.Identifier):
            binding = scope.lookup(expr.name)
            if isinstance(binding, SignalBinding):
                return binding.signal
        return None

    # -- writes ------------------------------------------------------------

    def _apply_write(self, op: WriteOp, value: Vec4) -> None:
        if op.oob:
            return
        signal = op.signal
        if signal.kind == "net" and signal.name not in self.design.inputs:
            raise SimulationError(
                f"procedural assignment to net {signal.name!r}"
            )
        if op.mem_index is not None:
            mem = self._memories[signal.name]
            current = mem[op.mem_index]
            if op.hi == signal.width - 1 and op.lo == 0:
                new = value.resize(signal.width, signal.signed)
            else:
                new = current.set_slice(op.hi, op.lo, value)
            if new != current:
                mem[op.mem_index] = new
                self._notify_memory_change(signal.name)
            return
        current = self._values[signal.name]
        if op.hi == signal.width - 1 and op.lo == 0:
            new = value.resize(signal.width, signal.signed)
            new = Vec4(signal.width, new.val, new.xz, new.z, signal.signed)
        else:
            new = current.set_slice(op.hi, op.lo, value)
        if new != current:
            self._values[signal.name] = new
            self._notify_change(signal.name, current, new)

    def poke(self, signal: Signal, value: Vec4) -> None:
        """External (testbench) write to a top-level input or variable."""
        current = self._values[signal.name]
        new = value.resize(signal.width, signal.signed)
        new = Vec4(signal.width, new.val, new.xz, new.z, signal.signed)
        if new != current:
            self._values[signal.name] = new
            self._notify_change(signal.name, current, new)

    # -- net driver resolution ---------------------------------------------

    def _set_driver(self, signal: Signal, driver_id: int,
                    contribution: Vec4) -> None:
        contribs = self._driver_contribs.setdefault(signal.name, {})
        previous = contribs.get(driver_id)
        if previous is not None and previous == contribution:
            return
        contribs[driver_id] = contribution
        resolved = self._resolve_net(signal, contribs)
        current = self._values[signal.name]
        if resolved != current:
            self._values[signal.name] = resolved
            self._notify_change(signal.name, current, resolved)

    @staticmethod
    def _resolve_net(signal: Signal, contribs: Dict[int, Vec4]) -> Vec4:
        full = (1 << signal.width) - 1
        res_val, res_x, res_z = 0, 0, full
        for contrib in contribs.values():
            c_drive = full & ~contrib.z
            c_x = contrib.xz & c_drive
            both = c_drive & ~res_z
            only_c = c_drive & res_z
            conflict = both & ((res_val ^ contrib.val) | res_x | c_x)
            new_val = (res_val & ~res_z & ~conflict) | (contrib.val & only_c)
            new_x = (res_x & ~res_z) | (c_x & only_c) | conflict
            res_z &= ~c_drive
            res_val = new_val & ~new_x
            res_x = new_x
        return Vec4(signal.width, res_val, res_x | res_z, res_z,
                    signal.signed)

    # -- process execution -----------------------------------------------------

    def _run_comb(self, proc: CombProcess) -> None:
        if proc.assign is not None:
            target, value_expr = proc.assign
            target_scope = proc.target_scope or proc.scope
            ops = resolve_lvalue(target, target_scope, self.evaluator)
            total = sum(op.width for op in ops)
            value = self.eval(value_expr, proc.scope, ctx_width=total)
            if value.width < total:
                value = value.resize(total, value.signed)
            pieces = split_value_for_ops(value, ops)
            for op, piece in zip(ops, pieces):
                if op.oob:
                    continue
                if op.signal.kind == "net" and (
                    op.signal.name not in self.design.inputs
                ):
                    contribution = self._contribution_for(op, piece)
                    self._set_driver(op.signal, proc.driver_id, contribution)
                else:
                    self._apply_write(op, piece)
            return
        self._interp.run_atomic(proc.body, proc.scope)

    @staticmethod
    def _contribution_for(op: WriteOp, piece: Vec4) -> Vec4:
        """Full-width driver contribution: z outside the driven slice."""
        signal = op.signal
        base = Vec4.all_z(signal.width)
        if op.hi == signal.width - 1 and op.lo == 0:
            resized = piece.resize(signal.width)
            return Vec4(signal.width, resized.val, resized.xz, resized.z)
        return base.set_slice(op.hi, op.lo, piece)

    def _run_edge(self, proc: EdgeProcess) -> None:
        self._interp.run_atomic(proc.body, proc.scope)

    def _run_thread(self, thread: _Thread) -> None:
        if thread.done or self.finished:
            return
        try:
            suspension = next(thread.gen)
        except StopIteration:
            if thread.restart_body:
                proc = self.design.processes[thread.proc_index]
                if not _suspends(proc.body, proc.scope):
                    raise SimulationError(
                        "always block without sensitivity or timing "
                        f"controls (line {proc.line})"
                    )
                thread.gen = self._interp.exec_stmt(proc.body, proc.scope)
                self._active.append(thread)
            else:
                thread.done = True
            return
        except StopSimulation:
            self.finished = True
            thread.done = True
            return
        kind = suspension[0]
        if kind == "delay":
            ticks = max(int(suspension[1]), 0)
            if ticks == 0:
                self._active.append(thread)
            else:
                self._heap_seq += 1
                heapq.heappush(
                    self._timewheel,
                    (self.time + ticks, self._heap_seq, thread),
                )
            return
        if kind == "event":
            self._event_waiters.append(
                (thread, suspension[1], suspension[2], "event")
            )
            return
        if kind == "wait":
            self._event_waiters.append(
                (thread, suspension[1], suspension[2], "wait")
            )
            return
        raise SimulationError(f"unknown suspension {kind!r}")

    # -- event loop ------------------------------------------------------------

    def settle(self) -> None:
        """Drain the current time slot: active region, then NBA, repeat."""
        self.budget = StepBudget()
        self._settle()

    def _settle(self) -> None:
        activations = 0
        while True:
            while self._active:
                if self.finished:
                    self._active.clear()
                    self._in_active.clear()
                    self._nba.clear()
                    return
                entry = self._active.popleft()
                activations += 1
                if activations > MAX_ACTIVATIONS_PER_SLOT:
                    raise SimulationError(
                        "combinational loop: too many activations in one "
                        "time slot"
                    )
                if isinstance(entry, _Thread):
                    self._run_thread(entry)
                    continue
                self._in_active.discard(entry)
                proc = self.design.processes[entry]
                try:
                    if isinstance(proc, CombProcess):
                        if proc.body is not None:
                            self._running_always = entry
                        try:
                            self._run_comb(proc)
                        finally:
                            self._running_always = None
                    elif isinstance(proc, EdgeProcess):
                        self._run_edge(proc)
                except StopSimulation:
                    self.finished = True
                    return
            if not self._nba:
                return
            batch, self._nba = self._nba, []
            for ops, value in batch:
                pieces = split_value_for_ops(value, ops)
                for op, piece in zip(ops, pieces):
                    self._apply_write(op, piece)

    def _advance(self) -> bool:
        """Advance time to the next scheduled thread event, within the
        current entry's budget.

        Returns False when nothing remains scheduled."""
        self._settle()
        if self.finished or not self._timewheel:
            return False
        next_time, _, _ = self._timewheel[0]
        if next_time > MAX_SIM_TIME:
            return False
        self.time = next_time
        while self._timewheel and self._timewheel[0][0] == self.time:
            _, _, thread = heapq.heappop(self._timewheel)
            self._active.append(thread)
        self._settle()
        return True

    def run(self, max_time: Optional[int] = None) -> None:
        """Run until the time wheel drains or ``max_time`` is reached."""
        limit = MAX_SIM_TIME if max_time is None else max_time
        self.budget = StepBudget()
        self._settle()
        while not self.finished and self._timewheel:
            if self._timewheel[0][0] > limit:
                return
            self._advance()

    # -- $display formatting ---------------------------------------------------

    def _format_display(self, args: List[ast.Expr], scope: Scope) -> str:
        if not args:
            return ""
        first = args[0]
        values = [self.eval(a, scope) if not isinstance(a, ast.StringLiteral)
                  else a.value
                  for a in args]
        if isinstance(first, ast.StringLiteral):
            return _format_verilog(first.value, values[1:], self.time)
        parts = []
        for value in values:
            if isinstance(value, str):
                parts.append(value)
            elif value.has_unknown:
                parts.append(value.to_bit_string())
            else:
                parts.append(str(value.signed_value()))
        return " ".join(parts)


class ReferenceSimulator(Simulator):
    """:class:`Simulator` over the reference kernel."""

    def __init__(self, sources, top=None, params=None, seed=0) -> None:
        library = build_library(sources)
        if not library:
            raise ElaborationError("no modules in source")
        if top is None:
            top = next(reversed(library))
        self.design = elaborate(library, top, params)
        self.kernel = Kernel(self.design, seed=seed)
        self.kernel.initialize()
