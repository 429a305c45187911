"""Symbolic (BDD) execution of the elaborated two-valued subset.

This module compiles an elaborated :class:`~repro.verilog.sim.design.
Design` into per-bit BDD functions.  What it shares with the simulator
it calls rather than restates:

* every block-local variable is shaped by
  :func:`~repro.verilog.sim.design.declared_signal`, the rule of module
  signals, ports, the kernel's block locals and function frames;
* part and indexed selects map to physical bits through
  :func:`~repro.verilog.sim.eval.part_bounds` and
  :func:`~repro.verilog.sim.eval.indexed_bounds`, as the simulator's
  reads and writes do;
* assignment targets resolve through
  :func:`~repro.verilog.sim.interp.resolve_lvalue` and values split
  across them through :func:`~repro.verilog.sim.interp.split_value_for_ops`;
* every width, signedness or constant decision goes to the real
  :class:`~repro.verilog.sim.eval.Evaluator` over a store view of the
  symbolic environment, so constant sub-expressions (parameters, loop
  indices, ``$clog2``, user functions of constants) fold to exactly
  the value the simulator computes;
* each statement executed and each loop iteration charges one step of
  a :class:`~repro.verilog.sim.interp.StepBudget`, one per design model
  for a whole check, as the simulator charges its entries.

Its own are the symbolic operators (adders, comparators, shifts, a
merge under a symbolic condition) and the statement walk that applies
the simulator's statement rules to them;
``tests/verilog/test_formal_crossval.py`` checks them against
exhaustive simulation.

The modelled subset is two-valued and synchronous: anything whose
simulator semantics involve x/z data, timing, randomness, memories, or
scheduling races raises :class:`FormalUnsupported` with a human-readable
reason.  The checker turns that, and a spent step budget, into an
``unsupported`` verdict — the engine never guesses, so a
``verified``/``equivalent`` answer is exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import ast_nodes as ast
from ..sim.design import (
    CombProcess,
    ConstBinding,
    Design,
    FuncBinding,
    Scope,
    Signal,
    SignalBinding,
    declared_signal,
)
from ..sim.eval import EvalError, Evaluator, indexed_bounds, part_bounds
from ..sim.interp import (
    SimulationError,
    StepBudget,
    WriteOp,
    resolve_lvalue,
    run_function,
    split_value_for_ops,
)
from ..sim.values import Vec4
from .bdd import FALSE, TRUE, BDDManager


class FormalUnsupported(Exception):
    """The design (or this construct) is outside the modelled subset.

    ``reason`` is a short stable phrase used in reports, so keep the
    wording deterministic — no addresses, no volatile state.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class SymVec:
    """A symbolic bit-vector: BDD node per bit, LSB-first.

    The two-valued analogue of :class:`Vec4` — same width/signedness
    conventions, minus the x/z planes.
    """

    __slots__ = ("mgr", "width", "bits", "signed")

    def __init__(self, mgr: BDDManager, width: int, bits: List[int],
                 signed: bool = False) -> None:
        assert len(bits) == width
        self.mgr = mgr
        self.width = width
        self.bits = bits
        self.signed = signed

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_int(cls, mgr: BDDManager, value: int, width: int,
                 signed: bool = False) -> "SymVec":
        bits = [TRUE if (value >> i) & 1 else FALSE for i in range(width)]
        return cls(mgr, width, bits, signed)

    @classmethod
    def from_vec4(cls, mgr: BDDManager, value: Vec4) -> "SymVec":
        if value.xz:
            raise FormalUnsupported("x/z value in expression")
        return cls.from_int(mgr, value.val, value.width, value.signed)

    # -- conversions ----------------------------------------------------

    def const_int(self) -> Optional[int]:
        """The unsigned integer value when every bit is a terminal."""
        acc = 0
        for i, bit in enumerate(self.bits):
            if bit == TRUE:
                acc |= 1 << i
            elif bit != FALSE:
                return None
        return acc

    def const_signed(self) -> Optional[int]:
        raw = self.const_int()
        if raw is None:
            return None
        if self.signed and raw & (1 << (self.width - 1)):
            return raw - (1 << self.width)
        return raw

    def to_vec4(self) -> Vec4:
        value = self.const_int()
        if value is None:
            raise EvalError("symbolic value in constant context")
        return Vec4.from_int(value, self.width, self.signed)

    # -- structure (mirrors Vec4) ---------------------------------------

    def resize(self, width: int, signed: Optional[bool] = None) -> "SymVec":
        use_signed = self.signed if signed is None else signed
        if width <= self.width:
            return SymVec(self.mgr, width, self.bits[:width], use_signed)
        ext = self.bits[-1] if use_signed else FALSE
        return SymVec(self.mgr, width,
                      self.bits + [ext] * (width - self.width), use_signed)

    def as_signed(self, signed: bool = True) -> "SymVec":
        return SymVec(self.mgr, self.width, self.bits, signed)

    def slice(self, hi: int, lo: int) -> "SymVec":
        """Out-of-range bits would be x in the simulator — reject."""
        if lo < 0 or hi >= self.width:
            raise FormalUnsupported("out-of-range bit or part select")
        return SymVec(self.mgr, hi - lo + 1, self.bits[lo:hi + 1])

    def truthy(self) -> int:
        """BDD node for "any bit set" (Verilog truthiness, two-valued)."""
        return self.mgr.or_all(self.bits)


class _SymStoreView:
    """Store adapter exposing *currently constant* symbolic signals.

    Plugged under the real :class:`Evaluator` so any sub-expression
    whose signal reads all fold to constants is evaluated with exact
    simulator semantics (widths, signedness, div/mod, ``$clog2``, user
    functions).  Reads of genuinely symbolic signals raise
    :class:`EvalError`, handing evaluation back to the symbolic walk.
    """

    def __init__(self, context: "SymbolicContext") -> None:
        self._context = context

    @property
    def signals(self) -> Dict[str, Signal]:
        return self._context.design.signals

    def read(self, signal: Signal) -> Vec4:
        value = self._context.try_const_read(signal)
        if value is None:
            raise EvalError(f"symbolic signal {signal.name!r}")
        return value

    def read_mem(self, signal: Signal, index: int) -> Vec4:
        raise EvalError(f"memory {signal.name!r} in formal context")

    def now(self) -> int:
        raise EvalError("$time in formal context")

    def random(self) -> int:
        raise EvalError("$random in formal context")


class SymbolicContext:
    """Symbolic machine state for one design: env, undef guards, NBAs.

    ``env`` maps flat signal name → LSB-first BDD bits; ``undef`` maps
    the same names to per-bit *guard* nodes — the condition under which
    that bit has never been assigned.  A read is legal only where
    ``path AND undef`` is unsatisfiable, which is exactly "no reachable
    execution observes an unassigned (x) bit".
    """

    def __init__(self, design: Design, mgr: BDDManager,
                 budget: StepBudget) -> None:
        self.design = design
        self.mgr = mgr
        #: Charged one step per statement executed and per loop
        #: iteration, as the simulator charges its entries.
        self.budget = budget
        self.env: Dict[str, List[int]] = {}
        self.undef: Dict[str, List[int]] = {}
        #: Pending non-blocking writes: name -> (guards, values), LSB-first.
        self.nba: Dict[str, Tuple[List[int], List[int]]] = {}
        #: Current path condition for branch-sensitive undef checks.
        self.path: int = TRUE
        self._store_view = _SymStoreView(self)
        self.consts = Evaluator(self._store_view, self._call_const_function)

    def _call_const_function(self, binding: FuncBinding,
                             args: List[Vec4]) -> Vec4:
        return run_function(binding, args, self._store_view)

    # -- environment ----------------------------------------------------

    def init_signal(self, signal: Signal, bits: Optional[List[int]] = None,
                    defined: bool = False) -> None:
        width = signal.width
        self.env[signal.name] = list(bits) if bits is not None \
            else [FALSE] * width
        self.undef[signal.name] = [FALSE if defined else TRUE] * width

    def try_const_read(self, signal: Signal) -> Optional[Vec4]:
        bits = self.env.get(signal.name)
        if bits is None or signal.is_memory:
            return None
        guards = self.undef[signal.name]
        acc = 0
        for i, bit in enumerate(bits):
            if guards[i] != FALSE:
                return None
            if bit == TRUE:
                acc |= 1 << i
            elif bit != FALSE:
                return None
        return Vec4.from_int(acc, signal.width, signal.signed)

    def read_signal(self, signal: Signal, lo: int = 0,
                    hi: Optional[int] = None) -> SymVec:
        """Read ``signal`` (or bit range) checking reachable-undef."""
        if signal.is_memory:
            raise FormalUnsupported(f"memory {signal.name!r}")
        bits = self.env.get(signal.name)
        if bits is None:
            raise FormalUnsupported(f"unmodeled signal {signal.name!r}")
        guards = self.undef[signal.name]
        top = signal.width - 1 if hi is None else min(hi, signal.width - 1)
        for i in range(max(lo, 0), top + 1):
            if self.mgr.and_(self.path, guards[i]) != FALSE:
                raise FormalUnsupported(
                    f"read of undefined (x) value {signal.name!r}")
        return SymVec(self.mgr, signal.width, list(bits), signal.signed)

    def write_bits(self, signal: Signal, lo: int, piece: SymVec) -> None:
        """Blocking write of ``piece`` into ``signal[lo + w - 1 : lo]``."""
        bits = list(self.env[signal.name])
        guards = list(self.undef[signal.name])
        for i, bit in enumerate(piece.bits):
            pos = lo + i
            if 0 <= pos < signal.width:
                bits[pos] = bit
                guards[pos] = FALSE
        self.env[signal.name] = bits
        self.undef[signal.name] = guards

    def write_bits_nba(self, signal: Signal, lo: int, piece: SymVec) -> None:
        entry = self.nba.get(signal.name)
        if entry is None:
            entry = ([FALSE] * signal.width, [FALSE] * signal.width)
        guards, values = list(entry[0]), list(entry[1])
        for i, bit in enumerate(piece.bits):
            pos = lo + i
            if 0 <= pos < signal.width:
                guards[pos] = self.path
                values[pos] = bit
        self.nba[signal.name] = (guards, values)

    def apply_nba(self) -> None:
        """Fold pending non-blocking writes into the environment."""
        mgr = self.mgr
        for name, (guards, values) in self.nba.items():
            bits = list(self.env[name])
            undef = list(self.undef[name])
            for i in range(len(bits)):
                if guards[i] == FALSE:
                    continue
                bits[i] = mgr.ite(guards[i], values[i], bits[i])
                undef[i] = mgr.ite(guards[i], FALSE, undef[i])
            self.env[name] = bits
            self.undef[name] = undef
        self.nba = {}

    # -- branch merging -------------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, List[int]], Dict[str, List[int]],
                                Dict[str, Tuple[List[int], List[int]]], int]:
        return dict(self.env), dict(self.undef), dict(self.nba), self.path

    def restore(self, state) -> None:
        self.env, self.undef, self.nba, self.path = (
            dict(state[0]), dict(state[1]), dict(state[2]), state[3])

    def merge(self, cond: int, then_state, else_state) -> None:
        """``self`` becomes ite(cond, then_state, else_state)."""
        mgr = self.mgr
        then_env, then_undef, then_nba, _ = then_state
        else_env, else_undef, else_nba, _ = else_state

        def merge_lists(a: List[int], b: List[int]) -> List[int]:
            if a is b or a == b:
                return a
            return [mgr.ite(cond, x, y) for x, y in zip(a, b)]

        env: Dict[str, List[int]] = {}
        for name in then_env:
            if name in else_env:
                env[name] = merge_lists(then_env[name], else_env[name])
        undef: Dict[str, List[int]] = {}
        for name in then_undef:
            if name in else_undef:
                undef[name] = merge_lists(then_undef[name], else_undef[name])
        nba: Dict[str, Tuple[List[int], List[int]]] = {}
        for name in set(then_nba) | set(else_nba):
            width = len(self.env.get(name, then_nba.get(
                name, else_nba.get(name))[0]))
            empty = ([FALSE] * width, [FALSE] * width)
            g_t, v_t = then_nba.get(name, empty)
            g_e, v_e = else_nba.get(name, empty)
            guards = [mgr.ite(cond, a, b) for a, b in zip(g_t, g_e)]
            values = [mgr.ite(cond, a, b) for a, b in zip(v_t, v_e)]
            nba[name] = (guards, values)
        self.env, self.undef, self.nba = env, undef, nba

    # =====================================================================
    # Expression evaluation (ExprCompiler's rules in sim/eval.py)
    # =====================================================================

    def eval_sym(self, expr: ast.Expr, scope: Scope,
                 ctx_width: Optional[int] = None) -> SymVec:
        self._reject_impure(expr)
        try:
            value = self.consts.eval(expr, scope, ctx_width)
        except EvalError:
            return self._sym_inner(expr, scope, ctx_width)
        except SimulationError as exc:
            raise FormalUnsupported(f"constant evaluation failed: {exc}")
        return SymVec.from_vec4(self.mgr, value)

    @staticmethod
    def _reject_impure(expr: ast.Expr) -> None:
        """$random/$time would fold to arbitrary constants — refuse."""
        if isinstance(expr, ast.SystemCall) and expr.name in (
                "$random", "$time", "$stime", "$realtime"):
            raise FormalUnsupported(f"{expr.name} in formal context")

    def width_of(self, expr: ast.Expr, scope: Scope) -> Tuple[int, bool]:
        try:
            return self.consts.width_of(expr, scope)
        except EvalError as exc:
            raise FormalUnsupported(f"cannot size expression: {exc}")

    def _ctx(self, expr: ast.Expr, scope: Scope,
             ctx_width: Optional[int]) -> int:
        width, _ = self.width_of(expr, scope)
        return width if ctx_width is None else max(width, ctx_width)

    def _sym_inner(self, expr: ast.Expr, scope: Scope,
                   ctx_width: Optional[int]) -> SymVec:
        if isinstance(expr, ast.Number):
            if expr.xz_mask:
                raise FormalUnsupported("x/z literal in expression")
            width = expr.width if expr.width is not None else 32
            value = SymVec.from_int(
                self.mgr, expr.value, width,
                expr.signed or (expr.width is None))
            if ctx_width is not None and ctx_width > width:
                value = value.resize(ctx_width)
            return value
        if isinstance(expr, ast.Identifier):
            return self._sym_identifier(expr, scope, ctx_width)
        if isinstance(expr, ast.HierarchicalId):
            raise FormalUnsupported("hierarchical reference")
        if isinstance(expr, ast.Select):
            return self._sym_select(expr, scope)
        if isinstance(expr, ast.Concat):
            parts = [self.eval_sym(p, scope) for p in expr.parts]
            bits: List[int] = []
            for part in reversed(parts):
                bits.extend(part.bits)
            return SymVec(self.mgr, len(bits), bits)
        if isinstance(expr, ast.Replicate):
            count = self._const_int(expr.count, scope,
                                    "replication count")
            if count <= 0:
                raise FormalUnsupported("non-positive replication count")
            value = self.eval_sym(expr.value, scope)
            return SymVec(self.mgr, value.width * count, value.bits * count)
        if isinstance(expr, ast.Unary):
            return self._sym_unary(expr, scope, ctx_width)
        if isinstance(expr, ast.Binary):
            return self._sym_binary(expr, scope, ctx_width)
        if isinstance(expr, ast.Ternary):
            return self._sym_ternary(expr, scope, ctx_width)
        if isinstance(expr, ast.FunctionCall):
            raise FormalUnsupported(
                f"user function {expr.name!r} of non-constant arguments")
        if isinstance(expr, ast.SystemCall):
            return self._sym_system_call(expr, scope)
        raise FormalUnsupported(
            f"unsupported expression {type(expr).__name__}")

    def _const_int(self, expr: ast.Expr, scope: Scope, what: str) -> int:
        try:
            return self.consts.eval_const_int(expr, scope)
        except (EvalError, SimulationError):
            raise FormalUnsupported(f"symbolic {what}")

    def _sym_identifier(self, expr: ast.Identifier, scope: Scope,
                        ctx_width: Optional[int]) -> SymVec:
        binding = scope.lookup(expr.name)
        if binding is None:
            raise FormalUnsupported(f"unknown identifier {expr.name!r}")
        if isinstance(binding, ConstBinding):
            value = SymVec.from_vec4(self.mgr, binding.value)
        elif isinstance(binding, SignalBinding):
            value = self.read_signal(binding.signal)
        else:
            raise FormalUnsupported(f"{expr.name!r} is not a value")
        if ctx_width is not None and ctx_width > value.width:
            value = value.resize(ctx_width)
        return value

    def _sym_select(self, expr: ast.Select, scope: Scope) -> SymVec:
        base_signal = self._signal_of(expr.base, scope)
        if base_signal is not None and base_signal.is_memory:
            raise FormalUnsupported(f"memory {base_signal.name!r}")
        if expr.kind == "bit":
            index = self.eval_sym(expr.left, scope)
            index_i = (index.const_signed() if index.signed
                       else index.const_int())
            if index_i is None:
                raise FormalUnsupported("symbolic bit-select index")
            hi, lo = part_bounds(base_signal, index_i, index_i)
        elif expr.kind == "part":
            hi, lo = part_bounds(
                base_signal,
                self._const_int(expr.left, scope, "part-select bound"),
                self._const_int(expr.right, scope, "part-select bound"))
        else:
            width = self._const_int(expr.right, scope, "indexed-part width")
            start = self.eval_sym(expr.left, scope).const_int()
            if start is None:
                raise FormalUnsupported("symbolic indexed part-select base")
            hi, lo = indexed_bounds(base_signal, start, width,
                                    expr.kind == "plus")
        base = self._read_base(expr.base, base_signal, scope, lo, hi)
        return base.slice(hi, lo)

    def _read_base(self, base_expr: ast.Expr, base_signal: Optional[Signal],
                   scope: Scope, lo: int, hi: int) -> SymVec:
        """Read the select base, checking undef only on the used range
        when the base is a plain signal reference."""
        if base_signal is not None and isinstance(base_expr, ast.Identifier):
            return self.read_signal(base_signal, lo, hi)
        return self.eval_sym(base_expr, scope)

    @staticmethod
    def _signal_of(expr: ast.Expr, scope: Scope) -> Optional[Signal]:
        if isinstance(expr, ast.Identifier):
            binding = scope.lookup(expr.name)
            if isinstance(binding, SignalBinding):
                return binding.signal
        return None

    def _sym_unary(self, expr: ast.Unary, scope: Scope,
                   ctx_width: Optional[int]) -> SymVec:
        mgr = self.mgr
        op = expr.op
        if op == "!":
            operand = self.eval_sym(expr.operand, scope)
            return SymVec(mgr, 1, [mgr.not_(operand.truthy())])
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            operand = self.eval_sym(expr.operand, scope)
            if op in ("&", "~&"):
                node = mgr.and_all(operand.bits)
            elif op in ("|", "~|"):
                node = mgr.or_all(operand.bits)
            else:
                node = FALSE
                for bit in operand.bits:
                    node = mgr.xor_(node, bit)
            if op in ("~&", "~|", "~^", "^~"):
                node = mgr.not_(node)
            return SymVec(mgr, 1, [node])
        operand = self.eval_sym(expr.operand, scope, ctx_width)
        if ctx_width is not None and ctx_width > operand.width:
            operand = operand.resize(ctx_width)
        if op == "~":
            return SymVec(mgr, operand.width,
                          [mgr.not_(b) for b in operand.bits],
                          operand.signed)
        if op == "-":
            return self._negate(operand)
        if op == "+":
            return operand
        raise FormalUnsupported(f"unsupported unary operator {op!r}")

    def _negate(self, operand: SymVec) -> SymVec:
        inverted = [self.mgr.not_(b) for b in operand.bits]
        result = self._ripple_add(
            SymVec(self.mgr, operand.width, inverted),
            SymVec.from_int(self.mgr, 0, operand.width), carry=TRUE)
        return SymVec(self.mgr, operand.width, result.bits, operand.signed)

    def _ripple_add(self, a: SymVec, b: SymVec, carry: int = FALSE) -> SymVec:
        mgr = self.mgr
        assert a.width == b.width
        bits: List[int] = []
        for x, y in zip(a.bits, b.bits):
            partial = mgr.xor_(x, y)
            bits.append(mgr.xor_(partial, carry))
            carry = mgr.or_(mgr.and_(x, y), mgr.and_(carry, partial))
        return SymVec(mgr, a.width, bits, a.signed and b.signed)

    def _sym_binary(self, expr: ast.Binary, scope: Scope,
                    ctx_width: Optional[int]) -> SymVec:
        mgr = self.mgr
        op = expr.op
        if op in ("&&", "||"):
            left = self.eval_sym(expr.left, scope)
            # Short-circuit when decidable (mirrors the evaluator).
            lt = left.truthy()
            if op == "&&" and lt == FALSE:
                return SymVec.from_int(mgr, 0, 1)
            if op == "||" and lt == TRUE:
                return SymVec.from_int(mgr, 1, 1)
            right = self.eval_sym(expr.right, scope)
            rt = right.truthy()
            node = mgr.and_(lt, rt) if op == "&&" else mgr.or_(lt, rt)
            return SymVec(mgr, 1, [node])
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            lw, ls = self.width_of(expr.left, scope)
            rw, rs = self.width_of(expr.right, scope)
            width = max(lw, rw)
            left = self.eval_sym(expr.left, scope, width)
            right = self.eval_sym(expr.right, scope, width)
            signed = ls and rs
            left = left.resize(width, left.signed and signed)
            right = right.resize(width, right.signed and signed)
            # Two-valued === is ==, !== is !=.
            if op in ("==", "==="):
                return SymVec(mgr, 1, [self._bits_eq(left, right)])
            if op in ("!=", "!=="):
                return SymVec(mgr, 1, [mgr.not_(self._bits_eq(left, right))])
            cmp_signed = left.signed and right.signed
            lt_node = self._less_than(left, right, cmp_signed)
            gt_node = self._less_than(right, left, cmp_signed)
            node = {"<": lt_node, ">": gt_node,
                    "<=": mgr.not_(gt_node),
                    ">=": mgr.not_(lt_node)}[op]
            return SymVec(mgr, 1, [node])
        if op in ("<<", ">>", "<<<", ">>>"):
            width = self._ctx(expr.left, scope, ctx_width)
            left = self.eval_sym(expr.left, scope, width)
            left = left.resize(width, left.signed)
            amount = self.eval_sym(expr.right, scope)
            if op in ("<<", "<<<"):
                return self._shift(left, amount, "left")
            if op == ">>>":
                if not left.signed:
                    return self._shift(left, amount, "right")
                return self._shift(left, amount, "arith")
            return self._shift(left, amount, "right")
        if op == "**":
            raise FormalUnsupported("power with non-constant operands")
        width = self._ctx(expr, scope, ctx_width)
        left = self.eval_sym(expr.left, scope, width)
        right = self.eval_sym(expr.right, scope, width)
        signed = left.signed and right.signed
        left = left.resize(width, left.signed)
        right = right.resize(width, right.signed)
        if not signed:
            left = left.as_signed(False)
            right = right.as_signed(False)
        if op == "+":
            return self._ripple_add(left, right)
        if op == "-":
            inverted = SymVec(mgr, width, [mgr.not_(b) for b in right.bits],
                              right.signed)
            result = self._ripple_add(left, inverted, carry=TRUE)
            return SymVec(mgr, width, result.bits, signed)
        if op == "*":
            return self._multiply(left, right, signed)
        if op in ("/", "%"):
            raise FormalUnsupported(
                f"{op!r} with non-constant operands")
        pairwise = {"&": mgr.and_, "|": mgr.or_, "^": mgr.xor_,
                    "~^": mgr.xnor_, "^~": mgr.xnor_}.get(op)
        if pairwise is None:
            raise FormalUnsupported(f"unsupported binary operator {op!r}")
        bits = [pairwise(a, b) for a, b in zip(left.bits, right.bits)]
        return SymVec(mgr, width, bits, signed)

    def _bits_eq(self, a: SymVec, b: SymVec) -> int:
        mgr = self.mgr
        return mgr.and_all(mgr.xnor_(x, y)
                           for x, y in zip(a.bits, b.bits))

    def _less_than(self, a: SymVec, b: SymVec, signed: bool) -> int:
        """a < b on equal widths; signed compare flips the sign bits."""
        mgr = self.mgr
        a_bits, b_bits = list(a.bits), list(b.bits)
        if signed and a.width:
            a_bits[-1] = mgr.not_(a_bits[-1])
            b_bits[-1] = mgr.not_(b_bits[-1])
        lt = FALSE
        equal = TRUE
        for x, y in zip(reversed(a_bits), reversed(b_bits)):
            lt = mgr.or_(lt, mgr.and_all((equal, mgr.not_(x), y)))
            equal = mgr.and_(equal, mgr.xnor_(x, y))
        return lt

    def _multiply(self, a: SymVec, b: SymVec, signed: bool) -> SymVec:
        """Shift-and-add at the operand width (wrapping, like from_int)."""
        mgr = self.mgr
        width = a.width
        acc = SymVec.from_int(mgr, 0, width)
        for i, b_bit in enumerate(b.bits):
            if b_bit == FALSE:
                continue
            shifted = [FALSE] * i + a.bits[:width - i]
            addend = SymVec(mgr, width,
                            [mgr.and_(bit, b_bit) for bit in shifted])
            acc = self._ripple_add(acc, addend)
        return SymVec(mgr, width, acc.bits, signed)

    def _shift(self, value: SymVec, amount: SymVec, kind: str) -> SymVec:
        """Mirror Vec4.shl/shr/ashr: amounts >= width give zeros (or a
        full sign fill for arithmetic right shift)."""
        mgr = self.mgr
        amount_i = amount.const_int()
        width = value.width
        sign = value.bits[-1] if width else FALSE
        if amount_i is not None:
            if kind == "arith":
                n = min(amount_i, width)
                bits = value.bits[n:] + [sign] * n
            elif amount_i >= width:
                bits = [FALSE] * width
            elif kind == "left":
                bits = [FALSE] * amount_i + value.bits[:width - amount_i]
            else:
                bits = value.bits[amount_i:] + [FALSE] * amount_i
            return SymVec(mgr, width, bits, value.signed)
        fill = sign if kind == "arith" else FALSE
        bits = list(value.bits)
        shift_bits = min(amount.width, max(width, 1).bit_length())
        for k in range(shift_bits):
            step = 1 << k
            select = amount.bits[k]
            if kind == "left":
                shifted = [FALSE] * step + bits[:width - step] \
                    if step < width else [FALSE] * width
            else:
                shifted = bits[step:] + [fill] * min(step, width)
            bits = [mgr.ite(select, s, b) for s, b in zip(shifted, bits)]
        overflow = mgr.or_all(amount.bits[shift_bits:])
        if overflow != FALSE:
            bits = [mgr.ite(overflow, fill, b) for b in bits]
        return SymVec(mgr, width, bits, value.signed)

    def _sym_ternary(self, expr: ast.Ternary, scope: Scope,
                     ctx_width: Optional[int]) -> SymVec:
        mgr = self.mgr
        cond = self.eval_sym(expr.cond, scope)
        width = self._ctx(expr, scope, ctx_width)
        truth = cond.truthy()
        if truth == TRUE:
            return self.eval_sym(expr.if_true, scope, width)
        if truth == FALSE:
            return self.eval_sym(expr.if_false, scope, width)
        a = self.eval_sym(expr.if_true, scope, width)
        b = self.eval_sym(expr.if_false, scope, width)
        a = a.resize(width)
        b = b.resize(width)
        if a.signed != b.signed:
            # Which arm is taken decides downstream sign-extension; a
            # single symbolic result cannot carry both signednesses.
            raise FormalUnsupported(
                "mixed-signedness ternary arms under symbolic condition")
        bits = [mgr.ite(truth, x, y) for x, y in zip(a.bits, b.bits)]
        return SymVec(mgr, width, bits, a.signed)

    def _sym_system_call(self, expr: ast.SystemCall, scope: Scope) -> SymVec:
        name = expr.name
        if name == "$signed":
            return self.eval_sym(expr.args[0], scope).as_signed(True)
        if name == "$unsigned":
            return self.eval_sym(expr.args[0], scope).as_signed(False)
        if name == "$bits":
            width, _ = self.width_of(expr.args[0], scope)
            return SymVec.from_int(self.mgr, width, 32)
        raise FormalUnsupported(
            f"system function {name} of non-constant arguments")

    # =====================================================================
    # Statement execution (Compiler's rules in sim/interp.py)
    # =====================================================================

    def exec_stmt(self, stmt: Optional[ast.Stmt], scope: Scope) -> None:
        if stmt is None:
            return
        self.budget.charge(1)
        if isinstance(stmt, ast.Block):
            block_scope = scope
            if stmt.decls:
                block_scope = scope.child(stmt.name or "__blk")
                for decl in stmt.decls:
                    self._declare_local(decl, block_scope)
            for inner in stmt.stmts:
                self.exec_stmt(inner, block_scope)
            return
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, scope)
            return
        if isinstance(stmt, ast.If):
            self._exec_if(stmt, scope)
            return
        if isinstance(stmt, ast.Case):
            self._exec_case(stmt, scope)
            return
        if isinstance(stmt, ast.For):
            self._exec_for(stmt, scope)
            return
        if isinstance(stmt, ast.While):
            while self._const_truth(stmt.cond, scope, "loop condition"):
                self.exec_stmt(stmt.body, scope)
                self.budget.charge(1)
            return
        if isinstance(stmt, ast.Repeat):
            count = self._const_int(stmt.count, scope, "repeat count")
            for _ in range(max(count, 0)):
                self.exec_stmt(stmt.body, scope)
                self.budget.charge(1)
            return
        if isinstance(stmt, (ast.NullStmt, ast.Disable)):
            return
        if isinstance(stmt, ast.SystemTaskCall):
            # $display and friends have no value semantics; $readmem
            # targets memories, which are rejected at the access site.
            return
        raise FormalUnsupported(
            f"unsupported statement {type(stmt).__name__}")

    def _const_truth(self, expr: ast.Expr, scope: Scope, what: str) -> bool:
        value = self.eval_sym(expr, scope)
        truth = value.truthy()
        if truth == TRUE:
            return True
        if truth == FALSE:
            return False
        raise FormalUnsupported(f"symbolic {what}")

    def _declare_local(self, decl: ast.Decl, scope: Scope) -> None:
        if decl.array_dims:
            raise FormalUnsupported(f"local memory {decl.name!r}")
        signal = declared_signal(
            decl, scope.flat_name(decl.name),
            lambda bound: self._const_int(bound, scope, "local range"))
        scope.bind(decl.name, SignalBinding(signal=signal))
        self.init_signal(signal)

    def _exec_assign(self, stmt: ast.Assign, scope: Scope) -> None:
        ops = self._resolve_lvalue(stmt.target, scope)
        total = sum(op.width for op in ops)
        signed_target = len(ops) == 1 and ops[0].signal.signed
        value = self.eval_sym(stmt.value, scope, ctx_width=total)
        if value.width < total:
            value = value.resize(total, value.signed)
        if signed_target:
            value = value.as_signed(True)
        self._write(ops, value, blocking=stmt.blocking)

    def _resolve_lvalue(self, target: ast.Expr,
                        scope: Scope) -> List[WriteOp]:
        try:
            ops = resolve_lvalue(target, scope, self.consts)
        except (EvalError, SimulationError) as exc:
            raise FormalUnsupported(f"unsupported lvalue: {exc}")
        for op in ops:
            if op.mem_index is not None:
                raise FormalUnsupported(
                    f"memory write {op.signal.name!r}")
        return ops

    def _write(self, ops: Sequence[WriteOp], value: SymVec,
               blocking: bool) -> None:
        write = self.write_bits if blocking else self.write_bits_nba
        for op, piece in zip(ops, split_value_for_ops(value, ops)):
            if not op.oob:
                write(op.signal, op.lo, piece)

    def _exec_if(self, stmt: ast.If, scope: Scope) -> None:
        cond = self.eval_sym(stmt.cond, scope)
        truth = cond.truthy()
        if truth == TRUE:
            self.exec_stmt(stmt.then_stmt, scope)
            return
        if truth == FALSE:
            self.exec_stmt(stmt.else_stmt, scope)
            return
        self._exec_branches(truth, stmt.then_stmt, stmt.else_stmt, scope)

    def _exec_branches(self, cond: int, then_stmt: Optional[ast.Stmt],
                       else_stmt: Optional[ast.Stmt], scope: Scope) -> None:
        saved = self.snapshot()
        self.path = self.mgr.and_(saved[3], cond)
        self.exec_stmt(then_stmt, scope)
        then_state = self.snapshot()
        self.restore(saved)
        self.path = self.mgr.and_(saved[3], self.mgr.not_(cond))
        self.exec_stmt(else_stmt, scope)
        else_state = self.snapshot()
        self.path = saved[3]
        self.merge(cond, then_state, else_state)

    def _exec_case(self, stmt: ast.Case, scope: Scope) -> None:
        subject = self.eval_sym(stmt.subject, scope)
        arms: List[Tuple[int, Optional[ast.Stmt]]] = []
        default_body: Optional[ast.Stmt] = None
        for item in stmt.items:
            if not item.exprs:
                default_body = item.body
                continue
            match = self.mgr.or_all(
                self._case_match(stmt.kind, subject, expr, scope)
                for expr in item.exprs)
            arms.append((match, item.body))
        self._exec_case_chain(arms, default_body, scope)

    def _exec_case_chain(self, arms: List[Tuple[int, Optional[ast.Stmt]]],
                         default_body: Optional[ast.Stmt],
                         scope: Scope) -> None:
        if not arms:
            self.exec_stmt(default_body, scope)
            return
        cond, body = arms[0]
        if cond == TRUE:
            self.exec_stmt(body, scope)
            return
        if cond == FALSE:
            self._exec_case_chain(arms[1:], default_body, scope)
            return
        saved = self.snapshot()
        self.path = self.mgr.and_(saved[3], cond)
        self.exec_stmt(body, scope)
        then_state = self.snapshot()
        self.restore(saved)
        self.path = self.mgr.and_(saved[3], self.mgr.not_(cond))
        self._exec_case_chain(arms[1:], default_body, scope)
        else_state = self.snapshot()
        self.path = saved[3]
        self.merge(cond, then_state, else_state)

    def _case_match(self, kind: str, subject: SymVec, label_expr: ast.Expr,
                    scope: Scope) -> int:
        """Mirror interp._case_match, allowing four-state *constant*
        labels (the casez/casex wildcard idiom)."""
        mgr = self.mgr
        label_vec4: Optional[Vec4] = None
        try:
            label_vec4 = self.consts.eval(label_expr, scope)
        except (EvalError, SimulationError):
            pass
        if label_vec4 is None or not label_vec4.xz:
            label = self.eval_sym(label_expr, scope)
            width = max(subject.width, label.width)
            a = subject.resize(width)
            b = label.resize(width)
            return self._bits_eq(a, b)
        width = max(subject.width, label_vec4.width)
        a = subject.resize(width)
        b = label_vec4.resize(width)
        mask = (1 << width) - 1
        care = mask
        if kind == "casez":
            care &= ~b.z & mask
        elif kind == "casex":
            care &= ~b.xz & mask
        # A two-valued subject can never match leftover x/z label bits.
        if kind == "case" or (b.xz & care):
            return FALSE
        nodes = []
        for i in range(width):
            if care & (1 << i):
                nodes.append(mgr.xnor_(
                    a.bits[i], TRUE if (b.val >> i) & 1 else FALSE))
        return mgr.and_all(nodes)

    def _exec_for(self, stmt: ast.For, scope: Scope) -> None:
        if stmt.init is not None:
            self._exec_assign(stmt.init, scope)
        while stmt.cond is None or self._const_truth(stmt.cond, scope,
                                                     "loop condition"):
            self.exec_stmt(stmt.body, scope)
            if stmt.step is not None:
                self._exec_assign(stmt.step, scope)
            self.budget.charge(1)

    # =====================================================================
    # Continuous assigns (Kernel._compile_assign's rules)
    # =====================================================================

    def run_comb_assign(self, proc: CombProcess) -> None:
        target_expr, value_expr = proc.assign  # type: ignore[misc]
        ops = self._resolve_lvalue(target_expr,
                                   proc.target_scope or proc.scope)
        total = sum(op.width for op in ops)
        value = self.eval_sym(value_expr, proc.scope, ctx_width=total)
        if value.width < total:
            value = value.resize(total, value.signed)
        # No as_signed step here — continuous assigns differ from
        # procedural ones (mirrors the kernel).
        self._write(ops, value, blocking=True)


def collect_writes(node, scope: Scope, writes: Set[str]) -> None:
    """Over-approximate flat signal names written by a statement tree."""
    if node is None:
        return
    if isinstance(node, ast.Assign):
        _target_signals(node.target, scope, writes)
        return
    if isinstance(node, ast.Block) and node.decls:
        # Locals shadow outer names; writes to them are not design
        # writes.  A synthetic child scope makes lookup miss them.
        scope = scope.child(node.name or "__blk")
        for decl in node.decls:
            scope.bind(decl.name, ConstBinding(value=Vec4.from_int(0, 1)))
    for inner in ast.sub_statements(node):
        collect_writes(inner, scope, writes)


def _target_signals(target, scope: Scope, writes: Set[str]) -> None:
    if isinstance(target, ast.Concat):
        for part in target.parts:
            _target_signals(part, scope, writes)
        return
    if isinstance(target, ast.Select):
        _target_signals(target.base, scope, writes)
        return
    if isinstance(target, ast.Identifier):
        binding = scope.lookup(target.name)
        if isinstance(binding, SignalBinding):
            writes.add(binding.signal.name)


__all__ = [
    "FormalUnsupported",
    "SymVec",
    "SymbolicContext",
    "collect_writes",
]
