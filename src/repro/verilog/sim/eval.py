"""Expression compilation over an elaborated design.

:class:`ExprCompiler` turns an expression, resolved through a
:class:`~.design.Scope`, into a closure ``fn(frame) -> Vec4``.  Binding
lookups, context widths, signedness rules and operator choice are made
once, when the closure is built; the closure only moves values.  Signal
state comes from a *store* — any object with::

    read(signal: Signal) -> Vec4
    read_mem(signal: Signal, index: int) -> Vec4
    now() -> int            # current simulation time
    random() -> int         # deterministic $random source

A store may also offer ``reader(signal)`` / ``mem_reader(signal)``
returning closures (the kernel does, to read its tables directly), and
``signals`` (flat name -> Signal) for hierarchical names.  ``frame`` is
the running function call's local variables (:class:`FrameSignal`
slots); code outside functions ignores it.

Width and signedness follow a pragmatic subset of the IEEE 1364
self-determined/context-determined rules: arithmetic and bitwise
operators evaluate at the maximum operand width (extended to an outer
context width when one is supplied, e.g. the LHS width of an
assignment), comparisons and logical operators are self-determined,
concatenations are unsigned, and the result of any operator mixing an
unsigned operand is unsigned.

What is decided when compiling is only what cannot change between
evaluations.  A sub-expression reading no signal, memory, clock, random
source or function is folded to its value.  Part-select bounds,
replication counts and function ranges that read signals are evaluated
each time, as are the data-dependent parts of a result: a memory read
whose index is x or out of range is an unsigned all-x, and a ternary
returns whichever arm its condition picks at that arm's own width.  An
error met while compiling (unknown identifier, non-constant bound,
unsupported operator) is raised by the closure at the point the
evaluation reaches it, never earlier, so a branch that does not run
cannot fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .. import ast_nodes as ast
from .design import (
    ConstBinding,
    FuncBinding,
    Scope,
    Signal,
    SignalBinding,
    declared_signal,
)
from .values import Vec4

#: A compiled expression: the running call's frame in, a value out.
Compiled = Callable[[Optional[list]], Vec4]


class EvalError(Exception):
    """Raised when an expression cannot be evaluated."""


class NotStatic(Exception):
    """A declaration bound needs run-time state to evaluate."""


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

#: Compiles a call: (binding, compiled arguments) -> compiled call.
CallCompiler = Callable[[FuncBinding, List[Compiled]], Compiled]


@dataclass
class FrameSignal(Signal):
    """A function's local variable, held in slot ``slot`` of its frame."""

    slot: int = 0


_REDUCTIONS = {
    "&": Vec4.reduce_and, "~&": Vec4.reduce_nand,
    "|": Vec4.reduce_or, "~|": Vec4.reduce_nor,
    "^": Vec4.reduce_xor, "~^": Vec4.reduce_xnor, "^~": Vec4.reduce_xnor,
}
_COMPARISONS = {
    "==": Vec4.eq, "!=": Vec4.ne, "===": Vec4.case_eq, "!==": Vec4.case_ne,
    "<": Vec4.lt, "<=": Vec4.le, ">": Vec4.gt, ">=": Vec4.ge,
}
_ARITHMETIC = {
    "+": Vec4.add, "-": Vec4.sub, "*": Vec4.mul, "/": Vec4.div,
    "%": Vec4.mod, "&": Vec4.bit_and, "|": Vec4.bit_or, "^": Vec4.bit_xor,
    "~^": Vec4.bit_xnor, "^~": Vec4.bit_xnor,
}
_SELF_SIZED_UNARY = ("!", "&", "|", "^", "~&", "~|", "~^", "^~")
_ONE_BIT_BINARY = ("==", "!=", "===", "!==", "<", "<=", ">", ">=",
                   "&&", "||")
_SHIFTS = ("<<", ">>", "<<<", ">>>")
_ONE = Vec4.from_int(1, 1)
_ZERO = Vec4.from_int(0, 1)


def raiser(exc: BaseException) -> Callable:
    """A closure raising a fresh copy of ``exc`` (same type and message)
    each time it is called: a compile-time error, deferred."""
    kind, args = type(exc), exc.args

    def fail(*_):
        raise kind(*args)
    return fail


def constant(value) -> Callable:
    """A closure returning ``value``; ``fn.value`` exposes it."""
    def const(fr):
        return value
    const.value = value  # type: ignore[attr-defined]
    return const


def fold(fn: Callable) -> Callable:
    """Evaluate a closure that reads no state once, now."""
    try:
        return constant(fn(None))
    except Exception as exc:  # deferred to the point of evaluation
        return raiser(exc)


def resolve_hierarchical(expr: ast.HierarchicalId, scope: Scope,
                         signals) -> Signal:
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
    if signals is not None:
        for name in candidates:
            if name in signals:
                return signals[name]
    raise EvalError(f"cannot resolve hierarchical name {suffix!r}")


def memory_signal(expr: ast.Expr, scope: Scope) -> Optional[Signal]:
    """Return the memory Signal when ``expr`` names one, else None."""
    if isinstance(expr, ast.Identifier):
        binding = scope.lookup(expr.name)
        if isinstance(binding, SignalBinding) and binding.signal.is_memory:
            return binding.signal
    return None


def select_signal(expr: ast.Expr, scope: Scope) -> Optional[Signal]:
    """The signal whose declared range maps the bits of a select on
    ``expr``: a named signal, or the memory of a memory element."""
    if isinstance(expr, ast.Identifier):
        binding = scope.lookup(expr.name)
        if isinstance(binding, SignalBinding):
            return binding.signal
    if isinstance(expr, ast.Select) and expr.kind == "bit":
        return memory_signal(expr.base, scope)
    return None


def part_bounds(signal: Optional[Signal], msb: int,
                lsb: int) -> Tuple[int, int]:
    """Physical ``(hi, lo)`` of the part select ``[msb:lsb]``, or of the
    bit select ``[msb]`` when ``lsb == msb``: the declared indices of
    ``signal`` mapped to bit positions (a value with no signal behind
    it is indexed by position), in either order.  The one select rule
    of reads, writes and the formal checker; whether the bits exist is
    theirs to decide."""
    if signal is not None:
        msb, lsb = signal.bit_position(msb), signal.bit_position(lsb)
    return (msb, lsb) if msb >= lsb else (lsb, msb)


def indexed_bounds(signal: Optional[Signal], start: int, width: int,
                   plus: bool) -> Tuple[int, int]:
    """Physical ``(hi, lo)`` of ``[start +: width]`` (``plus``) or
    ``[start -: width]``: the ``width`` indices counting up or down
    from ``start``, as :func:`part_bounds` maps them."""
    end = start + width - 1 if plus else start - width + 1
    return part_bounds(signal, start, end)


#: Width analysis result: (static (width, signed) or None, fn(frame)).
Sized = Tuple[Optional[Tuple[int, bool]], Callable]


class ExprCompiler:
    """Compiles expressions against one store.

    Args:
        store: where signal values come from (see module docstring).
        calls: compiles user-function calls; None rejects them.
        frame: compile :class:`FrameSignal` reads as frame-slot reads
            (function bodies); otherwise they go to the store like any
            other signal.
    """

    def __init__(self, store, calls: Optional[CallCompiler] = None,
                 frame: bool = False) -> None:
        self.store = store
        self.signals = getattr(store, "signals", None)
        self._calls = calls
        self._frame = frame

    # -- public ------------------------------------------------------------

    def expr(self, expr: ast.Expr, scope: Scope,
             ctx: Optional[int] = None) -> Compiled:
        """``expr`` evaluated at ``max(self width, ctx)`` bits when
        ``ctx`` is given (assignment-context widening)."""
        return self.compile(expr, scope, ctx)[0]

    def compile(self, expr, scope: Scope,
                ctx: Optional[int] = None) -> Tuple[Compiled, bool]:
        """(closure, pure): pure closures read no state and are folded.

        Operators recurse through here and one method each, so nesting
        costs two stack frames per level, as in a tree walk."""
        if isinstance(expr, ast.Binary):
            fn, pure = self._binary(expr, scope, ctx)
        elif isinstance(expr, ast.Ternary):
            fn, pure = self._ternary(expr, scope, ctx)
        elif isinstance(expr, ast.Select):
            fn, pure = self._select(expr, scope)
        elif isinstance(expr, ast.Unary):
            fn, pure = self._unary(expr, scope, ctx)
        elif isinstance(expr, ast.Concat):
            fn, pure = self._concat(expr, scope)
        else:
            fn, pure = self._compile(expr, scope, ctx)
        if pure and not hasattr(fn, "value"):
            fn = fold(fn)
        return fn, pure

    def const_int(self, expr, scope: Scope):
        """(value, fn, pure) for ``eval_const_int``: ``value`` is the int
        when it is known now, else None and ``fn(frame)`` computes it."""
        fn, pure = self.compile(expr, scope)

        def as_int(fr):
            value = fn(fr)
            if value.xz:
                raise EvalError("constant expression evaluates to x/z")
            return value.to_signed_int() if value.signed else value.val
        if pure:
            try:
                return as_int(None), as_int, True
            except Exception as exc:  # deferred to the point of evaluation
                return None, raiser(exc), True
        return None, as_int, False

    def frame_int(self, expr, scope: Scope, fr) -> int:
        """A declaration bound: constant now, or read from the frame
        ``fr``; without a frame a bound that reads state raises
        :class:`NotStatic`."""
        value, fn, _ = self.const_int(expr, scope)
        if value is not None:
            return value
        if fr is None:
            raise NotStatic
        return fn(fr)

    def reader(self, signal: Signal) -> Compiled:
        if self._frame and isinstance(signal, FrameSignal):
            slot = signal.slot
            return lambda fr: fr[slot]
        make = getattr(self.store, "reader", None)
        if make is not None:
            return make(signal)
        read = self.store.read
        return lambda fr: read(signal)

    def mem_reader(self, signal: Signal) -> Callable[[Optional[list], int],
                                                     Vec4]:
        if self._frame and isinstance(signal, FrameSignal):
            slot, width = signal.slot, signal.width

            def read_local(fr, index):
                mem = fr[slot]
                if 0 <= index < len(mem):
                    return mem[index]
                return Vec4.all_x(width)
            return read_local
        make = getattr(self.store, "mem_reader", None)
        if make is not None:
            return make(signal)
        read_mem = self.store.read_mem
        return lambda fr, index: read_mem(signal, index)

    # -- width analysis ------------------------------------------------------

    def _ints(self, exprs, scope: Scope, combine) -> Sized:
        """Combine constant ints (evaluated in order) into a size."""
        thunks = [self.const_int(e, scope) for e in exprs]
        if all(value is not None for value, _, _ in thunks):
            return combine(*[value for value, _, _ in thunks]), None
        fns = [fn for _, fn, _ in thunks]
        return None, lambda fr: combine(*[fn(fr) for fn in fns])

    @staticmethod
    def _seq(sizes: Sequence[Sized], combine) -> Sized:
        """Combine sizes of sub-expressions (analysed in order)."""
        if all(static is not None for static, _ in sizes):
            return combine([static for static, _ in sizes]), None
        fns = [fn if static is None else constant(static)
               for static, fn in sizes]
        return None, lambda fr: combine([fn(fr) for fn in fns])

    def size(self, expr, scope: Scope) -> Sized:
        """Self-determined (width, signed) of ``expr``: static when no
        bound reads state; errors are deferred into ``fn``.  One stack
        frame per nesting level."""
        if isinstance(expr, ast.Binary):
            if expr.op in _ONE_BIT_BINARY:
                return (1, False), None
            if expr.op in _SHIFTS or expr.op == "**":
                return self.size(expr.left, scope)
            return self._seq(
                (self.size(expr.left, scope), self.size(expr.right, scope)),
                _max_both)
        if isinstance(expr, ast.Ternary):
            return self._seq(
                (self.size(expr.if_true, scope),
                 self.size(expr.if_false, scope)), _max_both)
        if isinstance(expr, ast.Number):
            if expr.width is not None:
                return (expr.width, expr.signed), None
            return (32, expr.signed or expr.text.isdigit()
                    or not expr.text), None
        if isinstance(expr, ast.RealNumber):
            return (64, True), None
        if isinstance(expr, ast.StringLiteral):
            return (max(8 * len(expr.value), 8), False), None
        if isinstance(expr, ast.Identifier):
            binding = scope.lookup(expr.name)
            if binding is None:
                return None, raiser(EvalError(
                    f"unknown identifier {expr.name!r}"))
            if isinstance(binding, ConstBinding):
                return (binding.value.width, binding.value.signed), None
            if isinstance(binding, SignalBinding):
                return (binding.signal.width, binding.signal.signed), None
            return None, raiser(EvalError(f"{expr.name!r} is not a value"))
        if isinstance(expr, ast.HierarchicalId):
            try:
                signal = resolve_hierarchical(expr, scope, self.signals)
            except EvalError as exc:
                return None, raiser(exc)
            return (signal.width, signal.signed), None
        if isinstance(expr, ast.Select):
            if expr.kind == "bit":
                mem = memory_signal(expr.base, scope)
                if mem is not None:
                    return (mem.width, mem.signed), None
                return (1, False), None
            if expr.kind == "part":
                return self._ints((expr.left, expr.right), scope,
                                  lambda m, l: (abs(m - l) + 1, False))
            return self._ints((expr.right,), scope, lambda w: (w, False))
        if isinstance(expr, ast.Concat):
            return self._seq([self.size(p, scope) for p in expr.parts],
                             lambda ss: (sum(w for w, _ in ss), False))
        if isinstance(expr, ast.Replicate):
            count, count_fn, _ = self.const_int(expr.count, scope)
            count_size: Sized = ((count, False), None) if count is not None \
                else (None, lambda fr: (count_fn(fr), False))
            return self._seq(
                (count_size, self.size(expr.value, scope)),
                lambda ss: (max(ss[0][0], 0) * ss[1][0] or 1, False))
        if isinstance(expr, ast.Unary):
            if expr.op in _SELF_SIZED_UNARY:
                return (1, False), None
            return self.size(expr.operand, scope)
        if isinstance(expr, ast.FunctionCall):
            binding = scope.lookup_function(expr.name)
            if binding is None:
                return None, raiser(EvalError(
                    f"unknown function {expr.name!r}"))
            decl, decl_scope = binding.decl, binding.scope

            def returned(int_of):
                ret = declared_signal(decl, decl.name, int_of)
                return ret.width, ret.signed
            try:
                return returned(lambda bound: self.frame_int(
                    bound, decl_scope, None)), None
            except NotStatic:
                return None, lambda fr: returned(
                    lambda bound: self.const_int(bound, decl_scope)[1](fr))
        if isinstance(expr, ast.SystemCall):
            if expr.name in ("$signed", "$unsigned") and expr.args:
                signed = expr.name == "$signed"
                static, fn = self.size(expr.args[0], scope)
                if static is not None:
                    return (static[0], signed), None
                return None, lambda fr: (fn(fr)[0], signed)
            if expr.name == "$time":
                return (64, False), None
            return (32, expr.name == "$random"), None
        return None, raiser(EvalError(
            f"cannot size expression {type(expr).__name__}"))

    def _width(self, expr, scope: Scope, ctx: Optional[int], build):
        """Compile ``build(width)`` at ``max(self width, ctx)``.

        A width that depends on state is worked out at each evaluation,
        and ``build`` compiled once per width seen.
        """
        static, fn = self.size(expr, scope)
        if static is not None:
            width = static[0] if ctx is None else max(static[0], ctx)
            return build(width)
        cache = {}

        def dynamic(fr):
            width = fn(fr)[0]
            if ctx is not None and ctx > width:
                width = ctx
            compiled = cache.get(width)
            if compiled is None:
                compiled = cache[width] = build(width)[0]
            return compiled(fr)
        return dynamic, False

    # -- compilation ---------------------------------------------------------

    def _compile(self, expr, scope: Scope,
                 ctx: Optional[int]) -> Tuple[Compiled, bool]:
        if isinstance(expr, ast.Number):
            width = expr.width if expr.width is not None else 32
            value = Vec4(width, expr.value, expr.xz_mask, expr.z_mask,
                         expr.signed or (expr.width is None))
            if ctx is not None and ctx > width:
                value = value.resize(ctx)
            return constant(value), True
        if isinstance(expr, ast.RealNumber):
            return constant(Vec4.from_int(int(expr.value), 64,
                                          signed=True)), True
        if isinstance(expr, ast.StringLiteral):
            acc = 0
            for ch in expr.value:
                acc = (acc << 8) | ord(ch)
            return constant(Vec4.from_int(
                acc, max(8 * len(expr.value), 8))), True
        if isinstance(expr, ast.Identifier):
            return self._identifier(expr, scope, ctx)
        if isinstance(expr, ast.HierarchicalId):
            try:
                signal = resolve_hierarchical(expr, scope, self.signals)
            except EvalError as exc:
                return raiser(exc), True
            return _widened(self.reader(signal), signal.width, ctx), False
        if isinstance(expr, ast.Replicate):
            return self._replicate(expr, scope)
        if isinstance(expr, ast.FunctionCall):
            return self._function_call(expr, scope)
        if isinstance(expr, ast.SystemCall):
            return self._system_call(expr, scope)
        return raiser(EvalError(
            f"cannot evaluate {type(expr).__name__}")), True

    def _identifier(self, expr: ast.Identifier, scope: Scope,
                    ctx: Optional[int]):
        binding = scope.lookup(expr.name)
        if binding is None:
            return raiser(EvalError(
                f"unknown identifier {expr.name!r}")), True
        if isinstance(binding, ConstBinding):
            value = binding.value
            if ctx is not None and ctx > value.width:
                value = value.resize(ctx)
            return constant(value), True
        if isinstance(binding, SignalBinding):
            signal = binding.signal
            if signal.is_memory:
                return raiser(EvalError(
                    f"memory {expr.name!r} used without an index")), True
            return _widened(self.reader(signal), signal.width, ctx), False
        return raiser(EvalError(f"{expr.name!r} is not a value")), True

    def _select(self, expr: ast.Select, scope: Scope):
        mem = memory_signal(expr.base, scope)
        if mem is not None and expr.kind == "bit":
            index, _ = self.compile(expr.left, scope)
            read_mem = self.mem_reader(mem)
            first, width = mem.array_min, mem.width

            def element(fr):
                i = index(fr)
                if i.xz:
                    return Vec4.all_x(width)
                return read_mem(fr, i.val - first)
            return element, False
        signal = select_signal(expr.base, scope)
        position = (signal.bit_position if signal is not None
                    else lambda index: index)
        base, base_pure = self.compile(expr.base, scope)
        if expr.kind == "bit":
            index, index_pure = self.compile(expr.left, scope)

            def bit(fr):
                b = base(fr)
                i = index(fr)
                if i.xz:
                    return Vec4.all_x(1)
                pos = position(i.to_signed_int() if i.signed else i.val)
                return b.slice(pos, pos)
            return bit, base_pure and index_pure
        if expr.kind == "part":
            msb, msb_fn, msb_pure = self.const_int(expr.left, scope)
            lsb, lsb_fn, lsb_pure = self.const_int(expr.right, scope)
            pure = base_pure and msb_pure and lsb_pure
            if msb is not None and lsb is not None:
                hi, lo = part_bounds(signal, msb, lsb)
                return (lambda fr: base(fr).slice(hi, lo)), pure

            def part(fr):
                b = base(fr)
                return b.slice(*part_bounds(signal, msb_fn(fr), lsb_fn(fr)))
            return part, pure
        # Indexed part selects: base[b +: w] / base[b -: w].
        width, width_fn, width_pure = self.const_int(expr.right, scope)
        if width is not None:
            width_fn = constant(width)
        start, start_pure = self.compile(expr.left, scope)
        plus = expr.kind == "plus"

        def indexed(fr):
            b = base(fr)
            w = width_fn(fr)
            s = start(fr)
            if s.xz:
                return Vec4.all_x(w)
            return b.slice(*indexed_bounds(signal, s.val, w, plus))
        return indexed, base_pure and width_pure and start_pure

    def _concat(self, expr: ast.Concat, scope: Scope):
        compiled = [self.compile(p, scope) for p in expr.parts]
        pure = all(p for _, p in compiled)
        parts = [fn for fn, _ in compiled]
        if not parts:
            return raiser(ValueError("cannot concatenate zero vectors")), True
        if len(parts) == 1:
            return parts[0], pure

        def concat(fr):
            width = val = xz = z = 0
            for part in parts:
                v = part(fr)
                w = v.width
                width += w
                val = (val << w) | v.val
                xz = (xz << w) | v.xz
                z = (z << w) | v.z
            return Vec4(width, val, xz, z)
        return concat, pure

    def _replicate(self, expr: ast.Replicate, scope: Scope):
        count, count_fn, count_pure = self.const_int(expr.count, scope)
        if count is not None:
            count_fn = constant(count)
        value, value_pure = self.compile(expr.value, scope)

        def replicate(fr):
            n = count_fn(fr)
            if n <= 0:
                raise EvalError(f"replication count {n} must be positive")
            return value(fr).replicate(n)
        return replicate, count_pure and value_pure

    def _unary(self, expr: ast.Unary, scope: Scope, ctx: Optional[int]):
        op = expr.op
        if op == "!":
            operand, pure = self.compile(expr.operand, scope)
            return (lambda fr: operand(fr).logical_not()), pure
        if op in _REDUCTIONS:
            operand, pure = self.compile(expr.operand, scope)
            method = _REDUCTIONS[op]
            return (lambda fr: method(operand(fr))), pure
        operand, pure = self.compile(expr.operand, scope, ctx)
        operand = _widened(operand, None, ctx)
        if op == "~":
            return (lambda fr: operand(fr).bit_not()), pure
        if op == "-":
            return (lambda fr: operand(fr).neg()), pure
        if op == "+":
            return operand, pure
        error = EvalError(f"unsupported unary operator {op!r}")

        def unsupported(fr):
            operand(fr)
            raise EvalError(*error.args)
        return unsupported, pure

    def _binary(self, expr: ast.Binary, scope: Scope, ctx: Optional[int]):
        op = expr.op
        if op in ("&&", "||"):
            left, left_pure = self.compile(expr.left, scope)
            right, right_pure = self.compile(expr.right, scope)
            pure = left_pure and right_pure
            if op == "&&":
                def land(fr):
                    a = left(fr)
                    if not a.val and not a.xz:
                        return _ZERO
                    return a.logical_and(right(fr))
                return land, pure

            def lor(fr):
                a = left(fr)
                if a.val:
                    return _ONE
                return a.logical_or(right(fr))
            return lor, pure
        if op in _COMPARISONS:
            return self._comparison(expr, scope)
        if op in _SHIFTS or op == "**":
            return self._width(expr.left, scope, ctx,
                               lambda width: self._shift(expr, scope, width))
        static, _ = self.size(expr, scope)
        if static is None:
            return self._width(expr, scope, ctx, lambda width: (self._arith(
                self.compile(expr.left, scope, width)[0],
                self.compile(expr.right, scope, width)[0], expr.op,
                width), False))
        width = static[0] if ctx is None else max(static[0], ctx)
        left, left_pure = self.compile(expr.left, scope, width)
        right, right_pure = self.compile(expr.right, scope, width)
        return (self._arith(left, right, op, width),
                left_pure and right_pure)

    def _comparison(self, expr: ast.Binary, scope: Scope):
        """Comparison operands size to each other, not the context."""
        method = _COMPARISONS[expr.op]

        def build(width: int, signed: bool):
            left, left_pure = self.compile(expr.left, scope, width)
            right, right_pure = self.compile(expr.right, scope, width)

            def compare(fr):
                a = left(fr)
                b = right(fr)
                return method(a.resize(width, a.signed and signed),
                              b.resize(width, b.signed and signed))
            return compare, left_pure and right_pure
        static, fn = self._seq(
            [self.size(expr.left, scope), self.size(expr.right, scope)],
            _max_both)
        if static is not None:
            return build(*static)
        cache = {}

        def dynamic(fr):
            key = fn(fr)
            compiled = cache.get(key)
            if compiled is None:
                compiled = cache[key] = build(*key)[0]
            return compiled(fr)
        return dynamic, False

    def _shift(self, expr: ast.Binary, scope: Scope, width: int):
        left, left_pure = self.compile(expr.left, scope, width)
        right, right_pure = self.compile(expr.right, scope)
        pure = left_pure and right_pure
        op = expr.op
        if op == "**":
            return (lambda fr: _at(left(fr), width).power(right(fr))), pure
        method = (Vec4.shl if op in ("<<", "<<<")
                  else Vec4.ashr if op == ">>>" else Vec4.shr)
        return (lambda fr: method(_at(left(fr), width), right(fr))), pure

    @staticmethod
    def _arith(left: Compiled, right: Compiled, op: str, width: int):
        """Arithmetic/bitwise operator at its context-determined width."""
        method = _ARITHMETIC.get(op)
        if method is None:
            error = EvalError(f"unsupported binary operator {op!r}")

            def unsupported(fr):
                left(fr)
                right(fr)
                raise EvalError(*error.args)
            return unsupported

        def arith(fr):
            a = left(fr)
            b = right(fr)
            if a.signed and b.signed:
                return method(_at(a, width), _at(b, width))
            return method(_at(a, width).as_signed(False),
                          _at(b, width).as_signed(False))
        return arith

    def _ternary(self, expr: ast.Ternary, scope: Scope, ctx: Optional[int]):
        cond, cond_pure = self.compile(expr.cond, scope)
        static, fn = self.size(expr, scope)
        if static is None:
            return self._dynamic_ternary(expr, scope, ctx, cond, fn), False
        width = static[0] if ctx is None else max(static[0], ctx)
        if_true, true_pure = self.compile(expr.if_true, scope, width)
        if_false, false_pure = self.compile(expr.if_false, scope, width)

        def ternary(fr):
            c = cond(fr)
            if c.val:
                return if_true(fr)
            if not c.xz:
                return if_false(fr)
            return _merge(if_true(fr), if_false(fr), width)
        return ternary, cond_pure and true_pure and false_pure

    def _dynamic_ternary(self, expr: ast.Ternary, scope: Scope,
                         ctx: Optional[int], cond: Compiled, size):
        """A ternary whose width reads state: the condition first, then
        the width, then the arms compiled for that width."""
        cache = {}

        def dynamic(fr):
            c = cond(fr)
            width = size(fr)[0]
            if ctx is not None and ctx > width:
                width = ctx
            arms = cache.get(width)
            if arms is None:
                arms = cache[width] = (
                    self.compile(expr.if_true, scope, width)[0],
                    self.compile(expr.if_false, scope, width)[0])
            if c.val:
                return arms[0](fr)
            if not c.xz:
                return arms[1](fr)
            return _merge(arms[0](fr), arms[1](fr), width)
        return dynamic

    def _function_call(self, expr: ast.FunctionCall, scope: Scope):
        binding = scope.lookup_function(expr.name)
        if binding is None:
            return raiser(EvalError(f"unknown function {expr.name!r}")), True
        if self._calls is None:
            return raiser(EvalError(
                f"function call {expr.name!r} not allowed in this context"
            )), True
        args = [self.compile(a, scope)[0] for a in expr.args]
        return self._calls(binding, args), False

    def _system_call(self, expr: ast.SystemCall, scope: Scope):
        name = expr.name
        if name in ("$clog2", "$signed", "$unsigned"):
            if not expr.args:
                return raiser(IndexError("list index out of range")), True
            arg, pure = self.compile(expr.args[0], scope)
            if name == "$signed":
                return (lambda fr: arg(fr).as_signed(True)), pure
            if name == "$unsigned":
                return (lambda fr: arg(fr).as_signed(False)), pure

            def clog2(fr):
                value = arg(fr)
                if value.xz:
                    return Vec4.all_x(32)
                return Vec4.from_int(max(value.val - 1, 0).bit_length(), 32)
            return clog2, pure
        if name in ("$time", "$stime", "$realtime"):
            now = self.store.now
            return (lambda fr: Vec4.from_int(now(), 64)), False
        if name == "$random":
            random = self.store.random
            return (lambda fr: Vec4.from_int(random() & 0xFFFFFFFF, 32,
                                             signed=True)), False
        if name == "$bits":
            if not expr.args:
                return raiser(IndexError("list index out of range")), True
            static, fn = self.size(expr.args[0], scope)
            if static is not None:
                return constant(Vec4.from_int(static[0], 32)), True
            return (lambda fr: Vec4.from_int(fn(fr)[0], 32)), False
        return raiser(EvalError(
            f"unsupported system function {name!r}")), True


def _merge(a: Vec4, b: Vec4, width: int) -> Vec4:
    """Both arms of a ternary with an unknown condition, merged bit by
    bit: equal known bits stay, the rest are x (LRM 5.1.13)."""
    a = a.resize(width)
    b = b.resize(width)
    mask = (1 << width) - 1
    same = ~(a.val ^ b.val) & ~a.xz & ~b.xz & mask
    return Vec4(width, a.val & same, ~same & mask, 0)


def _max_both(sizes) -> Tuple[int, bool]:
    (lw, ls), (rw, rs) = sizes
    return max(lw, rw), ls and rs


def _at(value: Vec4, width: int) -> Vec4:
    """``value.resize(width, value.signed)`` (keeps its signedness)."""
    if value.width == width:
        return value
    return value.resize(width, value.signed)


def _widened(fn: Compiled, width: Optional[int],
             ctx: Optional[int]) -> Compiled:
    """Extend ``fn``'s value to ``ctx`` bits when it is narrower;
    ``width`` is the value's width when known in advance."""
    if ctx is None or (width is not None and width >= ctx):
        return fn
    if width is not None:
        return lambda fr: fn(fr).resize(ctx)

    def widened(fr):
        value = fn(fr)
        return value.resize(ctx) if ctx > value.width else value
    return widened


class Evaluator:
    """Evaluates one expression at a time against a store and scope.

    Each call compiles the expression and runs it once; code that
    evaluates the same expressions repeatedly (the simulation kernel)
    keeps an :class:`ExprCompiler`'s closures instead.
    """

    def __init__(self, store, func_caller: Optional[FuncCaller] = None) -> None:
        calls = None
        if func_caller is not None:
            def calls(binding, args):
                return lambda fr: func_caller(binding, [a(fr) for a in args])
        self.compiler = ExprCompiler(store, calls)

    def width_of(self, expr: ast.Expr, scope: Scope) -> Tuple[int, bool]:
        """Self-determined (width, signed) of ``expr``."""
        static, fn = self.compiler.size(expr, scope)
        return static if static is not None else fn(None)

    def eval(
        self,
        expr: ast.Expr,
        scope: Scope,
        ctx_width: Optional[int] = None,
    ) -> Vec4:
        """Evaluate ``expr``; when ``ctx_width`` is given, the expression
        is computed at ``max(self_width, ctx_width)`` bits so carries are
        not lost (assignment-context widening)."""
        return self.compiler.expr(expr, scope, ctx_width)(None)

    def eval_const_int(self, expr: ast.Expr, scope: Scope) -> int:
        """Evaluate a constant expression to a Python int (signed)."""
        value, fn, _ = self.compiler.const_int(expr, scope)
        return value if value is not None else fn(None)


def const_evaluator(func_caller: Optional[FuncCaller] = None) -> Evaluator:
    """An evaluator that rejects signal reads (for parameter folding)."""
    return Evaluator(ConstStore(), func_caller)
