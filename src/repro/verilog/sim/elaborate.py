"""Design elaboration: parameters, generates, hierarchy flattening.

The elaborator turns a parsed module library into a flat
:class:`~.design.Design`:

* parameters and localparams are constant-folded (with overrides);
* generate for/if constructs are unrolled/resolved;
* every instance of every module contributes flat signals and
  processes, with port connections lowered to continuous assignments
  (inout ports are lowered to signal aliases);
* primitive gates are lowered to equivalent continuous assignments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .. import ast_nodes as ast
from .design import (
    CombProcess,
    ConstBinding,
    Design,
    EdgeProcess,
    ElaborationError,
    FuncBinding,
    InitialProcess,
    Scope,
    Signal,
    SignalBinding,
    TaskBinding,
    TimedAlwaysProcess,
    declared_signal,
)
from .eval import EvalError, const_evaluator
from .interp import const_function_caller
from .values import Vec4

#: Maximum generate-loop iterations before declaring a runaway loop.
MAX_GENERATE_ITERATIONS = 4096

#: Declaration kinds that produce variables rather than nets.
_VAR_KINDS = frozenset(["reg", "integer", "real", "time"])

#: Gate kinds lowered to binary-operator folds.
_GATE_BINOPS = {
    "and": "&", "or": "|", "xor": "^",
    "nand": "&", "nor": "|", "xnor": "^",
}
_GATE_INVERTED = frozenset(["nand", "nor", "xnor"])


class Elaborator:
    """Elaborates a module library into a flat design."""

    def __init__(self, library: Dict[str, ast.Module]) -> None:
        self._library = dict(library)
        self._design = Design()
        self._instance_stack: List[str] = []
        self._const = const_evaluator(const_function_caller)

    # -- public ------------------------------------------------------------

    def elaborate(
        self,
        top: str,
        param_overrides: Optional[Dict[str, int]] = None,
    ) -> Design:
        """Elaborate module ``top`` as the root of the design."""
        module = self._library.get(top)
        if module is None:
            raise ElaborationError(f"top module {top!r} not found")
        self._design = Design(top_name=top)
        scope = Scope("")
        overrides = {
            name: Vec4.from_int(value, 32, signed=True)
            for name, value in (param_overrides or {}).items()
        }
        self._design.top_scope = scope
        self._elaborate_module(module, scope, overrides, is_top=True)
        return self._design

    # -- module-level ----------------------------------------------------------

    def _elaborate_module(
        self,
        module: ast.Module,
        scope: Scope,
        param_overrides: Dict[str, Vec4],
        is_top: bool = False,
        port_aliases: Optional[Dict[str, Signal]] = None,
    ) -> Dict[str, Signal]:
        """Elaborate one instance; returns port name → flat Signal."""
        if module.name in self._instance_stack:
            cycle = " -> ".join(self._instance_stack + [module.name])
            raise ElaborationError(f"recursive instantiation: {cycle}")
        self._instance_stack.append(module.name)
        try:
            return self._elaborate_module_inner(
                module, scope, param_overrides, is_top, port_aliases or {}
            )
        finally:
            self._instance_stack.pop()

    def _elaborate_module_inner(
        self,
        module: ast.Module,
        scope: Scope,
        param_overrides: Dict[str, Vec4],
        is_top: bool,
        port_aliases: Dict[str, Signal],
    ) -> Dict[str, Signal]:
        # Functions and tasks first so parameters may call them.
        self._bind_functions(module.items, scope)
        self._bind_parameters(module, scope, param_overrides)

        # Gather body-level declarations so ports pick up reg-ness/ranges.
        decl_by_name: Dict[str, ast.Decl] = {}
        for item in module.items:
            if isinstance(item, ast.Decl) and item.name not in decl_by_name:
                decl_by_name[item.name] = item

        port_signals: Dict[str, Signal] = {}
        for port in module.ports:
            if port.direction is None:
                raise ElaborationError(
                    f"port {port.name!r} of {module.name!r} has no direction"
                )
            signal = self._create_port_signal(
                module, port, scope, decl_by_name.get(port.name), port_aliases
            )
            port_signals[port.name] = signal
            if is_top:
                bucket = {
                    "input": self._design.inputs,
                    "output": self._design.outputs,
                    "inout": self._design.inouts,
                }[port.direction]
                bucket[signal.name] = signal

        self._elaborate_items(module.items, scope, module, port_signals)
        return port_signals

    def _bind_functions(
        self, items: Sequence[ast.ModuleItem], scope: Scope
    ) -> None:
        for item in items:
            if isinstance(item, ast.FunctionDecl):
                scope.bind(item.name, FuncBinding(decl=item, scope=scope))
            elif isinstance(item, ast.TaskDecl):
                scope.bind(item.name, TaskBinding(decl=item, scope=scope))

    def _bind_parameters(
        self,
        module: ast.Module,
        scope: Scope,
        overrides: Dict[str, Vec4],
    ) -> None:
        for param in module.parameters:
            if not param.local and param.name in overrides:
                value = overrides[param.name]
            else:
                try:
                    value = self._const.eval(param.value, scope)
                except EvalError as exc:
                    raise ElaborationError(
                        f"parameter {param.name!r} of {module.name!r} is "
                        f"not constant: {exc}"
                    ) from exc
            if param.range is not None:
                width = self._range_width(param.range, scope)
                value = value.resize(width) if width > value.width else Vec4(
                    width, value.val, value.xz, value.z, param.signed
                )
            scope.bind(param.name, ConstBinding(value=value))
        unknown = set(overrides) - {p.name for p in module.parameters}
        if unknown:
            raise ElaborationError(
                f"unknown parameter override(s) for {module.name!r}: "
                f"{sorted(unknown)}"
            )

    # -- signals ------------------------------------------------------------

    def _range_width(self, rng: ast.Range, scope: Scope) -> int:
        msb = self._const.eval_const_int(rng.msb, scope)
        lsb = self._const.eval_const_int(rng.lsb, scope)
        return abs(msb - lsb) + 1

    def _create_port_signal(
        self,
        module: ast.Module,
        port: ast.Port,
        scope: Scope,
        body_decl: Optional[ast.Decl],
        port_aliases: Dict[str, Signal],
    ) -> Signal:
        if port.name in port_aliases:
            signal = port_aliases[port.name]
            scope.bind(port.name, SignalBinding(signal=signal))
            return signal
        # The port and its body declaration, if any, as one declaration.
        decl = ast.Decl(kind=port.net_kind, name=port.name,
                        range=port.range, signed=port.signed)
        if body_decl is not None:
            if body_decl.kind in _VAR_KINDS and decl.kind != "integer":
                decl.kind = body_decl.kind
            if decl.range is None:
                decl.range = body_decl.range
            decl.signed = decl.signed or body_decl.signed
        return self._create_decl_signal(decl, scope)

    def _create_decl_signal(self, decl: ast.Decl, scope: Scope) -> Signal:
        signal = declared_signal(
            decl, scope.flat_name(decl.name),
            lambda expr: self._const.eval_const_int(expr, scope),
            kind="var" if decl.kind in _VAR_KINDS else "net")
        self._design.add_signal(signal)
        scope.bind(decl.name, SignalBinding(signal=signal))
        return signal

    # -- items ------------------------------------------------------------

    def _elaborate_items(
        self,
        items: Sequence[ast.ModuleItem],
        scope: Scope,
        module: ast.Module,
        port_signals: Dict[str, Signal],
    ) -> None:
        # Pass 1: declarations (so later items can reference them).
        for item in items:
            if isinstance(item, ast.Decl):
                if item.name in port_signals:
                    # Re-declaration of a port (non-ANSI style): keep the
                    # port signal; reject a conflicting memory decl.
                    if item.array_dims:
                        raise ElaborationError(
                            f"port {item.name!r} redeclared as memory"
                        )
                    continue
                existing = scope.lookup(item.name)
                if isinstance(existing, SignalBinding) and not isinstance(
                    existing, ConstBinding
                ):
                    # Duplicate wire/reg declaration pairs are tolerated
                    # only when introduced by port completion above.
                    binding_path = existing.signal.name
                    if binding_path == scope.flat_name(item.name):
                        continue
                self._create_decl_signal(item, scope)
        # Pass 2: behaviour.
        for item in items:
            self._elaborate_item(item, scope, module, port_signals)

    def _elaborate_item(
        self,
        item: ast.ModuleItem,
        scope: Scope,
        module: ast.Module,
        port_signals: Dict[str, Signal],
    ) -> None:
        if isinstance(item, (ast.FunctionDecl, ast.TaskDecl, ast.Parameter)):
            return
        if isinstance(item, ast.Port):
            return
        if isinstance(item, ast.Decl):
            if item.init is not None:
                self._lower_decl_init(item, scope)
            return
        if isinstance(item, ast.ContinuousAssign):
            self._add_continuous_assign(item.target, item.value, scope,
                                        scope, item.line)
            return
        if isinstance(item, ast.Always):
            self._elaborate_always(item, scope)
            return
        if isinstance(item, ast.Initial):
            self._design.processes.append(
                InitialProcess(scope=scope, body=item.body, line=item.line)
            )
            return
        if isinstance(item, ast.Instance):
            self._elaborate_instance(item, scope)
            return
        if isinstance(item, ast.GateInstance):
            self._elaborate_gate(item, scope)
            return
        if isinstance(item, ast.GenerateFor):
            self._elaborate_generate_for(item, scope, module, port_signals)
            return
        if isinstance(item, ast.GenerateIf):
            self._elaborate_generate_if(item, scope, module, port_signals)
            return
        raise ElaborationError(
            f"unsupported module item {type(item).__name__}"
        )

    def _lower_decl_init(self, decl: ast.Decl, scope: Scope) -> None:
        target = ast.Identifier(name=decl.name, line=decl.line)
        if decl.kind in _VAR_KINDS:
            stmt = ast.Assign(target=target, value=decl.init, blocking=True,
                              line=decl.line)
            self._design.processes.append(
                InitialProcess(scope=scope, body=stmt, line=decl.line)
            )
        else:
            self._add_continuous_assign(target, decl.init, scope, scope,
                                        decl.line)

    def _add_continuous_assign(
        self,
        target: ast.Expr,
        value: ast.Expr,
        target_scope: Scope,
        value_scope: Scope,
        line: int,
    ) -> None:
        sensitivity: Set[str] = set()
        collect_reads(value, value_scope, sensitivity)
        # Index expressions inside the target are also reads.
        collect_lvalue_index_reads(target, target_scope, sensitivity)
        self._design.processes.append(
            CombProcess(
                scope=value_scope,
                assign=(target, value),
                sensitivity=tuple(sorted(sensitivity)),
                driver_id=self._design.new_driver_id(),
                line=line,
            )
        )
        # Remember the target scope when it differs (port connections).
        self._design.processes[-1].target_scope = target_scope  # type: ignore[attr-defined]

    def _elaborate_always(self, item: ast.Always, scope: Scope) -> None:
        sens = item.sensitivity
        if sens is None:
            self._design.processes.append(
                TimedAlwaysProcess(scope=scope, body=item.body, line=item.line)
            )
            return
        if sens.star:
            reads: Set[str] = set()
            collect_reads(item.body, scope, reads)
            self._design.processes.append(
                CombProcess(
                    scope=scope, body=item.body,
                    sensitivity=tuple(sorted(reads)), line=item.line,
                )
            )
            return
        edges = [s for s in sens.items if s.edge != "level"]
        levels = [s for s in sens.items if s.edge == "level"]
        if edges and levels:
            raise ElaborationError(
                "mixed edge and level sensitivity is not supported "
                f"(line {item.line})"
            )
        if edges:
            triggers: List[Tuple[str, str]] = []
            for entry in edges:
                if not isinstance(entry.expr, ast.Identifier):
                    raise ElaborationError(
                        "edge sensitivity must name a signal "
                        f"(line {item.line})"
                    )
                binding = scope.lookup(entry.expr.name)
                if not isinstance(binding, SignalBinding):
                    raise ElaborationError(
                        f"unknown edge signal {entry.expr.name!r} "
                        f"(line {item.line})"
                    )
                triggers.append((entry.edge, binding.signal.name))
            self._design.processes.append(
                EdgeProcess(
                    scope=scope, triggers=tuple(triggers), body=item.body,
                    line=item.line,
                )
            )
            return
        names: Set[str] = set()
        for entry in levels:
            collect_reads(entry.expr, scope, names)
        self._design.processes.append(
            CombProcess(
                scope=scope, body=item.body,
                sensitivity=tuple(sorted(names)), line=item.line,
            )
        )

    # -- instances -----------------------------------------------------------

    def _elaborate_instance(self, inst: ast.Instance, scope: Scope) -> None:
        child_module = self._library.get(inst.module_name)
        if child_module is None:
            raise ElaborationError(
                f"module {inst.module_name!r} not found "
                f"(instance {inst.instance_name!r})"
            )
        overrides: Dict[str, Vec4] = {}
        public_params = [p for p in child_module.parameters if not p.local]
        for index, conn in enumerate(inst.param_overrides):
            if conn.expr is None:
                continue
            value = self._const.eval(conn.expr, scope)
            if conn.name is not None:
                overrides[conn.name] = value
            else:
                if index >= len(public_params):
                    raise ElaborationError(
                        f"too many parameter overrides for "
                        f"{inst.module_name!r}"
                    )
                overrides[public_params[index].name] = value

        child_scope = scope.child(inst.instance_name)
        # Map connections to port names.
        conn_by_port: Dict[str, Optional[ast.Expr]] = {}
        if inst.connections and inst.connections[0].name is None:
            if len(inst.connections) > len(child_module.ports):
                raise ElaborationError(
                    f"instance {inst.instance_name!r} has more connections "
                    f"than {inst.module_name!r} has ports"
                )
            for port, conn in zip(child_module.ports, inst.connections):
                conn_by_port[port.name] = conn.expr
        else:
            port_names = set(child_module.port_names())
            for conn in inst.connections:
                if conn.name is None:
                    raise ElaborationError(
                        "cannot mix positional and named connections "
                        f"(instance {inst.instance_name!r})"
                    )
                if conn.name not in port_names:
                    raise ElaborationError(
                        f"{inst.module_name!r} has no port {conn.name!r}"
                    )
                conn_by_port[conn.name] = conn.expr

        # Inout ports become aliases onto the parent signal.
        port_aliases: Dict[str, Signal] = {}
        for port in child_module.ports:
            if port.direction == "inout":
                expr = conn_by_port.get(port.name)
                if expr is None:
                    continue
                if not isinstance(expr, ast.Identifier):
                    raise ElaborationError(
                        f"inout port {port.name!r} must connect to a plain "
                        f"signal (instance {inst.instance_name!r})"
                    )
                binding = scope.lookup(expr.name)
                if not isinstance(binding, SignalBinding):
                    raise ElaborationError(
                        f"unknown signal {expr.name!r} in inout connection"
                    )
                port_aliases[port.name] = binding.signal

        port_signals = self._elaborate_module(
            child_module, child_scope, overrides, port_aliases=port_aliases
        )

        for port in child_module.ports:
            if port.direction == "inout":
                continue
            expr = conn_by_port.get(port.name)
            if expr is None:
                continue  # unconnected port
            child_ref = ast.Identifier(name=port.name, line=inst.line)
            if port.direction == "input":
                self._add_continuous_assign(
                    child_ref, expr, child_scope, scope, inst.line
                )
            else:
                if not _is_lvalue(expr):
                    raise ElaborationError(
                        f"output port {port.name!r} connected to a "
                        f"non-lvalue (instance {inst.instance_name!r})"
                    )
                # Value is the child port, read in the child scope.
                sensitivity = {port_signals[port.name].name}
                collect_lvalue_index_reads(expr, scope, sensitivity)
                self._design.processes.append(
                    CombProcess(
                        scope=child_scope,
                        assign=(expr, child_ref),
                        sensitivity=tuple(sorted(sensitivity)),
                        driver_id=self._design.new_driver_id(),
                        line=inst.line,
                    )
                )
                self._design.processes[-1].target_scope = scope  # type: ignore[attr-defined]

    def _elaborate_gate(self, gate: ast.GateInstance, scope: Scope) -> None:
        kind = gate.gate_kind
        conns = gate.connections
        if len(conns) < 2:
            raise ElaborationError(
                f"gate {kind!r} needs at least 2 connections"
            )
        target, inputs = conns[0], conns[1:]
        line = gate.line
        value: ast.Expr
        if kind in _GATE_BINOPS:
            if len(inputs) < 2:
                raise ElaborationError(f"gate {kind!r} needs >= 2 inputs")
            value = inputs[0]
            for operand in inputs[1:]:
                value = ast.Binary(op=_GATE_BINOPS[kind], left=value,
                                   right=operand, line=line)
            if kind in _GATE_INVERTED:
                value = ast.Unary(op="~", operand=value, line=line)
        elif kind == "not":
            value = ast.Unary(op="~", operand=inputs[0], line=line)
        elif kind == "buf":
            value = inputs[0]
        elif kind in ("bufif0", "bufif1", "notif0", "notif1"):
            if len(inputs) != 2:
                raise ElaborationError(f"gate {kind!r} needs data and enable")
            data, enable = inputs
            if kind.startswith("notif"):
                data = ast.Unary(op="~", operand=data, line=line)
            if kind.endswith("0"):
                enable = ast.Unary(op="!", operand=enable, line=line)
            hi_z = ast.Number(width=1, value=0, xz_mask=1, z_mask=1,
                              text="1'bz", line=line)
            value = ast.Ternary(cond=enable, if_true=data, if_false=hi_z,
                                line=line)
        else:
            raise ElaborationError(f"unsupported gate {kind!r}")
        self._add_continuous_assign(target, value, scope, scope, line)

    # -- generate -----------------------------------------------------------

    def _elaborate_generate_for(
        self,
        gen: ast.GenerateFor,
        scope: Scope,
        module: ast.Module,
        port_signals: Dict[str, Signal],
    ) -> None:
        evaluator = self._const
        # The genvar must already be declared; we rebind per iteration.
        value = evaluator.eval_const_int(gen.init, _genvar_scope(scope, gen.genvar, 0))
        iterations = 0
        while True:
            iter_scope_probe = _genvar_scope(scope, gen.genvar, value)
            cond = evaluator.eval(gen.cond, iter_scope_probe)
            if not cond.is_true():
                break
            label = gen.label or "genblk"
            child = scope.child(f"{label}[{value}]")
            child.bind(gen.genvar, ConstBinding(Vec4.from_int(value, 32,
                                                              signed=True)))
            self._elaborate_items(gen.items, child, module, {})
            value = evaluator.eval_const_int(
                gen.step, _genvar_scope(scope, gen.genvar, value)
            )
            iterations += 1
            if iterations > MAX_GENERATE_ITERATIONS:
                raise ElaborationError(
                    f"generate loop over {gen.genvar!r} exceeds "
                    f"{MAX_GENERATE_ITERATIONS} iterations"
                )

    def _elaborate_generate_if(
        self,
        gen: ast.GenerateIf,
        scope: Scope,
        module: ast.Module,
        port_signals: Dict[str, Signal],
    ) -> None:
        cond = self._const.eval(gen.cond, scope)
        items = gen.then_items if cond.is_true() else gen.else_items
        self._elaborate_items(items, scope, module, {})


def _genvar_scope(scope: Scope, genvar: str, value: int) -> Scope:
    child = scope.child("__genprobe")
    child.bind(genvar, ConstBinding(Vec4.from_int(value, 32, signed=True)))
    return child


def _is_lvalue(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.Identifier, ast.HierarchicalId)):
        return True
    if isinstance(expr, ast.Select):
        return _is_lvalue(expr.base)
    if isinstance(expr, ast.Concat):
        return all(_is_lvalue(p) for p in expr.parts)
    return False


# ---------------------------------------------------------------------------
# Static read-set analysis (sensitivity computation)
# ---------------------------------------------------------------------------


def collect_reads(node, scope: Scope, reads: Set[str],
                  _seen: Optional[Set[int]] = None) -> None:
    """Add to ``reads`` the flat name of every signal that ``node`` (an
    expression or a statement) may read, the bodies of the user
    functions it calls included, each walked once.

    The sensitivity of continuous assigns and ``always @*`` blocks, and
    the formal checker's process order.  The walk recurses once per
    tree level (the expression compiler twice), so it needs no depth
    cap: whatever the simulator compiles, it walks whole.
    """
    if node is None:
        return
    if _seen is None:
        _seen = set()
    if isinstance(node, ast.Identifier):
        binding = scope.lookup(node.name)
        if isinstance(binding, SignalBinding):
            reads.add(binding.signal.name)
        return
    if isinstance(node, ast.Assign):
        collect_lvalue_index_reads(node.target, scope, reads, _seen)
        collect_reads(node.value, scope, reads, _seen)
        return
    if isinstance(node, ast.EventControl):
        collect_reads(node.stmt, scope, reads, _seen)
        return
    if isinstance(node, ast.FunctionCall):
        binding = scope.lookup_function(node.name)
        if binding is not None and id(binding) not in _seen:
            _seen.add(id(binding))
            collect_reads(binding.decl.body, binding.scope, reads, _seen)
    for child in ast.children(node):
        collect_reads(child, scope, reads, _seen)


def collect_lvalue_index_reads(target: Optional[ast.Expr], scope: Scope,
                               reads: Set[str],
                               _seen: Optional[Set[int]] = None) -> None:
    """Add to ``reads`` the signals read by index expressions inside the
    lvalue ``target`` (the signals it writes are not reads)."""
    if isinstance(target, ast.Concat):
        for part in target.parts:
            collect_lvalue_index_reads(part, scope, reads, _seen)
    elif isinstance(target, ast.Select):
        collect_lvalue_index_reads(target.base, scope, reads, _seen)
        collect_reads(target.left, scope, reads, _seen)
        collect_reads(target.right, scope, reads, _seen)


def elaborate(
    library: Dict[str, ast.Module],
    top: str,
    param_overrides: Optional[Dict[str, int]] = None,
) -> Design:
    """Elaborate ``top`` from ``library`` into a flat design."""
    return Elaborator(library).elaborate(top, param_overrides)
