"""Structural metrics over parsed Verilog.

These metrics feed two parts of the PyraNet pipeline:

* the **complexity labeler** (Basic / Intermediate / Advanced / Expert,
  following MEV-LLM's categorisation) uses structural richness;
* the **ranking judge** uses style- and efficiency-related counts.

All counters are derived from the AST, so they are insensitive to
formatting except where formatting is the point (line counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Union

from . import ast_nodes as ast
from .parser import ParseError, parse


@dataclass
class StructuralMetrics:
    """Counts describing one module (or a whole source file)."""

    lines: int = 0
    modules: int = 0
    ports: int = 0
    parameters: int = 0
    nets: int = 0
    regs: int = 0
    memories: int = 0
    continuous_assigns: int = 0
    always_blocks: int = 0
    sequential_always: int = 0
    combinational_always: int = 0
    initial_blocks: int = 0
    instances: int = 0
    gate_instances: int = 0
    functions: int = 0
    tasks: int = 0
    generate_blocks: int = 0
    case_statements: int = 0
    if_statements: int = 0
    loops: int = 0
    nonblocking_assigns: int = 0
    blocking_assigns: int = 0
    ternaries: int = 0
    max_statement_depth: int = 0
    expression_nodes: int = 0
    max_port_width: int = 0
    has_fsm: bool = False
    has_memory: bool = False
    has_hierarchy: bool = False
    has_generate: bool = False
    has_signed_arith: bool = False

    def merge(self, other: "StructuralMetrics") -> "StructuralMetrics":
        """Aggregate metrics across modules of one file."""
        merged = StructuralMetrics()
        for f in fields(StructuralMetrics):
            a = getattr(self, f.name)
            b = getattr(other, f.name)
            if isinstance(a, bool):
                setattr(merged, f.name, a or b)
            elif f.name.startswith("max_"):
                setattr(merged, f.name, max(a, b))
            else:
                setattr(merged, f.name, a + b)
        return merged

    @property
    def total_statements(self) -> int:
        return (self.blocking_assigns + self.nonblocking_assigns
                + self.case_statements + self.if_statements + self.loops)

    @property
    def is_sequential(self) -> bool:
        return self.sequential_always > 0


class _Walker:
    """Single-module metrics accumulator."""

    def __init__(self) -> None:
        self.m = StructuralMetrics(modules=1)
        self._seq_case_subjects: List[str] = []
        self._seq_assigned: List[str] = []

    def walk_module(self, module: ast.Module) -> StructuralMetrics:
        self.m.ports = len(module.ports)
        self.m.parameters = len(module.parameters)
        for port in module.ports:
            width = _static_range_width(port.range)
            self.m.max_port_width = max(self.m.max_port_width, width)
        for item in module.items:
            self._walk_item(item)
        # FSM heuristic: a case in (or fed by) sequential logic over a
        # register that sequential logic also assigns.
        if self._seq_case_subjects:
            assigned = set(self._seq_assigned)
            self.m.has_fsm = any(
                subj in assigned for subj in self._seq_case_subjects
            )
        return self.m

    # -- items -----------------------------------------------------------------

    def _walk_item(self, item: ast.ModuleItem) -> None:
        m = self.m
        if isinstance(item, ast.Decl):
            if item.array_dims:
                m.memories += 1
                m.has_memory = True
            elif item.kind in ("reg", "integer", "time"):
                m.regs += 1
            else:
                m.nets += 1
            if item.signed:
                m.has_signed_arith = True
            if item.init is not None:
                self._walk_expr(item.init)
            return
        if isinstance(item, ast.Port):
            return
        if isinstance(item, ast.Parameter):
            self._walk_expr(item.value)
            return
        if isinstance(item, ast.ContinuousAssign):
            m.continuous_assigns += 1
            self._walk_expr(item.value)
            return
        if isinstance(item, ast.Always):
            m.always_blocks += 1
            sequential = False
            if item.sensitivity is not None and not item.sensitivity.star:
                sequential = any(
                    s.edge != "level" for s in item.sensitivity.items
                )
            if sequential:
                m.sequential_always += 1
            else:
                m.combinational_always += 1
            self._walk_stmt(item.body, 1, in_sequential=sequential)
            return
        if isinstance(item, ast.Initial):
            m.initial_blocks += 1
            self._walk_stmt(item.body, 1, in_sequential=False)
            return
        if isinstance(item, ast.Instance):
            m.instances += 1
            m.has_hierarchy = True
            for conn in item.connections:
                if conn.expr is not None:
                    self._walk_expr(conn.expr)
            return
        if isinstance(item, ast.GateInstance):
            m.gate_instances += 1
            return
        if isinstance(item, ast.FunctionDecl):
            m.functions += 1
            self._walk_stmt(item.body, 1, in_sequential=False)
            return
        if isinstance(item, ast.TaskDecl):
            m.tasks += 1
            self._walk_stmt(item.body, 1, in_sequential=False)
            return
        if isinstance(item, ast.GenerateFor):
            m.generate_blocks += 1
            m.has_generate = True
            for sub in item.items:
                self._walk_item(sub)
            return
        if isinstance(item, ast.GenerateIf):
            m.generate_blocks += 1
            m.has_generate = True
            for sub in item.then_items + item.else_items:
                self._walk_item(sub)
            return

    # -- statements ------------------------------------------------------------

    def _walk_stmt(
        self, stmt: Optional[ast.Stmt], depth: int, in_sequential: bool
    ) -> None:
        if stmt is None:
            return
        m = self.m
        m.max_statement_depth = max(m.max_statement_depth, depth)
        if isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._walk_stmt(inner, depth + 1, in_sequential)
            return
        if isinstance(stmt, ast.Assign):
            if stmt.blocking:
                m.blocking_assigns += 1
            else:
                m.nonblocking_assigns += 1
            if in_sequential:
                name = _target_base_name(stmt.target)
                if name:
                    self._seq_assigned.append(name)
            self._walk_expr(stmt.value)
            return
        if isinstance(stmt, ast.If):
            m.if_statements += 1
            self._walk_expr(stmt.cond)
            self._walk_stmt(stmt.then_stmt, depth + 1, in_sequential)
            self._walk_stmt(stmt.else_stmt, depth + 1, in_sequential)
            return
        if isinstance(stmt, ast.Case):
            m.case_statements += 1
            self._walk_expr(stmt.subject)
            if isinstance(stmt.subject, ast.Identifier):
                self._seq_case_subjects.append(stmt.subject.name)
            for item in stmt.items:
                self._walk_stmt(item.body, depth + 1, in_sequential)
            return
        if isinstance(stmt, (ast.For, ast.While, ast.Repeat, ast.Forever)):
            m.loops += 1
            body = stmt.body
            self._walk_stmt(body, depth + 1, in_sequential)
            return
        if isinstance(stmt, (ast.Delay, ast.EventControl, ast.Wait)):
            self._walk_stmt(stmt.stmt, depth, in_sequential)
            return

    # -- expressions -----------------------------------------------------------

    def _walk_expr(self, expr: Optional[ast.Expr]) -> None:
        if expr is None:
            return
        self.m.expression_nodes += 1
        if isinstance(expr, ast.Ternary):
            self.m.ternaries += 1
        for child in ast.children(expr):
            self._walk_expr(child)


def _static_range_width(rng: Optional[ast.Range]) -> int:
    """Width of a range when both bounds are plain literals, else 1."""
    if rng is None:
        return 1
    if isinstance(rng.msb, ast.Number) and isinstance(rng.lsb, ast.Number):
        return abs(rng.msb.value - rng.lsb.value) + 1
    return 1


def _target_base_name(expr: ast.Expr) -> Optional[str]:
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.Select):
        return _target_base_name(expr.base)
    return None


def measure_module(module: ast.Module) -> StructuralMetrics:
    """Metrics for one parsed module."""
    return _Walker().walk_module(module)


def measure(source: Union[str, ast.SourceFile, ast.Module]) -> StructuralMetrics:
    """Metrics for source text, a parsed file, or one module.

    Raises :class:`~repro.verilog.parser.ParseError` for invalid text.
    """
    if isinstance(source, ast.Module):
        return measure_module(source)
    if isinstance(source, str):
        lines = sum(1 for line in source.splitlines() if line.strip())
        tree = parse(source)
        total = StructuralMetrics()
        for module in tree.modules:
            total = total.merge(measure_module(module))
        total.lines = lines
        return total
    total = StructuralMetrics()
    for module in source.modules:
        total = total.merge(measure_module(module))
    return total
