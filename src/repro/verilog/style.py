"""Style and efficiency linting for Verilog sources.

The PyraNet ranking step asks a judge to score "the overall Verilog
coding style and the efficiency of the code" on a 0–20 scale.  This
module provides the deterministic analysis that judge is built on: a
set of lint rules, each with a severity-weighted penalty, covering the
issues hardware reviewers actually flag — blocking assignments in
clocked processes, latch-inferring incomplete branches, magic numbers,
unused signals, formatting inconsistencies, and so on.

:func:`lint` returns a :class:`StyleReport`; the ranking judge in
:mod:`repro.dataset.ranking` converts its penalty total to the 0–20
scale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from . import ast_nodes as ast
from .parser import ParseError, parse


@dataclass(frozen=True)
class Violation:
    """One style finding."""

    code: str
    message: str
    penalty: float
    line: int = 0

    def __str__(self) -> str:
        return f"{self.line}: {self.code}: {self.message}"


@dataclass
class StyleReport:
    """Lint outcome; ``penalty`` is the sum over violations (capped
    per-rule so one pervasive issue cannot dominate)."""

    violations: List[Violation] = field(default_factory=list)
    parse_failed: bool = False

    @property
    def penalty(self) -> float:
        by_code: Dict[str, float] = {}
        for violation in self.violations:
            by_code[violation.code] = by_code.get(violation.code, 0.0) + (
                violation.penalty
            )
        # Cap each style rule's total contribution at 4 points; fatal
        # E-codes (parse failures) are never capped.
        return sum(
            total if code.startswith("E") else min(total, 4.0)
            for code, total in by_code.items()
        )

    def codes(self) -> Set[str]:
        return {v.code for v in self.violations}


# -- rule implementations --------------------------------------------------


def _rule_line_length(lines: Sequence[str], out: List[Violation]) -> None:
    for number, line in enumerate(lines, start=1):
        if len(line.rstrip("\n")) > 120:
            out.append(Violation(
                "W001", "line exceeds 120 characters", 0.25, number))


def _rule_tabs_and_spaces(lines: Sequence[str], out: List[Violation]) -> None:
    has_tab_indent = any(line.startswith("\t") for line in lines)
    has_space_indent = any(
        line.startswith(" ") and line.strip() for line in lines
    )
    if has_tab_indent and has_space_indent:
        out.append(Violation(
            "W002", "mixed tab and space indentation", 1.5))


def _rule_trailing_whitespace(
    lines: Sequence[str], out: List[Violation]
) -> None:
    count = sum(
        1 for line in lines if line != line.rstrip() and line.strip()
    )
    if count > 3:
        out.append(Violation(
            "W003", f"trailing whitespace on {count} lines", 0.75))


def _rule_comment_density(
    lines: Sequence[str], out: List[Violation]
) -> None:
    code_lines = [line for line in lines if line.strip()]
    if len(code_lines) < 12:
        return
    comment_lines = sum(
        1 for line in code_lines
        if line.strip().startswith("//") or "/*" in line or "//" in line
    )
    if comment_lines == 0:
        out.append(Violation(
            "W004", "no comments in a non-trivial design", 1.75))


def _rule_indent_consistency(
    lines: Sequence[str], out: List[Violation]
) -> None:
    widths: Set[int] = set()
    for line in lines:
        stripped = line.lstrip(" ")
        if stripped and stripped != line and not line.startswith("\t"):
            widths.add(len(line) - len(stripped))
    # Wildly varying indent widths indicate copy-paste formatting.
    if len(widths) > 5:
        out.append(Violation(
            "W005", "inconsistent indentation levels", 2.0))


#: Acceptable naming styles: snake_case, SCREAMING_CASE, PascalCase.
_IDENT_RE = re.compile(
    r"^[a-z][a-z0-9_]*$|^[A-Z][A-Z0-9_]*$|^[A-Z][a-zA-Z0-9]*$"
)


class _AstRules:
    """AST-level style rules for one module."""

    def __init__(self, module: ast.Module, out: List[Violation]) -> None:
        self._module = module
        self._out = out

    def run(self) -> None:
        self._check_port_style()
        self._check_naming()
        # One walk per process body; its data expressions feed the
        # magic-number and unused-signal rules too.
        values: List[Optional[ast.Expr]] = []
        targets: List[ast.Expr] = []
        for item in self._module.items:
            if isinstance(item, (ast.Always, ast.Initial)):
                stmts = list(ast.statements(item.body))
                first = len(values)
                _data_exprs(stmts, values, targets)
                if isinstance(item, ast.Always):
                    self._check_always(item, stmts, values[first:])
        self._check_magic_numbers(values)
        self._check_unused_signals(values + targets)

    def _check_port_style(self) -> None:
        undirected = [
            p for p in self._module.ports if p.direction is None
        ]
        # Non-ANSI headers are completed during parsing, so detect the
        # old style by body-level Port items.
        body_port_decls = [
            item for item in self._module.items if isinstance(item, ast.Port)
        ]
        if body_port_decls and not undirected:
            self._out.append(Violation(
                "S001", "non-ANSI (Verilog-1995) port declarations",
                0.5, self._module.line))

    def _check_naming(self) -> None:
        short = [
            p.name for p in self._module.ports
            if len(p.name) == 1 and p.name not in ("a", "b", "c", "d", "q", "y")
        ]
        cryptic = [
            p.name for p in self._module.ports
            if not _IDENT_RE.match(p.name) and not p.name.startswith("\\")
        ]
        if cryptic:
            self._out.append(Violation(
                "S002",
                f"mixed-case or cryptic port names: {sorted(cryptic)[:4]}",
                0.5, self._module.line))
        if len(short) > 2:
            self._out.append(Violation(
                "S003", f"many single-letter ports: {sorted(short)[:6]}",
                0.5, self._module.line))
        cryptic_internals = [
            item.name for item in self._module.items
            if isinstance(item, ast.Decl)
            and re.match(r"^[ntwsx]\d+$", item.name)
        ]
        if cryptic_internals:
            self._out.append(Violation(
                "S004",
                f"meaningless internal names: {cryptic_internals[:5]}",
                0.9 * len(cryptic_internals), self._module.line))

    def _check_always(self, item: ast.Always, stmts: List[ast.Stmt],
                      values: List[Optional[ast.Expr]]) -> None:
        sens = item.sensitivity
        if sens is None:
            return
        sequential = not sens.star and any(
            s.edge != "level" for s in sens.items
        )
        assigns = [s for s in stmts if isinstance(s, ast.Assign)]
        blocking = sum(1 for s in assigns if s.blocking)
        nonblocking = len(assigns) - blocking
        if sequential and blocking:
            self._out.append(Violation(
                "S010",
                f"{blocking} blocking assignment(s) in an edge-triggered "
                "always block", 1.5, item.line))
        if not sequential and nonblocking:
            self._out.append(Violation(
                "S011",
                f"{nonblocking} non-blocking assignment(s) in a "
                "combinational always block", 1.0, item.line))
        if not sequential:
            if any(isinstance(s, ast.Case)
                   and all(arm.exprs for arm in s.items) for s in stmts):
                self._out.append(Violation(
                    "S012",
                    "case without default in combinational logic "
                    "(latch risk)", 1.5, item.line))
            # else-if chains count through their last if; a bare if
            # that assigns is the risk.
            if any(isinstance(s, ast.If) and s.else_stmt is None
                   and _assigns_anything(s.then_stmt) for s in stmts):
                self._out.append(Violation(
                    "S013",
                    "if without else in combinational logic (latch risk)",
                    1.0, item.line))
            if not sens.star and _sensitivity_incomplete(sens, values):
                self._out.append(Violation(
                    "S014",
                    "explicit sensitivity list may be incomplete "
                    "(prefer @*)", 0.75, item.line))
        if sequential and any(isinstance(s, ast.Delay) for s in stmts):
            self._out.append(Violation(
                "S015", "delay control inside clocked logic", 1.0,
                item.line))
        depth = _statement_depth(item.body)
        if depth > 6:
            self._out.append(Violation(
                "S016", f"deeply nested statements (depth {depth})",
                0.75, item.line))
        chain = max((_if_chain_length(s) for s in stmts
                     if isinstance(s, ast.If)), default=0)
        if chain >= 5:
            self._out.append(Violation(
                "S017",
                f"if/else chain of length {chain} (a case statement "
                "would be clearer and faster to synthesise)", 0.75,
                item.line))

    def _check_magic_numbers(
        self, process_values: List[Optional[ast.Expr]]
    ) -> None:
        roots = process_values + [
            item.value for item in self._module.items
            if isinstance(item, ast.ContinuousAssign)
        ]
        numbers = [
            expr.value for expr in _expr_nodes(roots)
            if isinstance(expr, ast.Number)
            and expr.value > 64 and expr.width is None
        ]
        if len(numbers) >= 3 and not self._module.parameters:
            self._out.append(Violation(
                "S020",
                f"magic numbers ({sorted(set(numbers))[:4]}…) without "
                "parameters", 0.75, self._module.line))

    def _check_unused_signals(
        self, process_exprs: List[Optional[ast.Expr]]
    ) -> None:
        declared: Dict[str, int] = {}
        for item in self._module.items:
            if isinstance(item, ast.Decl):
                declared[item.name] = item.line
        if not declared:
            return
        roots = list(process_exprs)
        for item in self._module.items:
            if isinstance(item, ast.ContinuousAssign):
                roots += [item.target, item.value]
            elif isinstance(item, ast.Instance):
                roots += [conn.expr
                          for conn in item.connections + item.param_overrides]
            elif isinstance(item, ast.GateInstance):
                roots += item.connections
            elif isinstance(item, ast.Decl):
                roots.append(item.init)
        used = {expr.name for expr in _expr_nodes(roots)
                if isinstance(expr, ast.Identifier)}
        unused = sorted(set(declared) - used)
        if unused:
            self._out.append(Violation(
                "S021", f"unused signal(s): {unused[:5]}",
                0.5 * len(unused), declared[unused[0]]))


# -- AST helpers ---------------------------------------------------------------


def _data_exprs(stmts: List[ast.Stmt], values: List[Optional[ast.Expr]],
                targets: List[ast.Expr]) -> None:
    """Add the expressions ``stmts`` compute with to ``values``, and
    their assignment targets to ``targets``.  Delay amounts, event lists
    and ``wait`` conditions time a process; they are not data."""
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            values.append(stmt.value)
            targets.append(stmt.target)
        elif not isinstance(stmt, (ast.Delay, ast.EventControl, ast.Wait)):
            for child in ast.children(stmt):
                if isinstance(child, ast.Expr):
                    values.append(child)
                elif isinstance(child, ast.CaseItem):
                    values += [label for label in ast.children(child)
                               if isinstance(label, ast.Expr)]


def _expr_nodes(roots: List[Optional[ast.Expr]]) -> Iterator[ast.Expr]:
    """Every expression node in the trees ``roots``."""
    pending = list(roots)
    while pending:
        expr = pending.pop()
        if expr is not None:
            yield expr
            pending.extend(ast.children(expr))


def _assigns_anything(stmt: Optional[ast.Stmt]) -> bool:
    return any(isinstance(s, ast.Assign) for s in ast.statements(stmt))


def _sensitivity_incomplete(sens: ast.SensitivityList,
                            values: List[Optional[ast.Expr]]) -> bool:
    """Are signals read in the body missing from the sensitivity list?"""
    listed = {entry.expr.name for entry in sens.items
              if isinstance(entry.expr, ast.Identifier)}
    return any(isinstance(expr, ast.Identifier) and expr.name not in listed
               for expr in _expr_nodes(values))


def _statement_depth(stmt: Optional[ast.Stmt], depth: int = 0) -> int:
    if stmt is None:
        return depth
    return max((_statement_depth(child, depth + 1)
                for child in ast.sub_statements(stmt)), default=depth)


def _if_chain_length(stmt: ast.If) -> int:
    length = 1
    node = stmt.else_stmt
    while isinstance(node, ast.If):
        length += 1
        node = node.else_stmt
    return length


def lint(source: str) -> StyleReport:
    """Lint Verilog source text.

    Parse failures yield ``parse_failed=True`` with a single fatal
    violation; the ranking judge maps that to a score of 0.
    """
    report = StyleReport()
    lines = source.splitlines()
    _rule_line_length(lines, report.violations)
    _rule_tabs_and_spaces(lines, report.violations)
    _rule_trailing_whitespace(lines, report.violations)
    _rule_comment_density(lines, report.violations)
    _rule_indent_consistency(lines, report.violations)
    try:
        tree = parse(source)
    except ParseError as exc:
        report.parse_failed = True
        report.violations.append(Violation(
            "E000", f"parse error: {exc}", 20.0, getattr(exc, "line", 0)))
        return report
    for module in tree.modules:
        _AstRules(module, report.violations).run()
    if len(tree.modules) > 3:
        report.violations.append(Violation(
            "W006", f"{len(tree.modules)} modules in one file", 0.25))
    return report
