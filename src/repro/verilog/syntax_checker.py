"""Compile checking with the paper's failure taxonomy.

PyraNet's curation pipeline (Section III-A.2) runs Icarus Verilog over
every candidate file and classifies the outcome:

* **clean** — compiles without errors (Layers 1–5 material);
* **dependency issues** — the file is syntactically well-formed but
  references modules, identifiers, or include files defined elsewhere
  ("missing imports or undefined references", Layer 6 material);
* **syntax error** — rejected outright.

:func:`check` reproduces that decision procedure on the supported
Verilog subset: preprocess, parse, then resolve every name against the
declarations in scope.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Set

from ..obs.reportable import Reportable
from . import ast_nodes as ast
from .lexer import LexError
from .parser import ParseError, parse
from .preprocessor import PreprocessorError, preprocess

#: Identifiers every Verilog context understands without declaration.
_BUILTIN_SYSTEM_FUNCS = frozenset(
    ["$clog2", "$signed", "$unsigned", "$time", "$stime", "$realtime",
     "$random", "$urandom", "$bits", "$display", "$write", "$strobe",
     "$monitor", "$finish", "$stop", "$readmemh", "$readmemb",
     "$dumpfile", "$dumpvars", "$error", "$warning", "$info", "$fatal",
     "$fopen", "$fclose", "$fwrite", "$fdisplay", "$sformat",
     "$displayb", "$displayh", "$srandom", "$timeformat", "$monitoron",
     "$monitoroff", "$dumpon", "$dumpoff", "$rtoi", "$itor",
     "$realtobits", "$bitstoreal", "$test$plusargs", "$value$plusargs"]
)


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


class Category(enum.Enum):
    """Failure classes from the paper's filtering step."""

    SYNTAX = "syntax"
    DEPENDENCY = "dependency"
    SEMANTIC = "semantic"


@dataclass(frozen=True)
class Diagnostic(Reportable):
    """One reported problem.

    ``column`` is 1-based where known (lexer/parser errors carry one);
    0 means the producer had no column information.
    """

    severity: Severity
    category: Category
    message: str
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return (
            f"{self.line}: {self.severity.value}: "
            f"[{self.category.value}] {self.message}"
        )


@dataclass
class CheckResult:
    """Outcome of :func:`check`.

    ``status`` is one of ``"clean"``, ``"dependency"``, ``"syntax"``.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    modules: List[str] = field(default_factory=list)
    source: Optional[ast.SourceFile] = None

    @property
    def syntax_errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.category is Category.SYNTAX
                and d.severity is Severity.ERROR]

    @property
    def dependency_issues(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.category is Category.DEPENDENCY]

    @property
    def is_syntactically_valid(self) -> bool:
        return not self.syntax_errors

    @property
    def compiles_cleanly(self) -> bool:
        return not self.diagnostics or all(
            d.severity is Severity.WARNING for d in self.diagnostics
        )

    @property
    def status(self) -> str:
        if self.syntax_errors:
            return "syntax"
        if self.dependency_issues:
            return "dependency"
        return "clean"


class _ModuleChecker:
    """Name-resolution walk over one module."""

    def __init__(
        self,
        module: ast.Module,
        known_modules: Set[str],
        diagnostics: List[Diagnostic],
    ) -> None:
        self._module = module
        self._known_modules = known_modules
        self._diags = diagnostics
        self._scopes: List[Set[str]] = []
        self._reported: Set[str] = set()

    # -- scope helpers ----------------------------------------------------------

    def _push(self, names: Set[str]) -> None:
        self._scopes.append(names)

    def _pop(self) -> None:
        self._scopes.pop()

    def _declared(self, name: str) -> bool:
        return any(name in scope for scope in self._scopes)

    def _report_unknown(self, name: str, line: int) -> None:
        if name in self._reported:
            return
        self._reported.add(name)
        self._diags.append(
            Diagnostic(
                Severity.ERROR,
                Category.DEPENDENCY,
                f"undefined reference {name!r} in module "
                f"{self._module.name!r}",
                line,
            )
        )

    # -- entry -----------------------------------------------------------------

    def run(self) -> None:
        module = self._module
        top_names: Set[str] = set()
        for port in module.ports:
            top_names.add(port.name)
            if port.direction is None:
                self._diags.append(
                    Diagnostic(
                        Severity.ERROR, Category.SYNTAX,
                        f"port {port.name!r} of module {module.name!r} "
                        f"has no direction", port.line,
                    )
                )
        for param in module.parameters:
            top_names.add(param.name)
        self._collect_item_decls(module.items, top_names)
        self._push(top_names)
        for param in module.parameters:
            self._check_expr(param.value)
        self._check_items(module.items)
        self._pop()

    def _collect_item_decls(
        self, items: Sequence[ast.ModuleItem], names: Set[str]
    ) -> None:
        for item in items:
            if isinstance(item, ast.Decl):
                names.add(item.name)
            elif isinstance(item, ast.Port):
                names.add(item.name)
            elif isinstance(item, ast.Parameter):
                names.add(item.name)
            elif isinstance(item, (ast.FunctionDecl, ast.TaskDecl)):
                names.add(item.name)
            elif isinstance(item, ast.GenerateFor):
                names.add(item.genvar)
                self._collect_item_decls(item.items, names)
            elif isinstance(item, ast.GenerateIf):
                self._collect_item_decls(item.then_items, names)
                self._collect_item_decls(item.else_items, names)
            elif isinstance(item, ast.Instance):
                # Implicit nets may be created by connection identifiers;
                # Verilog permits them, so do not require declarations
                # here — but we do check the module name elsewhere.
                pass

    # -- items -----------------------------------------------------------------

    def _check_items(self, items: Sequence[ast.ModuleItem]) -> None:
        for item in items:
            self._check_item(item)

    def _check_item(self, item: ast.ModuleItem) -> None:
        if isinstance(item, ast.Decl):
            if item.range is not None:
                self._check_expr(item.range.msb)
                self._check_expr(item.range.lsb)
            if item.init is not None:
                self._check_expr(item.init)
            return
        if isinstance(item, (ast.Port, ast.Parameter)):
            return
        if isinstance(item, ast.ContinuousAssign):
            self._check_expr(item.target)
            self._check_expr(item.value)
            return
        if isinstance(item, ast.Always):
            if item.sensitivity is not None and not item.sensitivity.star:
                for entry in item.sensitivity.items:
                    self._check_expr(entry.expr)
            self._check_stmt(item.body)
            return
        if isinstance(item, ast.Initial):
            self._check_stmt(item.body)
            return
        if isinstance(item, ast.Instance):
            if item.module_name not in self._known_modules:
                self._diags.append(
                    Diagnostic(
                        Severity.ERROR, Category.DEPENDENCY,
                        f"unknown module {item.module_name!r} instantiated "
                        f"as {item.instance_name!r}", item.line,
                    )
                )
            for conn in item.param_overrides + item.connections:
                if conn.expr is not None:
                    self._check_expr(conn.expr, allow_implicit_net=True)
            return
        if isinstance(item, ast.GateInstance):
            for conn in item.connections:
                self._check_expr(conn, allow_implicit_net=True)
            return
        if isinstance(item, ast.FunctionDecl):
            names = {item.name}
            names |= {d.name for d in item.inputs}
            names |= {d.name for d in item.locals}
            self._push(names)
            self._check_stmt(item.body)
            self._pop()
            return
        if isinstance(item, ast.TaskDecl):
            names = {d.name for d in item.inputs + item.outputs + item.locals}
            self._push(names)
            self._check_stmt(item.body)
            self._pop()
            return
        if isinstance(item, ast.GenerateFor):
            self._check_expr(item.init)
            self._check_expr(item.cond)
            self._check_expr(item.step)
            self._check_items(item.items)
            return
        if isinstance(item, ast.GenerateIf):
            self._check_expr(item.cond)
            self._check_items(item.then_items)
            self._check_items(item.else_items)
            return

    # -- statements and expressions --------------------------------------------

    def _check_stmt(self, stmt) -> None:
        """Check a statement or any other non-expression slot of one (a
        case arm, an event list or its entries, None)."""
        if stmt is None:
            return
        block = isinstance(stmt, ast.Block)
        if block:
            self._push({d.name for d in stmt.decls})
        elif isinstance(stmt, ast.TaskCall) and not self._declared(stmt.name):
            self._report_unknown(stmt.name, stmt.line)
        for child in ast.children(stmt):
            if isinstance(child, ast.Expr):
                self._check_expr(child)
            else:
                self._check_stmt(child)
        if block:
            self._pop()

    def _check_expr(
        self, expr: Optional[ast.Expr], allow_implicit_net: bool = False
    ) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Identifier):
            if not self._declared(expr.name) and not allow_implicit_net:
                self._report_unknown(expr.name, expr.line)
            return
        if isinstance(expr, ast.HierarchicalId):
            if not self._declared(expr.parts[0]):
                self._report_unknown(".".join(expr.parts), expr.line)
            return
        if isinstance(expr, ast.FunctionCall):
            if not self._declared(expr.name):
                self._report_unknown(expr.name, expr.line)
        elif isinstance(expr, ast.SystemCall):
            if expr.name not in _BUILTIN_SYSTEM_FUNCS:
                self._diags.append(
                    Diagnostic(
                        Severity.WARNING, Category.SEMANTIC,
                        f"unknown system function {expr.name!r}", expr.line,
                    )
                )
        for index, child in enumerate(ast.children(expr)):
            # An implicit net may be a select's base or a part of a
            # concatenation, never an index.
            self._check_expr(child, allow_implicit_net and (
                isinstance(expr, ast.Concat)
                or (index == 0 and isinstance(expr, ast.Select))))


def check(
    source: str,
    include_files: Optional[Mapping[str, str]] = None,
    extra_modules: Optional[Sequence[str]] = None,
) -> CheckResult:
    """Compile-check ``source`` and classify the outcome.

    Args:
        source: raw Verilog text (directives allowed).
        include_files: virtual filesystem for ``\\`include`` resolution.
        extra_modules: module names assumed to exist elsewhere (treated
            as known for instantiation checking).

    Returns:
        A :class:`CheckResult`; inspect ``result.status``.
    """
    result = CheckResult()
    try:
        pre = preprocess(source, include_files)
    except PreprocessorError as exc:
        result.diagnostics.append(
            Diagnostic(Severity.ERROR, Category.SYNTAX, str(exc))
        )
        return result
    for missing in pre.missing_includes:
        result.diagnostics.append(
            Diagnostic(
                Severity.ERROR, Category.DEPENDENCY,
                f"cannot resolve `include \"{missing}\"",
            )
        )
    try:
        tree = parse(pre.text)
    except (ParseError, LexError) as exc:
        line = getattr(exc, "line", 0)
        column = getattr(exc, "col", 0)
        result.diagnostics.append(
            Diagnostic(Severity.ERROR, Category.SYNTAX,
                       getattr(exc, "message", str(exc)), line, column)
        )
        return result
    result.source = tree
    result.modules = tree.module_names()
    if not tree.modules:
        result.diagnostics.append(
            Diagnostic(Severity.ERROR, Category.SYNTAX,
                       "no module declaration found")
        )
        return result
    known = set(result.modules) | set(extra_modules or ())
    for module in tree.modules:
        _ModuleChecker(module, known, result.diagnostics).run()
    return result


def has_module_declaration(source: str) -> bool:
    """Cheap pre-filter: does the text contain a module declaration?

    Mirrors the paper's regex-level "module declaration" filter, which
    runs before the expensive compile check.
    """
    import re

    # Strip comments first so commented-out modules do not count.
    text = re.sub(r"//[^\n]*", "", source)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.search(r"\bmodule\s+[a-zA-Z_\\]", text) is not None
