"""Abstract syntax tree for the supported Verilog subset.

Nodes are plain dataclasses; the parser builds them and the elaborator,
metrics, style checker, and simulator walk them.  Every node carries the
source line it started on so diagnostics can point at code.

The tree's shape is written once, in ``_SHAPE`` at the end of this
module; analysis walks handle the nodes they treat specially and
recurse through :func:`children`, :func:`sub_statements` or
:func:`statements` for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
                    Union)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions."""

    line: int = 0


@dataclass
class Number(Expr):
    """An integer literal, possibly sized/based and holding x/z digits.

    Attributes:
        width: declared bit width, or None for unsized literals.
        value: the known bits (x/z positions are zero here).
        xz_mask: bit mask of positions that are x or z.
        z_mask: bit mask of positions that are z (subset of ``xz_mask``).
        signed: True for ``'sd``-style signed literals.
        text: original spelling, kept for round-tripping.
    """

    width: Optional[int] = None
    value: int = 0
    xz_mask: int = 0
    z_mask: int = 0
    signed: bool = False
    text: str = ""


@dataclass
class RealNumber(Expr):
    """A real literal such as ``3.14`` (rare in synthesizable code)."""

    value: float = 0.0


@dataclass
class StringLiteral(Expr):
    """A string literal, used mainly in $display calls."""

    value: str = ""


@dataclass
class Identifier(Expr):
    """A reference to a named net, variable, parameter, or genvar."""

    name: str = ""


@dataclass
class HierarchicalId(Expr):
    """A dotted reference like ``dut.counter.q`` (testbench probing)."""

    parts: Tuple[str, ...] = ()


@dataclass
class Select(Expr):
    """Bit select ``a[i]``, part select ``a[h:l]``, or indexed part
    select ``a[b +: w]`` / ``a[b -: w]``.

    ``kind`` is one of ``"bit"``, ``"part"``, ``"plus"``, ``"minus"``.
    """

    base: Expr = None  # type: ignore[assignment]
    kind: str = "bit"
    left: Expr = None  # type: ignore[assignment]
    right: Optional[Expr] = None


@dataclass
class Concat(Expr):
    """Concatenation ``{a, b, c}``."""

    parts: List[Expr] = field(default_factory=list)


@dataclass
class Replicate(Expr):
    """Replication ``{N{expr}}``."""

    count: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Unary(Expr):
    """Unary operator application (including reduction operators)."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    """Binary operator application."""

    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Ternary(Expr):
    """Conditional expression ``cond ? a : b``."""

    cond: Expr = None  # type: ignore[assignment]
    if_true: Expr = None  # type: ignore[assignment]
    if_false: Expr = None  # type: ignore[assignment]


@dataclass
class FunctionCall(Expr):
    """Call of a user-defined function inside an expression."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class SystemCall(Expr):
    """A system function/task reference such as ``$clog2`` or ``$time``."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for procedural statements."""

    line: int = 0


@dataclass
class Block(Stmt):
    """A ``begin … end`` block, optionally named, with local decls."""

    name: Optional[str] = None
    decls: List["Decl"] = field(default_factory=list)
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class Assign(Stmt):
    """A procedural assignment.

    ``blocking`` distinguishes ``=`` from ``<=``.  ``delay`` is an
    optional intra-assignment delay expression (ignored by the cycle
    semantics but parsed for corpus compatibility).
    """

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]
    blocking: bool = True
    delay: Optional[Expr] = None


@dataclass
class If(Stmt):
    """``if``/``else`` statement."""

    cond: Expr = None  # type: ignore[assignment]
    then_stmt: Optional[Stmt] = None
    else_stmt: Optional[Stmt] = None


@dataclass
class CaseItem:
    """One arm of a case statement; ``exprs`` empty means ``default``."""

    exprs: List[Expr] = field(default_factory=list)
    body: Optional[Stmt] = None
    line: int = 0


@dataclass
class Case(Stmt):
    """``case``/``casez``/``casex`` statement; ``kind`` holds which."""

    kind: str = "case"
    subject: Expr = None  # type: ignore[assignment]
    items: List[CaseItem] = field(default_factory=list)


@dataclass
class For(Stmt):
    """``for (init; cond; step) body`` loop."""

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: Optional[Stmt] = None


@dataclass
class While(Stmt):
    """``while (cond) body`` loop."""

    cond: Expr = None  # type: ignore[assignment]
    body: Optional[Stmt] = None


@dataclass
class Repeat(Stmt):
    """``repeat (count) body`` loop."""

    count: Expr = None  # type: ignore[assignment]
    body: Optional[Stmt] = None


@dataclass
class Forever(Stmt):
    """``forever body`` loop (testbench clock generators)."""

    body: Optional[Stmt] = None


@dataclass
class Delay(Stmt):
    """``# delay stmt`` — a timing control prefix (testbench code)."""

    amount: Expr = None  # type: ignore[assignment]
    stmt: Optional[Stmt] = None


@dataclass
class EventControl(Stmt):
    """``@(sens) stmt`` inside a procedural context."""

    sensitivity: "SensitivityList" = None  # type: ignore[assignment]
    stmt: Optional[Stmt] = None


@dataclass
class Wait(Stmt):
    """``wait (expr) stmt``."""

    cond: Expr = None  # type: ignore[assignment]
    stmt: Optional[Stmt] = None


@dataclass
class SystemTaskCall(Stmt):
    """A system task statement such as ``$display(...)``."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class TaskCall(Stmt):
    """A call of a user task (parsed; limited simulation support)."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class NullStmt(Stmt):
    """A lone semicolon."""


@dataclass
class Disable(Stmt):
    """``disable name`` (parsed for corpus compatibility)."""

    name: str = ""


# ---------------------------------------------------------------------------
# Declarations and module items
# ---------------------------------------------------------------------------


@dataclass
class Range:
    """A ``[msb:lsb]`` range; both bounds are constant expressions."""

    msb: Expr = None  # type: ignore[assignment]
    lsb: Expr = None  # type: ignore[assignment]


@dataclass
class Decl:
    """A net/variable declaration.

    Attributes:
        kind: ``wire``, ``reg``, ``integer``, ``real``, ``supply0`` …
        name: declared identifier.
        range: packed vector range, or None for scalars.
        array_dims: unpacked (memory) dimensions.
        signed: ``signed`` qualifier.
        init: optional initialiser expression (``wire x = …``).
    """

    kind: str = "wire"
    name: str = ""
    range: Optional[Range] = None
    array_dims: List[Range] = field(default_factory=list)
    signed: bool = False
    init: Optional[Expr] = None
    line: int = 0


@dataclass
class Port:
    """A module port.

    ``direction`` is ``input``/``output``/``inout``; ``net_kind`` is the
    declared storage (``wire`` or ``reg``).  Non-ANSI headers produce a
    Port with only ``name`` set, completed later by body declarations.
    """

    direction: Optional[str] = None
    net_kind: str = "wire"
    name: str = ""
    range: Optional[Range] = None
    signed: bool = False
    line: int = 0


@dataclass
class Parameter:
    """``parameter``/``localparam`` declaration."""

    name: str = ""
    value: Expr = None  # type: ignore[assignment]
    local: bool = False
    range: Optional[Range] = None
    signed: bool = False
    line: int = 0


@dataclass
class ContinuousAssign:
    """``assign target = value;`` with optional drive delay (parsed only)."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]
    delay: Optional[Expr] = None
    line: int = 0


@dataclass
class SensitivityItem:
    """One entry of a sensitivity list: ``posedge clk`` etc.

    ``edge`` is ``posedge``, ``negedge``, or ``level``.
    """

    edge: str = "level"
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class SensitivityList:
    """The ``@(...)`` control; ``star`` means ``@*``/``@(*)``."""

    star: bool = False
    items: List[SensitivityItem] = field(default_factory=list)


@dataclass
class Always:
    """An ``always @(...)`` process."""

    sensitivity: Optional[SensitivityList] = None
    body: Optional[Stmt] = None
    line: int = 0


@dataclass
class Initial:
    """An ``initial`` process."""

    body: Optional[Stmt] = None
    line: int = 0


@dataclass
class PortConnection:
    """One connection in an instantiation; ``name`` None = positional."""

    name: Optional[str] = None
    expr: Optional[Expr] = None
    line: int = 0


@dataclass
class Instance:
    """A module (or primitive-gate) instantiation."""

    module_name: str = ""
    instance_name: str = ""
    param_overrides: List[PortConnection] = field(default_factory=list)
    connections: List[PortConnection] = field(default_factory=list)
    line: int = 0


@dataclass
class GateInstance:
    """A primitive gate instantiation: ``and g1(y, a, b);``."""

    gate_kind: str = ""
    instance_name: str = ""
    connections: List[Expr] = field(default_factory=list)
    line: int = 0


@dataclass
class FunctionDecl:
    """A user function: ``function [7:0] f; input ...; begin ... end``.

    ``kind`` is the return type: ``reg`` (sized by ``range``) or
    ``integer``."""

    name: str = ""
    kind: str = "reg"
    range: Optional[Range] = None
    signed: bool = False
    inputs: List[Decl] = field(default_factory=list)
    locals: List[Decl] = field(default_factory=list)
    body: Optional[Stmt] = None
    line: int = 0


@dataclass
class TaskDecl:
    """A user task (parsed; limited simulation support)."""

    name: str = ""
    inputs: List[Decl] = field(default_factory=list)
    outputs: List[Decl] = field(default_factory=list)
    locals: List[Decl] = field(default_factory=list)
    body: Optional[Stmt] = None
    line: int = 0


@dataclass
class GenerateFor:
    """A ``for``-generate loop (unrolled during elaboration)."""

    genvar: str = ""
    init: Expr = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]
    step: Expr = None  # type: ignore[assignment]
    label: Optional[str] = None
    items: List["ModuleItem"] = field(default_factory=list)
    line: int = 0


@dataclass
class GenerateIf:
    """An ``if``-generate (resolved during elaboration)."""

    cond: Expr = None  # type: ignore[assignment]
    then_items: List["ModuleItem"] = field(default_factory=list)
    else_items: List["ModuleItem"] = field(default_factory=list)
    line: int = 0


ModuleItem = Union[
    Decl,
    Parameter,
    ContinuousAssign,
    Always,
    Initial,
    Instance,
    GateInstance,
    FunctionDecl,
    TaskDecl,
    GenerateFor,
    GenerateIf,
]


@dataclass
class Module:
    """A parsed module definition."""

    name: str = ""
    ports: List[Port] = field(default_factory=list)
    parameters: List[Parameter] = field(default_factory=list)
    items: List[ModuleItem] = field(default_factory=list)
    line: int = 0

    def port_names(self) -> List[str]:
        """Return declared port names in header order."""
        return [p.name for p in self.ports]

    def find_port(self, name: str) -> Optional[Port]:
        """Return the port named ``name``, or None."""
        for port in self.ports:
            if port.name == name:
                return port
        return None


@dataclass
class SourceFile:
    """A parsed compilation unit (one or more modules)."""

    modules: List[Module] = field(default_factory=list)

    def module_names(self) -> List[str]:
        return [m.name for m in self.modules]

    def find_module(self, name: str) -> Optional[Module]:
        for module in self.modules:
            if module.name == name:
                return module
        return None


# ---------------------------------------------------------------------------
# The tree's shape
# ---------------------------------------------------------------------------

#: Each node type's child fields in source order, except that an
#: assignment's intra-assignment delay comes after its value.  A field
#: marked ``*`` holds a list of nodes, the others one node or None.
#: Types not listed have no children.
_SHAPE: Dict[type, Tuple[str, ...]] = {
    Select: ("base", "left", "right"),
    Concat: ("parts*",),
    Replicate: ("count", "value"),
    Unary: ("operand",),
    Binary: ("left", "right"),
    Ternary: ("cond", "if_true", "if_false"),
    FunctionCall: ("args*",),
    SystemCall: ("args*",),
    Block: ("stmts*",),
    Assign: ("target", "value", "delay"),
    If: ("cond", "then_stmt", "else_stmt"),
    Case: ("subject", "items*"),
    CaseItem: ("exprs*", "body"),
    For: ("init", "cond", "step", "body"),
    While: ("cond", "body"),
    Repeat: ("count", "body"),
    Forever: ("body",),
    Delay: ("amount", "stmt"),
    EventControl: ("sensitivity", "stmt"),
    SensitivityList: ("items*",),
    SensitivityItem: ("expr",),
    Wait: ("cond", "stmt"),
    SystemTaskCall: ("args*",),
    TaskCall: ("args*",),
}

#: The fields of ``_SHAPE`` that hold statements.
_STATEMENT_FIELDS = frozenset(
    ["stmts*", "then_stmt", "else_stmt", "init", "step", "body", "stmt"])

_Reader = Callable[[object], Sequence]


def _reader(fields: Sequence[str]) -> _Reader:
    """A function returning the nodes held in ``fields`` of a node."""
    names = [name.rstrip("*") for name in fields]
    lists = [name.endswith("*") for name in fields]
    if lists == [True]:
        return attrgetter(names[0])
    if lists == [False]:
        name = names[0]
        return lambda node: (getattr(node, name),)
    if not any(lists):
        return attrgetter(*names)

    def read(node) -> List:
        nodes: List = []
        for name, is_list in zip(names, lists):
            if is_list:
                nodes.extend(getattr(node, name))
            else:
                nodes.append(getattr(node, name))
        return nodes
    return read


_CHILDREN: Dict[type, _Reader] = {
    kind: _reader(fields) for kind, fields in _SHAPE.items()}
_SUB_STATEMENTS: Dict[type, _Reader] = {
    kind: _reader([name for name in fields if name in _STATEMENT_FIELDS])
    for kind, fields in _SHAPE.items()
    if issubclass(kind, Stmt) and _STATEMENT_FIELDS.intersection(fields)}
# A case's statements sit in its arms.
_SUB_STATEMENTS[Case] = lambda case: [arm.body for arm in case.items]


def children(node) -> Sequence:
    """The nodes in ``node``'s ``_SHAPE`` fields, in that order: its
    sub-expressions, case arms, event list and sub-statements.  An empty
    slot reads None; the sequence may be the node's own list, so do not
    modify it."""
    read = _CHILDREN.get(type(node))
    return () if read is None else read(node)


def sub_statements(stmt) -> Sequence:
    """The statement slots directly inside ``stmt`` (a case's are its
    arms' bodies), in source order; an empty slot reads None."""
    read = _SUB_STATEMENTS.get(type(stmt))
    return () if read is None else read(stmt)


def statements(stmt) -> Iterator[Stmt]:
    """``stmt`` and every statement nested in it, in source order.  The
    walk keeps its own stack, so nesting depth is not limited."""
    pending = [stmt]
    while pending:
        node = pending.pop()
        if node is not None:
            yield node
            read = _SUB_STATEMENTS.get(type(node))
            if read is not None:
                pending.extend(reversed(read(node)))
