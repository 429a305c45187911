"""Elaborated-design data structures shared by the simulator stages.

Elaboration flattens the module hierarchy into a :class:`Design`:
a set of flat :class:`Signal` objects, a list of processes, and per-
instance :class:`Scope` objects that map source-level identifiers to
flat signals, constants, and functions.  Keeping the original AST and
resolving names through scopes (instead of rewriting the AST) lets one
parsed module serve many instances and generate iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from .. import ast_nodes as ast
from .values import Vec4


class ElaborationError(Exception):
    """Raised when a design cannot be elaborated (unknown module,
    non-constant parameter, unsupported construct, width mismatch…)."""


#: (width, signed) of the variable kinds whose size is fixed; their
#: range and ``signed`` qualifier, if any, are ignored.
FIXED_KINDS = {"integer": (32, True), "time": (32, False),
               "real": (64, True)}


@dataclass
class Signal:
    """A flat signal in the elaborated design.

    Attributes:
        name: hierarchical flat name, e.g. ``"u_alu.result"``.
        width: bit width of one element.
        signed: declared signedness.
        kind: ``"net"`` (resolved, multi-driver) or ``"var"`` (reg-like).
        array_size: number of elements for memories; 0 for plain signals.
    """

    name: str
    width: int
    signed: bool = False
    kind: str = "var"
    array_size: int = 0
    #: Declared packed-range bounds, e.g. ``[7:0]`` → msb=7, lsb=0.
    msb: int = 0
    lsb: int = 0
    #: Lowest declared memory address (for ``reg [7:0] m [16:31]``).
    array_min: int = 0

    @property
    def is_memory(self) -> bool:
        return self.array_size > 0

    def bit_position(self, index: int) -> int:
        """Map a declared bit index to a physical bit position.

        Descending ranges (``[7:0]``) map index→index-lsb; ascending
        ranges (``[0:7]``) reverse so the leftmost declared bit is the
        MSB of the stored vector.
        """
        if self.msb >= self.lsb:
            return index - self.lsb
        return self.lsb - index


def declared_signal(decl: Union[ast.Decl, ast.FunctionDecl], name: str,
                    const_int: Callable[[ast.Expr], int],
                    cls: type = Signal, **fields) -> Signal:
    """The signal ``decl`` declares, named ``name``: the one rule for
    module signals and ports, block-local variables, function inputs,
    locals and return values, and the formal checker's locals.

    ``integer``, ``time`` and ``real`` take their :data:`FIXED_KINDS`
    shape; any other kind is as wide as its packed range (1 bit without
    one).  One unpacked dimension makes a memory; more are rejected.
    ``const_int`` folds each bound, in the order msb, lsb, then the
    memory's two bounds.  ``fields`` go to ``cls`` as they are.
    """
    fixed = FIXED_KINDS.get(decl.kind)
    if fixed is not None:
        width, signed = fixed
        msb, lsb = width - 1, 0
    elif decl.range is not None:
        msb, lsb = const_int(decl.range.msb), const_int(decl.range.lsb)
        width, signed = abs(msb - lsb) + 1, decl.signed
    else:
        width, msb, lsb, signed = 1, 0, 0, decl.signed
    array_size = array_min = 0
    dims = decl.array_dims if isinstance(decl, ast.Decl) else ()
    if dims:
        if len(dims) > 1:
            raise ElaborationError(
                f"multi-dimensional memory {decl.name!r} not supported")
        first, last = const_int(dims[0].msb), const_int(dims[0].lsb)
        array_min = min(first, last)
        array_size = max(first, last) - array_min + 1
    return cls(name=name, width=width, signed=signed, msb=msb, lsb=lsb,
               array_size=array_size, array_min=array_min, **fields)


@dataclass
class ConstBinding:
    """A compile-time constant (parameter, localparam, genvar value)."""

    value: Vec4


@dataclass
class SignalBinding:
    """A reference from a local identifier to a flat signal."""

    signal: Signal


@dataclass
class FuncBinding:
    """A user function visible in a scope."""

    decl: ast.FunctionDecl
    scope: "Scope"


@dataclass
class TaskBinding:
    """A user task visible in a scope."""

    decl: ast.TaskDecl
    scope: "Scope"


Binding = Union[ConstBinding, SignalBinding, FuncBinding, TaskBinding]


class Scope:
    """Identifier-resolution environment for one elaborated instance.

    Scopes chain through ``parent`` only for *constants and functions*
    (used by generate blocks); signals do not leak across instance
    boundaries.
    """

    def __init__(self, path: str, parent: Optional["Scope"] = None) -> None:
        self.path = path
        self.parent = parent
        self._bindings: Dict[str, Binding] = {}

    def bind(self, name: str, binding: Binding) -> None:
        self._bindings[name] = binding

    def lookup(self, name: str) -> Optional[Binding]:
        scope: Optional[Scope] = self
        while scope is not None:
            binding = scope._bindings.get(name)
            if binding is not None:
                return binding
            scope = scope.parent
        return None

    def lookup_function(self, name: str) -> Optional["FuncBinding"]:
        """Find a function binding, skipping shadows.

        Inside a function body the function's own name is rebound to
        its return variable; recursive calls must still resolve the
        function itself from an enclosing scope.
        """
        scope: Optional[Scope] = self
        while scope is not None:
            binding = scope._bindings.get(name)
            if isinstance(binding, FuncBinding):
                return binding
            scope = scope.parent
        return None

    def child(self, suffix: str) -> "Scope":
        """A nested scope (generate iteration) sharing this scope's
        bindings through the parent chain."""
        path = f"{self.path}.{suffix}" if self.path else suffix
        return Scope(path, parent=self)

    def flat_name(self, local: str) -> str:
        return f"{self.path}.{local}" if self.path else local


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class CombProcess:
    """A combinational process: continuous assign or level-sensitive
    always block.  Re-executed whenever any signal it reads changes.

    ``driver_id`` identifies this process among a net's drivers for
    multi-driver resolution (continuous assigns only; always blocks
    write variables, which are last-write-wins).
    """

    scope: Scope
    #: For a continuous assign: (target lvalue expr, value expr).
    assign: Optional[Tuple[ast.Expr, ast.Expr]] = None
    #: For an always block: the statement body.
    body: Optional[ast.Stmt] = None
    sensitivity: Tuple[str, ...] = ()
    driver_id: int = -1
    line: int = 0
    #: Scope for resolving the assign target when it differs from
    #: ``scope`` (port-connection processes cross instance boundaries).
    target_scope: Optional[Scope] = None


@dataclass
class EdgeProcess:
    """An edge-triggered always block."""

    scope: Scope
    #: (edge, flat signal name) pairs, edge in {"posedge", "negedge"}.
    triggers: Tuple[Tuple[str, str], ...] = ()
    body: Optional[ast.Stmt] = None
    line: int = 0


@dataclass
class InitialProcess:
    """An ``initial`` block (may contain timing controls)."""

    scope: Scope
    body: Optional[ast.Stmt] = None
    line: int = 0


@dataclass
class TimedAlwaysProcess:
    """An always block with no sensitivity list (``always #5 clk=~clk``
    or ``always begin ... end`` with internal timing controls)."""

    scope: Scope
    body: Optional[ast.Stmt] = None
    line: int = 0


Process = Union[CombProcess, EdgeProcess, InitialProcess, TimedAlwaysProcess]


@dataclass
class Design:
    """A fully elaborated, flattened design ready for simulation."""

    top_name: str = ""
    signals: Dict[str, Signal] = field(default_factory=dict)
    processes: List[Process] = field(default_factory=list)
    #: Flat names of top-level ports by direction.
    inputs: Dict[str, Signal] = field(default_factory=dict)
    outputs: Dict[str, Signal] = field(default_factory=dict)
    inouts: Dict[str, Signal] = field(default_factory=dict)
    #: Total driver count (for net resolution bookkeeping).
    n_drivers: int = 0
    #: The top instance scope (for hierarchical probes).
    top_scope: Optional[Scope] = None

    def add_signal(self, signal: Signal) -> Signal:
        if signal.name in self.signals:
            raise ElaborationError(f"duplicate signal {signal.name!r}")
        self.signals[signal.name] = signal
        return signal

    def new_driver_id(self) -> int:
        self.n_drivers += 1
        return self.n_drivers - 1
