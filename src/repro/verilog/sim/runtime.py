"""High-level simulation API.

:class:`Simulator` wraps parse → elaborate → kernel and exposes a
Python-driven testbench interface::

    sim = Simulator(source, top="counter")
    sim.poke("rst_n", 0)
    sim.clock("clk")          # one rising edge (+ falling)
    sim.poke("rst_n", 1)
    sim.poke("en", 1)
    sim.clock("clk", cycles=10)
    assert sim.peek_int("count") == 10

Values move as :class:`~.values.Vec4` or plain ints.  ``peek`` works on
any signal in the flattened design (hierarchical names joined with
dots), ``poke`` on top-level inputs and variables.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from .. import ast_nodes as ast
from ..parser import ParseError, parse
from .design import Design, ElaborationError, Signal
from .elaborate import elaborate
from .interp import SimulationError, StopSimulation
from .scheduler import Kernel
from .values import Vec4

SourceLike = Union[str, Iterable[str]]


def build_library(sources: SourceLike) -> Dict[str, ast.Module]:
    """Parse one or more source strings into a module library.

    Compiler directives are preprocessed first.  An unresolved include
    is fatal (as in Icarus Verilog): the missing file is a dependency
    this compilation unit cannot satisfy.
    """
    from ..preprocessor import preprocess

    if isinstance(sources, str):
        sources = [sources]
    library: Dict[str, ast.Module] = {}
    for text in sources:
        if "`" in text:
            result = preprocess(text)
            if result.missing_includes:
                raise ElaborationError(
                    "cannot resolve `include "
                    f"\"{result.missing_includes[0]}\""
                )
            text = result.text
        for module in parse(text).modules:
            if module.name in library:
                raise ElaborationError(
                    f"module {module.name!r} defined more than once"
                )
            library[module.name] = module
    return library


def elaborate_source(sources: SourceLike, top: Optional[str] = None,
                     params: Optional[Dict[str, int]] = None) -> Design:
    """The flat design of ``top`` in ``sources`` — the last module
    parsed when ``top`` is None — with ``params`` overriding the top
    module's parameters."""
    library = build_library(sources)
    if not library:
        raise ElaborationError("no modules in source")
    if top is None:
        top = next(reversed(library))
    return elaborate(library, top, params)


class Simulator:
    """A ready-to-run simulation of one top-level module.

    Args:
        sources: Verilog source text(s) containing the design.
        top: name of the top module; defaults to the last module parsed.
        params: parameter overrides for the top module.
        seed: seed for ``$random``.
    """

    def __init__(
        self,
        sources: SourceLike,
        top: Optional[str] = None,
        params: Optional[Dict[str, int]] = None,
        seed: int = 0,
    ) -> None:
        self.design: Design = elaborate_source(sources, top, params)
        self.kernel = Kernel(self.design, seed=seed)
        self.kernel.initialize()

    # -- signal access -----------------------------------------------------

    def _find_signal(self, name: str) -> Signal:
        signal = self.design.signals.get(name)
        if signal is None:
            available = ", ".join(sorted(self.design.signals)[:12])
            raise KeyError(
                f"no signal named {name!r} (known: {available}, ...)"
            )
        return signal

    def poke(self, name: str, value: Union[int, Vec4]) -> None:
        """Set a top-level input (or any variable) and propagate."""
        signal = self._find_signal(name)
        if isinstance(value, int):
            value = Vec4.from_int(value, signal.width, signal.signed)
        self.kernel.poke(signal, value)
        self.kernel.settle()

    def peek(self, name: str) -> Vec4:
        """Read the current value of any signal."""
        return self.kernel.read(self._find_signal(name))

    def peek_int(self, name: str) -> int:
        """Read a signal as an unsigned int; raises if it holds x/z."""
        return self.peek(name).to_int()

    def peek_signed(self, name: str) -> int:
        """Read a signal as a signed int; raises if it holds x/z."""
        return self.peek(name).to_signed_int()

    def peek_mem(self, name: str, index: int) -> Vec4:
        """Read one element of a memory."""
        signal = self._find_signal(name)
        return self.kernel.read_mem(signal, index - signal.array_min)

    def settle(self) -> None:
        """Drain delta cycles at the current time."""
        self.kernel.settle()

    # -- clocking ------------------------------------------------------------

    def clock(self, name: str = "clk", cycles: int = 1) -> None:
        """Drive ``cycles`` full clock periods (rising edge first)."""
        signal = self._find_signal(name)
        for _ in range(cycles):
            self.kernel.poke(signal, Vec4.from_int(1, signal.width))
            self.kernel.settle()
            self.kernel.poke(signal, Vec4.from_int(0, signal.width))
            self.kernel.settle()
            if self.kernel.finished:
                return

    def posedge(self, name: str = "clk") -> None:
        """Drive one rising edge (leaves the clock high)."""
        signal = self._find_signal(name)
        self.kernel.poke(signal, Vec4.from_int(0, signal.width))
        self.kernel.settle()
        self.kernel.poke(signal, Vec4.from_int(1, signal.width))
        self.kernel.settle()

    # -- time-based execution (for testbench-style sources) -------------------

    def run(self, max_time: Optional[int] = None) -> None:
        """Run scheduled threads (initial blocks with delays etc.)."""
        self.kernel.run(max_time)

    @property
    def time(self) -> int:
        return self.kernel.time

    @property
    def finished(self) -> bool:
        return self.kernel.finished

    @property
    def output(self) -> List[str]:
        """Lines produced by $display and friends."""
        return self.kernel.display_output

    # -- convenience -----------------------------------------------------------

    @property
    def input_names(self) -> List[str]:
        return sorted(self.design.inputs)

    @property
    def output_names(self) -> List[str]:
        return sorted(self.design.outputs)


__all__ = [
    "Simulator",
    "build_library",
    "SimulationError",
    "StopSimulation",
    "ElaborationError",
    "ParseError",
]
