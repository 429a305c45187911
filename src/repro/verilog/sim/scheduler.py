"""Event-driven simulation kernel.

The kernel owns the elaborated design's runtime state (signal values,
memories, net driver contributions) and implements the stratified event
queue of IEEE 1364: an *active* region of runnable processes, an *NBA*
region of pending non-blocking updates, and a time wheel of suspended
threads.  One call to :meth:`settle` drains the current simulation time
(active → NBA → active …); :meth:`run` moves time forward from one
scheduled thread event to the next.  Each of :meth:`initialize`,
:meth:`settle` and :meth:`run` is one entry into Verilog execution,
with a fresh :class:`~.interp.StepBudget`.

Process kinds:

* ``CombProcess`` — continuous assigns and level-sensitive always
  blocks; re-run whenever a signal in their sensitivity set changes.
  Continuous assigns drive *nets* through per-driver contributions that
  are resolved (z = released, conflicting known values = x).
* ``EdgeProcess`` — edge-triggered always blocks; run atomically when a
  matching edge occurs; their non-blocking assignments land in the NBA
  region.
* ``InitialProcess`` / ``TimedAlwaysProcess`` — generator-based threads
  that may suspend on ``#`` delays, ``@`` events, and ``wait``.

The kernel compiles every process once, when it is constructed, with
one :class:`~.interp.Compiler` (function bodies on their first call);
the compiled closures read and write the kernel's tables directly.
They live here and nowhere else: the AST is shared read-only between
designs, and a :class:`~.design.Design` is pickled into caches.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Sequence, Set, Tuple

from .. import ast_nodes as ast
from .design import (
    CombProcess,
    Design,
    EdgeProcess,
    InitialProcess,
    Scope,
    Signal,
    SignalBinding,
    TimedAlwaysProcess,
    declared_signal,
)
from .eval import constant
from .interp import (
    STEP_BUDGET,
    Compiler,
    SimulationError,
    StepBudget,
    StopSimulation,
    WriteOp,
    _suspends,
    compile_lvalue,
    split_value_for_ops,
)
from .values import Vec4

#: Cap on process activations within one simulation time before the
#: kernel declares a combinational oscillation.
MAX_ACTIVATIONS_PER_SLOT = 20_000

#: Default cap on simulated time.
MAX_SIM_TIME = 10_000_000


def _is_posedge(old: str, new: str) -> bool:
    return old != new and (old == "0" or new == "1")


def _is_negedge(old: str, new: str) -> bool:
    return old != new and (old == "1" or new == "0")


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

        #: Index of the always-block comb process currently executing.
        #: Its own blocking writes must not retrigger it (the @* control
        #: re-arms only after the body completes — LRM 9.7.5).
        self._running_always: Optional[int] = None

        for signal in design.signals.values():
            self._init_signal(signal)
        self._index_processes()
        #: The steps left to the current entry (construction, one
        #: settle or one run), refilled as each entry starts.
        self.budget = StepBudget()
        #: Frame of module-level code: slot 0 is the machine it charges.
        self._frame: list = [self.budget]
        self.compiler = Compiler(self, self)
        #: Per process: its compiled body (comb and edge processes) or
        #: generator function (threads).
        self._compiled = list(map(self._compile_process, design.processes))

    # -- store interface (used by compiled code and Simulator) ----------------

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

    def reader(self, signal: Signal):
        """Compiled read of ``signal`` (see :mod:`.eval`)."""
        values, name = self._values, signal.name
        if name in values:
            return lambda fr: values[name]
        width, signed = signal.width, signal.signed

        def read_missing(fr):
            value = values.get(name)
            return value if value is not None else Vec4.all_x(width, signed)
        return read_missing

    def mem_reader(self, signal: Signal):
        """Compiled read of one element of memory ``signal``."""
        mem = self._memories.get(signal.name)
        width = signal.width
        if mem is None:
            return lambda fr, index: Vec4.all_x(width)
        size = len(mem)

        def read_element(fr, index):
            if 0 <= index < size:
                return mem[index]
            return Vec4.all_x(width)
        return read_element

    def now(self) -> int:
        return self.time

    def random(self) -> int:
        self._rng_state = (
            self._rng_state * 6364136223846793005 + 1442695040888963407
        ) & ((1 << 64) - 1)
        return (self._rng_state >> 24) & 0xFFFFFFFF

    # -- interface used by compiled code -------------------------------------

    def writer(self, ops: List[WriteOp], blocking: bool):
        """fn(frame, value) assigning through fixed ``ops``."""
        if not blocking:
            return lambda fr, value: self._nba.append((ops, value))
        if len(ops) == 1:
            op = ops[0]
            signal = op.signal
            if (not op.oob and op.mem_index is None and signal.kind == "var"
                    and op.hi == signal.width - 1 and op.lo == 0
                    and signal.name in self._values):
                return self._whole_writer(signal)
        return lambda fr, value: self.write(ops, value, True)

    def _whole_writer(self, signal: Signal):
        """Blocking write of a whole variable: ``_apply_write`` of the
        value's low ``width`` bits, with the variable's signedness."""
        values, notify = self._values, self._notify_change
        name, width, signed = signal.name, signal.width, signal.signed

        def write_whole(fr, value):
            if value.width < width:
                value = value.resize(width)
            current = values[name]
            new = Vec4(width, value.val, value.xz, value.z, signed)
            if (new.val != current.val or new.xz != current.xz
                    or new.z != current.z):
                values[name] = new
                notify(name, current, new)
        return write_whole

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
        signal = self._local_signals.get(key)
        if signal is None:
            signal = self._local_signals[key] = declared_signal(
                decl, key, lambda expr: self.compiler.module.frame_int(
                    expr, scope, self._frame))
            self._init_signal(signal)
        scope.bind(decl.name, SignalBinding(signal=signal))

    def system_task_fn(self, stmt: ast.SystemTaskCall, scope: Scope):
        """Compiled ``$display`` and friends: a no-argument closure.
        Arguments are read as module code reads them, also when the
        task runs inside a function."""
        name = stmt.name
        if name in ("$display", "$write", "$strobe", "$monitor",
                    "$displayb", "$displayh", "$error", "$warning",
                    "$info", "$fatal"):
            output, frame = self.display_output, self._frame
            args = [constant(a.value) if isinstance(a, ast.StringLiteral)
                    else self.compiler.module.expr(a, scope)
                    for a in stmt.args]
            fmt = (stmt.args[0].value
                   if stmt.args and isinstance(stmt.args[0], ast.StringLiteral)
                   else None)

            def display():
                values = [arg(frame) for arg in args]
                if fmt is not None:
                    output.append(_format_verilog(fmt, values[1:], self.time))
                else:
                    output.append(_format_values(values))
                if name == "$fatal":
                    raise StopSimulation("$fatal")
            return display
        if name in ("$finish", "$stop"):
            def stop():
                raise StopSimulation(name)
            return stop
        if name in ("$readmemh", "$readmemb", "$dumpfile", "$dumpvars",
                    "$dumpon", "$dumpoff", "$timeformat", "$monitoron",
                    "$monitoroff", "$random", "$srandom"):
            return lambda: None  # accepted and ignored

        def unsupported():
            raise SimulationError(f"unsupported system task {name!r}")
        return unsupported

    # -- initialisation ------------------------------------------------------

    def _init_signal(self, signal: Signal) -> None:
        """A signal's time-zero value: undriven nets z, the rest x."""
        if signal.is_memory:
            self._memories[signal.name] = [
                Vec4.all_x(signal.width, signal.signed)
                for _ in range(signal.array_size)
            ]
        elif signal.kind == "net" and signal.name not in self.design.inputs:
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

    def _compile_process(self, proc):
        compiler = self.compiler
        if isinstance(proc, CombProcess) and proc.assign is not None:
            return self._compile_assign(proc)
        if isinstance(proc, (CombProcess, EdgeProcess)):
            return compiler.atomic(proc.body, proc.scope)
        return compiler.thread(proc.body, proc.scope)

    def initialize(self) -> None:
        """Time-zero start-up: run every comb process once, launch
        threads, then settle."""
        self.budget.left = STEP_BUDGET
        for index, proc in enumerate(self.design.processes):
            if isinstance(proc, CombProcess):
                self._schedule_proc(index)
        for index, proc in enumerate(self.design.processes):
            if isinstance(proc, (InitialProcess, TimedAlwaysProcess)):
                thread = _Thread(
                    self._compiled[index](self._frame), index,
                    restart_body=isinstance(proc, TimedAlwaysProcess),
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
        if len(contribs) == 1:
            # One driver: its contribution, with the net's signedness.
            (only,) = contribs.values()
            return Vec4(signal.width, only.val, only.xz, only.z,
                        signal.signed)
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

    def _compile_assign(self, proc: CombProcess):
        """A continuous assignment: nets take a driver contribution
        (resolved against their other drivers), variables a write."""
        target, value_expr = proc.assign
        xc = self.compiler.module
        ops, ops_fn = compile_lvalue(xc, target,
                                     proc.target_scope or proc.scope)
        driver_id = proc.driver_id

        def value_at(total: int):
            value, _ = xc.compile(value_expr, proc.scope, total)

            def assigned(fr):
                v = value(fr)
                if v.width < total:
                    v = v.resize(total, v.signed)
                return v
            return assigned

        def drive(resolved, v):
            for op, piece in zip(resolved, split_value_for_ops(v, resolved)):
                if op.oob:
                    continue
                if op.signal.kind == "net" and (
                    op.signal.name not in self.design.inputs
                ):
                    contribution = self._contribution_for(op, piece)
                    self._set_driver(op.signal, driver_id, contribution)
                else:
                    self._apply_write(op, piece)
        if ops is None:
            cache = {}

            def assign_dynamic(fr):
                resolved = ops_fn(fr)
                total = sum(op.width for op in resolved)
                value = cache.get(total)
                if value is None:
                    value = cache[total] = value_at(total)
                drive(resolved, value(fr))
            return assign_dynamic
        value = value_at(sum(op.width for op in ops))
        if len(ops) == 1:
            op = ops[0]
            signal = op.signal
            if (not op.oob and op.hi == signal.width - 1 and op.lo == 0
                    and signal.kind == "net"
                    and signal.name not in self.design.inputs):
                width, set_driver = signal.width, self._set_driver

                def drive_whole(fr):
                    v = value(fr)
                    set_driver(signal, driver_id,
                               Vec4(width, v.val, v.xz, v.z))
                return drive_whole
        return lambda fr: drive(ops, value(fr))

    @staticmethod
    def _contribution_for(op: WriteOp, piece: Vec4) -> Vec4:
        """Full-width driver contribution: z outside the driven slice."""
        signal = op.signal
        base = Vec4.all_z(signal.width)
        if op.hi == signal.width - 1 and op.lo == 0:
            resized = piece.resize(signal.width)
            return Vec4(signal.width, resized.val, resized.xz, resized.z)
        return base.set_slice(op.hi, op.lo, piece)

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
                thread.gen = self._compiled[thread.proc_index](self._frame)
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
        self.budget.left = STEP_BUDGET
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
                            self._compiled[entry](self._frame)
                        finally:
                            self._running_always = None
                    elif isinstance(proc, EdgeProcess):
                        self._compiled[entry](self._frame)
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
        self.budget.left = STEP_BUDGET
        self._settle()
        while not self.finished and self._timewheel:
            if self._timewheel[0][0] > limit:
                return
            self._advance()



def _format_values(values: List) -> str:
    """``$display`` of arguments with no format string."""
    parts = []
    for value in values:
        if isinstance(value, str):
            parts.append(value)
        elif value.has_unknown:
            parts.append(value.to_bit_string())
        else:
            parts.append(str(value.signed_value()))
    return " ".join(parts)


def _format_verilog(fmt: str, values: List, time: int) -> str:
    """Subset of $display format handling: %d %b %h %o %c %s %t %m %%."""
    out: List[str] = []
    value_iter = iter(values)
    index = 0
    while index < len(fmt):
        ch = fmt[index]
        if ch != "%":
            out.append(ch)
            index += 1
            continue
        index += 1
        # Optional width / zero flags.
        width_txt = ""
        while index < len(fmt) and (fmt[index].isdigit()):
            width_txt += fmt[index]
            index += 1
        if index >= len(fmt):
            out.append("%")
            break
        spec = fmt[index].lower()
        index += 1
        if spec == "%":
            out.append("%")
            continue
        if spec == "m":
            out.append("top")
            continue
        if spec == "t":
            out.append(str(time))
            continue
        try:
            value = next(value_iter)
        except StopIteration:
            out.append("%" + spec)
            continue
        if isinstance(value, str):
            out.append(value)
            continue
        if spec == "d":
            if value.has_unknown:
                text = "x"
            else:
                text = str(value.signed_value())
        elif spec == "b":
            text = value.to_bit_string()
        elif spec in ("h", "x"):
            text = _radix_text(value, 4)
        elif spec == "o":
            text = _radix_text(value, 3)
        elif spec == "c":
            text = chr(value.val & 0xFF) if not value.has_unknown else "x"
        elif spec == "s":
            raw = value.val
            chars = []
            while raw:
                chars.append(chr(raw & 0xFF))
                raw >>= 8
            text = "".join(reversed(chars))
        else:
            text = value.to_bit_string()
        if width_txt and width_txt != "0":
            text = text.rjust(int(width_txt))
        out.append(text)
    return "".join(out)


def _radix_text(value: Vec4, bits_per_digit: int) -> str:
    digits: List[str] = []
    width = value.width
    pos = 0
    while pos < width:
        hi = min(pos + bits_per_digit - 1, width - 1)
        chunk = value.slice(hi, pos)
        if chunk.xz:
            if chunk.z == chunk.xz and chunk.val == 0:
                digits.append("z")
            else:
                digits.append("x")
        else:
            digits.append(format(chunk.val, "x"))
        pos += bits_per_digit
    return "".join(reversed(digits))
