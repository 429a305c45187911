"""The compiled simulator against the tree-walking reference.

``reference_sim.py`` holds the expression walk and statement
interpreter the compiler replaced.  Both simulators are driven with the
same poke/clock script and must agree on every signal's four-state
pattern and on the steps left in the step budget after every step, on
the exception (type and message, during
construction included), and on ``run_functional_test``'s outcome:
over every corpus family, its operator mutants and a syntax break,
over a corpus of runaways, and over random expressions placed
in a continuous assign, ``always @*`` and ``always @(posedge clk)``.
The per-bit ``Vec4.slice``/``set_slice`` loops are kept here as the
reference for the shift-and-mask versions.
"""

import random
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.eval.functional as functional
from repro.corpus import family_names, generate_design
from repro.corpus.mutate import break_syntax
from repro.dataset.corrupt import operator_mutants
from repro.verilog.parser import ParseError, parse
from repro.verilog.sim.design import ConstBinding, Scope
from repro.verilog.sim.eval import Evaluator, const_evaluator
from repro.verilog.sim.interp import (STEP_BUDGET, SimulationError,
                                     const_function_caller)
from repro.verilog.sim.runtime import Simulator
from repro.verilog.sim.values import Vec4

from . import reference_sim
from .reference_sim import ReferenceSimulator

# -- driving both simulators ---------------------------------------------


def _error(exc):
    return ("error", type(exc).__name__, str(exc))


def _snapshot(sim):
    # Steps left in the budget of the last entry (construction, poke or
    # clock edge): every statement, loop iteration and function step it
    # executed, counted exactly.
    state = {"budget left": sim.kernel.budget.left}
    for name, signal in sorted(sim.design.signals.items()):
        if signal.is_memory:
            state[name] = [sim.peek_mem(name, signal.array_min + i)
                           .to_bit_string()
                           for i in range(signal.array_size)]
        else:
            state[name] = sim.peek(name).to_bit_string()
    return state


def _value(rng, width):
    """A random input value: mostly known, sometimes with x/z bits."""
    if rng.random() < 0.1:
        xz = rng.getrandbits(width) or 1
        return Vec4(width, rng.getrandbits(width), xz,
                    xz & rng.getrandbits(width))
    return rng.getrandbits(width)


def _script(design, seed, steps=10):
    """Pokes of every input, with a clock edge after each round when
    the design has a clock-like input."""
    rng = random.Random(seed)
    clocks = [n for n in design.inputs if n.split(".")[-1] in ("clk",
                                                               "clock")]
    data = [n for n in sorted(design.inputs) if n not in clocks]
    script = [("poke", name, 0) for name in clocks]
    for _ in range(steps):
        for name in data:
            script.append(("poke", name,
                           _value(rng, design.inputs[name].width)))
        for name in clocks:
            script.append(("clock", name, 1))
    return script


def _trace(make, source, script_seed, top=None):
    """Everything observable: state after construction and after every
    step, ending at the first exception."""
    try:
        sim = make(source, top=top)
    except Exception as exc:  # compared, type and message
        return [_error(exc)]
    trace = [_snapshot(sim)]
    for op, name, value in _script(sim.design, script_seed):
        try:
            if op == "poke":
                sim.poke(name, value)
            else:
                sim.clock(name, value)
        except Exception as exc:  # compared, type and message
            trace.append(_error(exc))
            break
        trace.append(_snapshot(sim))
    return trace


def _outcome(monkeypatch, simulator, source, spec):
    monkeypatch.setattr(functional, "Simulator", simulator)
    return functional.run_functional_test(source, spec, n_vectors=16).to_json()


def assert_same_as_reference(monkeypatch, source, spec=None, seed=0):
    assert (_trace(Simulator, source, seed)
            == _trace(ReferenceSimulator, source, seed))
    if spec is not None:
        assert (_outcome(monkeypatch, Simulator, source, spec)
                == _outcome(monkeypatch, ReferenceSimulator, source, spec))


# -- corpus cases ----------------------------------------------------------


#: The two runaway-loop shapes an operator mutant can take: counting down
#: to 0 with a step that adds, or up from 0 with a step that subtracts.
#: Such a mutant runs until its step budget is spent;
#: ``test_runaway_loops_match_reference`` and ``RUNAWAYS`` cover both
#: shapes, so the corpus cases leave them out.
RUNAWAY = re.compile(
    r"for\s*\(\s*(\w+)\s*=[^;]*;\s*\1\s*>=\s*0\s*;\s*\1\s*=\s*\1\s*\+"
    r"|for\s*\(\s*(\w+)\s*=\s*0\s*;\s*\2\s*<[^=;][^;]*;\s*\2\s*=\s*\2\s*-")


def _corpus_cases():
    for family in family_names():
        for point in range(2):
            design = generate_design(family,
                                     random.Random(f"{family}/{point}"))
            yield f"{family}/{point}", design.source, design.spec
            for number, mutant in enumerate(
                    operator_mutants(design.source, max_mutants=64)):
                if not RUNAWAY.search(mutant):
                    yield (f"{family}/{point}/mutant{number}", mutant,
                           design.spec)
            rng = random.Random(f"{family}/{point}/break")
            yield (f"{family}/{point}/broken",
                   break_syntax(design.source, rng).source, design.spec)


CORPUS = {name: (source, spec) for name, source, spec in _corpus_cases()}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_case_matches_reference(monkeypatch, name):
    source, spec = CORPUS[name]
    assert_same_as_reference(monkeypatch, source, spec,
                             seed=sum(map(ord, name)))


#: A population count through a counting function; ``{loop}`` is the
#: loop header, ``{padding}`` empty statements in the loop body.
COUNTING_FUNCTION = """\
module popcount_fn #(parameter WIDTH = 8) (
  input  [WIDTH-1:0] data,
  output [3:0] count
);
  function [3:0] ones;
    input [WIDTH-1:0] value;
    integer i;
    begin
      ones = 0;
      for ({loop}) begin
        ones = ones + value[i];{padding}
      end
    end
  endfunction
  assign count = ones(data);
endmodule
"""


@pytest.mark.parametrize("loop", [
    "i = 0; i < WIDTH; i = i - 1",          # counts up, steps down
    "i = WIDTH - 1; i >= 0; i = i + 1",     # counts down, steps up
])
def test_runaway_loops_match_reference(monkeypatch, loop):
    source = (COUNTING_FUNCTION.replace("{loop}", loop)
              .replace("{padding}", "\n        ;" * 200))
    spec = generate_design("popcount", random.Random(0),
                           params={"WIDTH": 8}).spec
    outcome = _outcome(monkeypatch, Simulator, source, spec)
    assert "step budget exceeded" in outcome
    assert outcome == _outcome(monkeypatch, ReferenceSimulator, source, spec)


#: Runaways a candidate can hold, each the body of a population count:
#: both ``for`` shapes, ``while``, a ``repeat`` too long to finish,
#: ``forever`` in ``always @*``, a runaway function, one that only the
#: first vector's data reaches, and a constant function folded into a
#: parameter during elaboration.
RUNAWAYS = {
    "for counting up, stepping down": """\
  reg [3:0] c;
  integer i;
  initial begin c = 0; for (i = 0; i < 8; i = i - 1) c = c + 1; end
  assign count = c;""",
    "for counting down, stepping up": """\
  reg [3:0] c;
  integer i;
  always @* begin
    c = 0;
    for (i = 7; i >= 0; i = i + 1) c = c + data[i];
  end
  assign count = c;""",
    "while": """\
  reg [3:0] c;
  integer i;
  always @* begin c = 0; i = 0; while (i < 8) c = c + data[i]; end
  assign count = c;""",
    "repeat": """\
  reg [3:0] c;
  initial begin c = 0; repeat (32'h7fffffff) c = c + 1; end
  assign count = c;""",
    "forever in always @*": """\
  reg [3:0] c;
  always @* forever c = data[3:0];
  assign count = c;""",
    "function": """\
  function [3:0] ones;
    input [7:0] v;
    integer i;
    begin
      ones = 0;
      for (i = 0; i < 8; i = i - 1) ones = ones + v[0];
    end
  endfunction
  assign count = ones(data);""",
    "reached by the first vector": """\
  reg [3:0] c;
  always @* begin c = 0; if (^data !== 1'bx) forever c = c + 1; end
  assign count = c;""",
    "constant function": """\
  function [31:0] spin;
    input [31:0] x;
    begin spin = x; while (spin >= 0) spin = spin + 1; end
  endfunction
  localparam P = spin(0);
  assign count = P;""",
}


@pytest.mark.parametrize("name", sorted(RUNAWAYS))
def test_runaway_corpus_matches_reference(monkeypatch, name):
    source = ("module popcount(input [7:0] data, output [3:0] count);\n"
              + RUNAWAYS[name] + "\nendmodule\n")
    spec = generate_design("popcount", random.Random(0),
                           params={"WIDTH": 8}).spec
    outcome = _outcome(monkeypatch, Simulator, source, spec)
    assert '"failure_kind": "budget"' in outcome
    assert "step budget exceeded" in outcome
    assert outcome == _outcome(monkeypatch, ReferenceSimulator, source, spec)


#: A function that spends ``STEP_BUDGET - 97 + {before}`` steps, all in
#: the construction's budget: 3 + ``{before}`` (a run of empty statements
#: charges its length) + 100 per iteration.  96 fits with one step to
#: spare; 97 runs out on the last step.
BUDGET_EDGE = """\
module budget_edge(input [3:0] sel, output [7:0] y);
  function [7:0] spin;
    input [3:0] s;
    integer i;
    begin
      spin = s;{before}
      for (i = 0; i < {iterations}; i = i + 1) begin
        spin = spin + 1;{padding}
      end
    end
  endfunction
  assign y = spin(sel);
endmodule
"""


@pytest.mark.parametrize("before", [96, 97])
def test_function_budget_edge_matches_reference(before):
    source = (BUDGET_EDGE.replace("{before}", "\n      ;" * before)
              .replace("{iterations}", str(STEP_BUDGET // 100 - 1))
              .replace("{padding}", "\n        ;" * 97))
    outcomes = []
    for make in (Simulator, ReferenceSimulator):
        try:
            outcomes.append(_snapshot(make(source)))
        except SimulationError as exc:
            outcomes.append(_error(exc))
    assert outcomes[0] == outcomes[1]
    if before == 96:
        assert outcomes[0]["budget left"] == 1
    else:
        assert outcomes[0] == ("error", "StepBudgetExceeded",
                               f"step budget exceeded ({STEP_BUDGET} steps)")


#: Declarations outside module scope, each the body of a module with an
#: 8-bit input ``x`` and a 32-bit output ``y``: ``time``, ``real`` and a
#: memory local to a named block of ``always @*``, of ``initial`` and of
#: a function, ``function integer`` called and constant-folded, and
#: unnamed blocks that each declare their own ``t``.  Each is shaped by
#: the one declaration rule, as at module level.
DECLARATIONS = {
    "time in always @*": """\
  always @* begin : b
    time t;
    t = {x, 24'h0};
    y_r = t;
  end""",
    "real in always @*": """\
  always @* begin : b
    real t;
    t = {x, 24'h0};
    y_r = t - 1;
  end""",
    "memory in always @*": """\
  always @* begin : b
    reg [7:0] m [0:3];
    m[0] = 8'h11; m[1] = 8'h22; m[2] = 8'h33; m[3] = x;
    y_r = {m[x[1:0]], m[3]};
  end""",
    "time in initial": """\
  initial begin : b
    time t;
    t = {8'hab, 24'h0};
    y_r = t;
  end""",
    "real in initial": """\
  initial begin : b
    real t;
    t = -2;
    y_r = t >>> 1;
  end""",
    "memory in initial": """\
  initial begin : b
    reg [7:0] m [4:1];
    m[1] = 8'h5a; m[4] = 8'ha5;
    y_r = {m[4], m[1], m[2]};
  end""",
    "time, real and memory in a function": """\
  function [31:0] f;
    input [7:0] v;
    begin : b
      time t;
      real r;
      reg [7:0] m [0:1];
      t = {v, 24'h0};
      r = v;
      m[0] = v; m[1] = ~v;
      f = t + r + {m[1], m[0]};
    end
  endfunction
  always @* y_r = f(x);""",
    "function integer, called": """\
  function integer twice;
    input [31:0] v;
    twice = 2 * v;
  endfunction
  always @* y_r = twice(x) + twice(x + 8'd100);""",
    "function integer, constant-folded": """\
  function integer clog2;
    input [31:0] value;
    integer v;
    begin
      v = value - 1;
      for (clog2 = 0; v > 0; clog2 = clog2 + 1) v = v >> 1;
    end
  endfunction
  localparam W = clog2(200);
  always @* y_r = W * 256 + clog2(x);""",
    "sibling unnamed blocks": """\
  reg [3:0] lo;
  always @* begin
    begin reg [3:0] t; t = x[3:0]; lo = t; end
    begin reg [7:0] t; t = x; y_r = {lo, t}; end
  end""",
    "unnamed blocks in two processes": """\
  reg [3:0] lo;
  always @* begin reg [3:0] t; t = x[3:0]; lo = t; end
  always @* begin reg [7:0] t; t = x; y_r = {lo, t}; end""",
}


@pytest.mark.parametrize("name", sorted(DECLARATIONS))
def test_declaration_matches_reference(monkeypatch, name):
    source = ("module decl(input [7:0] x, output [31:0] y);\n"
              "  reg [31:0] y_r;\n  assign y = y_r;\n"
              + DECLARATIONS[name] + "\nendmodule\n")
    trace = _trace(Simulator, source, 0)
    assert not isinstance(trace[-1], tuple), trace[-1]
    assert trace == _trace(ReferenceSimulator, source, 0)


#: Long operator chains, ternary chains and if/else chains: compiling
#: one must not nest deeper than the tree walk evaluating it.
DEEP = {
    "xor chain": "assign y = {};".format(
        " ^ ".join(f"a[{i % 8}]" for i in range(350))),
    "ternary chain": "assign y = {} : 1'b0;".format(" : ".join(
        f"(a == 8'd{i}) ? 1'b{i % 2}" for i in range(300))),
    "if/else chain": "always @* begin {} else y_r = 1'b0; end\n"
                     "  assign y = y_r;".format(" else ".join(
                         f"if (a == 8'd{i}) y_r = 1'b{i % 2};"
                         for i in range(300))),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_nesting_matches_reference(monkeypatch, name):
    source = ("module deep(input [7:0] a, output y);\n  reg y_r;\n  "
              + DEEP[name] + "\nendmodule\n")
    trace = _trace(Simulator, source, 0)
    assert not isinstance(trace[-1], tuple), trace[-1]
    assert trace == _trace(ReferenceSimulator, source, 0)


# -- random expressions ----------------------------------------------------

#: Operands of the random module: name -> (width, signed).
OPERANDS = {"a": (7, False), "b": (13, True), "c": (70, False),
            "d": (1, False), "e": (33, True)}
MEM = "mem"  # reg [8:1] mem [2:5]
UNARY = ["~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"]
BINARY = ["+", "-", "*", "/", "%", "&", "|", "^", "~^", "==", "!=", "===",
          "!==", "<", "<=", ">", ">=", "&&", "||", "<<", ">>", "<<<", ">>>",
          "**"]


@st.composite
def literals(draw):
    width = draw(st.integers(1, 70))
    kind = draw(st.sampled_from(["d", "h", "b", "sd", "sh", "unsized",
                                 "xz"]))
    if kind == "unsized":
        return str(draw(st.integers(0, 300)))
    if kind == "xz":
        bits = draw(st.lists(st.sampled_from("01xz"), min_size=1,
                             max_size=min(width, 12)))
        return f"{len(bits)}'b{''.join(bits)}"
    value = draw(st.integers(0, (1 << width) - 1))
    if kind.endswith("d"):
        return f"{width}'{kind}{value}"
    if kind.endswith("h"):
        return f"{width}'{kind}{value:x}"
    return f"{width}'b{value:b}"


def _index(draw):
    """An index past either end, in range, computed, or x."""
    return draw(st.sampled_from(["0", "1", "3", "6", "12", "69", "70", "99",
                                 "-1", "1'bx", "a[2:0]", "d", "b"]))


@st.composite
def expressions(draw, depth=0):
    leaf = depth >= 3 or draw(st.integers(0, 3)) == 0
    if leaf:
        choice = draw(st.integers(0, 6))
        if choice <= 2:
            return draw(st.sampled_from(sorted(OPERANDS)))
        if choice == 3:
            return draw(literals())
        if choice == 4:
            return f"{MEM}[{_index(draw)}]"
        name = draw(st.sampled_from(sorted(OPERANDS)))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return f"{name}[{_index(draw)}]"
        if kind == 1:
            hi = draw(st.integers(-2, 72))
            lo = draw(st.integers(-2, 72))
            return f"{name}[{hi}:{lo}]"
        return (f"{name}[{_index(draw)} {draw(st.sampled_from(['+:', '-:']))}"
                f" {draw(st.integers(1, 9))}]")
    sub = expressions(depth + 1)
    shape = draw(st.integers(0, 8))
    if shape == 0:
        return f"({draw(st.sampled_from(UNARY))}{draw(sub)})"
    if shape <= 3:
        return f"({draw(sub)} {draw(st.sampled_from(BINARY))} {draw(sub)})"
    if shape == 4:
        cond = draw(st.one_of(sub, st.just("1'bx"), st.just("d")))
        return f"({cond} ? {draw(sub)} : {draw(sub)})"
    if shape == 5:
        parts = draw(st.lists(sub, min_size=1, max_size=3))
        return "{" + ", ".join(parts) + "}"
    if shape == 6:
        return f"{{{draw(st.integers(0, 3))}{{{draw(sub)}}}}}"
    if shape == 7:
        return f"f({draw(sub)}, {draw(sub)})"
    name = draw(st.sampled_from(["$signed", "$unsigned", "$clog2"]))
    return f"{name}({draw(sub)})"


def _module(expr, out_width, out_signed):
    ports = ",\n  ".join(
        f"input {'signed ' if s else ''}[{w - 1}:0] {n}"
        for n, (w, s) in sorted(OPERANDS.items()))
    sign = "signed " if out_signed else ""
    return f"""\
module oracle (
  input clk,
  {ports},
  output {sign}[{out_width - 1}:0] y_assign,
  output reg {sign}[{out_width - 1}:0] y_comb,
  output reg {sign}[{out_width - 1}:0] y_edge
);
  reg [8:1] {MEM} [2:5];
  function signed [11:0] f;
    input [9:0] p;
    input signed [5:0] q;
    begin
      f = p - q;
      if (q[0]) f = f ^ {{p[3:0], q}};
    end
  endfunction
  assign y_assign = {expr};
  always @* y_comb = {expr};
  always @(posedge clk) begin
    y_edge <= {expr};
    {MEM}[a[2:0]] <= c[7:0] ^ b[7:0];
  end
endmodule
"""


_RANDOM = settings(max_examples=400, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@_RANDOM
@given(expr=expressions(), out_width=st.integers(1, 70),
       out_signed=st.booleans(), seed=st.integers(0, 1000))
def test_random_expression_matches_reference(expr, out_width, out_signed,
                                             seed):
    source = _module(expr, out_width, out_signed)
    assert (_trace(Simulator, source, seed)
            == _trace(ReferenceSimulator, source, seed)), source


def _const_scope():
    scope = Scope("")
    for name, (width, signed) in OPERANDS.items():
        scope.bind(name, ConstBinding(
            Vec4.from_int(width * 37 + 5, width, signed)))
    return scope


def _api(evaluator, expr, scope):
    results = []
    for call in (lambda: evaluator.width_of(expr, scope),
                 lambda: evaluator.eval(expr, scope),
                 lambda: evaluator.eval(expr, scope, 80),
                 lambda: evaluator.eval_const_int(expr, scope)):
        try:
            value = call()
        except Exception as exc:  # compared, type and message
            results.append(_error(exc))
            continue
        if isinstance(value, Vec4):
            value = (value.to_bit_string(), value.signed)
        results.append(value)
    return results


@_RANDOM
@given(expr=expressions())
def test_constant_evaluator_matches_reference(expr):
    """Elaboration and formal call ``width_of``/``eval``/
    ``eval_const_int`` one expression at a time over constants."""
    try:
        module = parse(f"module m; localparam P = {expr}; endmodule").modules[0]
    except ParseError:
        assume(False)
    tree = module.parameters[0].value
    scope = _const_scope()
    reference = reference_sim.Evaluator(
        reference_sim.ConstStore(),
        lambda binding, args: reference_sim.run_function(
            binding, args, reference_sim.ConstStore()))
    assert (_api(const_evaluator(const_function_caller), tree, scope)
            == _api(reference, tree, scope))
    assert (_api(Evaluator(reference_sim.ConstStore()), tree, scope)
            == _api(reference_sim.Evaluator(reference_sim.ConstStore()),
                    tree, scope))


# -- Vec4 slices -------------------------------------------------------------


def _slice_by_bits(vec, high, low):
    width = high - low + 1
    if low >= vec.width or high < 0:
        return Vec4.all_x(width)
    val = xz = z = 0
    extra_x = 0
    for offset in range(width):
        pos = low + offset
        bit = 1 << offset
        if pos < 0 or pos >= vec.width:
            extra_x |= bit
            continue
        src = 1 << pos
        if vec.val & src:
            val |= bit
        if vec.xz & src:
            xz |= bit
        if vec.z & src:
            z |= bit
    return Vec4(width, val, xz | extra_x, z, False)


def _set_slice_by_bits(vec, high, low, value):
    width = high - low + 1
    value = value.resize(width, False)
    val, xz, z = vec.val, vec.xz, vec.z
    for offset in range(width):
        pos = low + offset
        if pos < 0 or pos >= vec.width:
            continue
        dst = 1 << pos
        src = 1 << offset
        val &= ~dst
        xz &= ~dst
        z &= ~dst
        if value.val & src:
            val |= dst
        if value.xz & src:
            xz |= dst
        if value.z & src:
            z |= dst
    return Vec4(vec.width, val, xz, z, vec.signed)


@st.composite
def vectors(draw, max_width=130):
    width = draw(st.integers(1, max_width))
    xz = draw(st.sampled_from([0, (1 << width) - 1,
                               draw(st.integers(0, (1 << width) - 1))]))
    return Vec4(width, draw(st.integers(0, (1 << width) - 1)), xz,
                xz & draw(st.integers(0, (1 << width) - 1)),
                draw(st.booleans()))


def _same(a, b):
    return a == b and a.signed == b.signed


@settings(max_examples=400, deadline=None)
@given(vec=vectors(), value=vectors(), low=st.integers(-20, 150),
       span=st.integers(0, 150))
def test_slices_match_per_bit_loops(vec, value, low, span):
    high = low + span
    assert _same(vec.slice(high, low), _slice_by_bits(vec, high, low))
    assert _same(vec.set_slice(high, low, value),
                 _set_slice_by_bits(vec, high, low, value))
