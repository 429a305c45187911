"""One declaration rule and one select rule for every engine.

A declaration is shaped the same wherever it appears: at module level,
in a named block of module code or of a function, as a function's
return value, and in the formal checker.  Selects map declared indices
to bit positions through one rule on reads, writes and in formal.
"""

import pytest

from repro.verilog import ast_nodes as ast
from repro.verilog.formal import check_equivalence, verify_design
from repro.verilog.sim.design import (ElaborationError, Signal,
                                      declared_signal)
from repro.verilog.sim.eval import indexed_bounds, part_bounds
from repro.verilog.sim.runtime import Simulator


def _output(source, **inputs):
    sim = Simulator(source)
    for name, value in inputs.items():
        sim.poke(name, value)
    return sim.peek_int("y")


#: ``{kind} t`` declared in module code ({where}), assigned an 8-bit
#: input shifted into bits 31:24 and copied to a 32-bit output.
MODULE_LEVEL = """\
module m(input [7:0] x, output reg [31:0] y);
  {kind} t;
  always @* begin
    t = {{x, 24'h0}};
    y = t;
  end
endmodule
"""

IN_BLOCK = {
    "always @*": """\
module m(input [7:0] x, output reg [31:0] y);
  always @* begin : b
    {kind} t;
    t = {{x, 24'h0}};
    y = t;
  end
endmodule
""",
    "initial": """\
module m(input [7:0] x, output reg [31:0] y);
  initial begin : b
    {kind} t;
    t = {{8'hab, 24'h0}};
    y = t;
  end
endmodule
""",
    "function": """\
module m(input [7:0] x, output [31:0] y);
  function [31:0] f;
    input [7:0] v;
    begin : b
      {kind} t;
      t = {{v, 24'h0}};
      f = t;
    end
  endfunction
  assign y = f(x);
endmodule
""",
}


@pytest.mark.parametrize("kind", ["time", "real"])
@pytest.mark.parametrize("where", sorted(IN_BLOCK))
def test_block_local_fixed_kinds_are_sized_as_at_module_level(kind, where):
    source = IN_BLOCK[where].format(kind=kind)
    assert _output(source, x=0xab) == 0xab000000
    assert _output(MODULE_LEVEL.format(kind=kind), x=0xab) == 0xab000000


@pytest.mark.parametrize("kind", ["time", "real"])
def test_block_local_and_module_level_designs_are_equivalent(kind):
    report = check_equivalence(IN_BLOCK["always @*"].format(kind=kind),
                               MODULE_LEVEL.format(kind=kind))
    assert report.status == "equivalent", report.detail


BLOCK_MEMORY = """\
module m(input [1:0] a, output reg [7:0] y);
  always @* begin : b
    reg [7:0] mem [0:3];
    mem[0] = 8'h11; mem[1] = 8'h22; mem[2] = 8'h33; mem[3] = 8'h44;
    y = mem[a];
  end
endmodule
"""


def test_block_local_memory_holds_every_element():
    assert [_output(BLOCK_MEMORY, a=a) for a in range(4)] == [
        0x11, 0x22, 0x33, 0x44]


def test_formal_still_rejects_block_local_memory():
    report = verify_design(BLOCK_MEMORY)
    assert (report.status, report.detail) == ("unsupported",
                                              "local memory 'mem'")


INTEGER_FUNCTIONS = """\
module m(input [31:0] x, output [31:0] y, output [31:0] w, output n);
  function integer clog2;
    input [31:0] value;
    integer v;
    begin
      v = value - 1;
      for (clog2 = 0; v > 0; clog2 = clog2 + 1) v = v >> 1;
    end
  endfunction
  function integer twice;
    input [31:0] value;
    twice = 2 * value;
  endfunction
  localparam W = clog2(200);
  assign w = W;
  assign y = twice(x);
  assign n = twice(x) < 0;
endmodule
"""


def test_function_integer_returns_a_32_bit_signed_integer():
    sim = Simulator(INTEGER_FUNCTIONS)
    sim.poke("x", 100)
    assert sim.peek_int("w") == 8
    assert (sim.peek_int("y"), sim.peek_int("n")) == (200, 0)
    sim.poke("x", 0xFFFFFFF0)
    assert (sim.peek_int("y"), sim.peek_int("n")) == (0xFFFFFFE0, 1)


def test_parser_keeps_function_return_kind():
    from repro.verilog.parser import parse
    items = parse(INTEGER_FUNCTIONS).modules[0].items
    kinds = {item.name: item.kind for item in items
             if isinstance(item, ast.FunctionDecl)}
    assert kinds == {"clog2": "integer", "twice": "integer"}


#: The clog2 idiom with an ``integer`` function input, in both port
#: forms, and a sign test through the same kind of input.
INTEGER_INPUTS = {
    "old style": """\
  function integer clog2;
    input integer value;
    integer v;
    begin
      v = value - 1;
      for (clog2 = 0; v > 0; clog2 = clog2 + 1) v = v >> 1;
    end
  endfunction
  function negative;
    input integer value;
    negative = value < 0;
  endfunction""",
    "ANSI": """\
  function integer clog2(input integer value);
    integer v;
    begin
      v = value - 1;
      for (clog2 = 0; v > 0; clog2 = clog2 + 1) v = v >> 1;
    end
  endfunction
  function negative(input integer value);
    negative = value < 0;
  endfunction""",
}

CLOG2_MODULE = """\
module m(input [31:0] x, output [31:0] w, output n);
{functions}
  localparam W = clog2(200);
  assign w = W;
  assign n = negative(x);
endmodule
"""

CLOG2_FOLDED = """\
module m(input [31:0] x, output [31:0] w, output n);
  assign w = 8;
  assign n = x[31];
endmodule
"""


@pytest.mark.parametrize("form", sorted(INTEGER_INPUTS))
def test_integer_function_inputs_are_32_bit_signed(form):
    from repro.verilog.parser import parse
    source = CLOG2_MODULE.format(functions=INTEGER_INPUTS[form])
    functions = [item for item in parse(source).modules[0].items
                 if isinstance(item, ast.FunctionDecl)]
    assert [decl.kind for f in functions for decl in f.inputs] == [
        "integer", "integer"]
    sim = Simulator(source)
    sim.poke("x", 5)
    assert (sim.peek_int("w"), sim.peek_int("n")) == (8, 0)
    sim.poke("x", 0xFFFFFFF0)
    assert sim.peek_int("n") == 1
    # Formal folds clog2 but models no call of non-constant arguments.
    report = check_equivalence(
        source.replace("negative(x)", "x[31]"), CLOG2_FOLDED)
    assert report.status == "equivalent", report.detail


#: Unnamed blocks that each declare their own ``t``: siblings in one
#: process, and one block in each of two processes.
UNNAMED_BLOCKS = {
    "siblings": """\
module m(input [7:0] a, output reg [3:0] z, output reg [7:0] y);
  always @* begin
    begin reg [3:0] t; t = a[3:0]; z = t; end
    begin reg [7:0] t; t = a; y = t; end
  end
endmodule
""",
    "two processes": """\
module m(input [7:0] a, output reg [3:0] z, output reg [7:0] y);
  always @* begin reg [3:0] t; t = a[3:0]; z = t; end
  always @* begin reg [7:0] t; t = a; y = t; end
endmodule
""",
}

UNNAMED_DIRECT = """\
module m(input [7:0] a, output reg [3:0] z, output reg [7:0] y);
  always @* begin z = a[3:0]; y = a; end
endmodule
"""


@pytest.mark.parametrize("case", sorted(UNNAMED_BLOCKS))
def test_each_unnamed_block_declares_its_own_variables(case):
    source = UNNAMED_BLOCKS[case]
    sim = Simulator(source)
    sim.poke("a", 0xab)
    assert (sim.peek_int("y"), sim.peek_int("z")) == (0xab, 0xb)
    assert verify_design(source).status == "verified"
    report = check_equivalence(source, UNNAMED_DIRECT)
    assert report.status == "equivalent", report.detail


def _const(value):
    return ast.Number(width=None, value=value, text=str(value))


def test_declared_signal_shapes():
    def shape(decl):
        signal = declared_signal(decl, "s", lambda expr: expr.value)
        return (signal.width, signal.signed, signal.msb, signal.lsb,
                signal.array_size, signal.array_min)
    rng = ast.Range(msb=_const(3), lsb=_const(6))
    assert shape(ast.Decl(kind="integer", range=rng)) == (32, True, 31, 0,
                                                          0, 0)
    assert shape(ast.Decl(kind="time", signed=True)) == (32, False, 31, 0,
                                                         0, 0)
    assert shape(ast.Decl(kind="real")) == (64, True, 63, 0, 0, 0)
    assert shape(ast.Decl(kind="reg", range=rng, signed=True)) == (
        4, True, 3, 6, 0, 0)
    assert shape(ast.Decl(kind="reg", array_dims=[rng])) == (1, False, 0, 0,
                                                              4, 3)
    assert shape(ast.FunctionDecl(kind="reg")) == (1, False, 0, 0, 0, 0)
    with pytest.raises(ElaborationError, match="multi-dimensional"):
        shape(ast.Decl(kind="reg", name="m", array_dims=[rng, rng]))


@pytest.mark.parametrize("msb, lsb, select, bounds", [
    (7, 0, "[5:2]", (5, 2)), (7, 0, "[2:5]", (5, 2)),
    (0, 7, "[2:5]", (5, 2)), (0, 7, "[5:2]", (5, 2)),
    (15, 8, "[13:10]", (5, 2)), (8, 15, "[10:13]", (5, 2)),
    (7, 0, "[2 +: 3]", (4, 2)), (7, 0, "[4 -: 3]", (4, 2)),
    (0, 7, "[2 +: 3]", (5, 3)), (0, 7, "[4 -: 3]", (5, 3)),
    (15, 8, "[10 +: 4]", (5, 2)), (8, 15, "[13 -: 4]", (5, 2)),
])
def test_select_bounds_on_reads_writes_and_formal(msb, lsb, select, bounds):
    """``part_bounds``/``indexed_bounds`` give the physical bits, and
    the simulator's reads and writes and the formal checker use them."""
    signal = Signal(name="s", width=8, msb=msb, lsb=lsb)
    if ":" in select and "+" not in select and "-" not in select:
        first, last = map(int, select[1:-1].split(":"))
        assert part_bounds(signal, first, last) == bounds
    else:
        start, width = (int(part) for part in select[1:-1].replace(
            "+", "").replace("-", "").split(":"))
        assert indexed_bounds(signal, start, width, "+" in select) == bounds
    source = f"""\
module m(input [{msb}:{lsb}] a, output [7:0] y, output [7:0] z);
  reg [{msb}:{lsb}] w;
  always @* begin w = 8'h00; w{select} = 4'hf; end
  assign y = a{select};
  assign z = w;
endmodule
"""
    hi, lo = bounds
    sim = Simulator(source)
    sim.poke("a", 0b10110110)
    assert sim.peek_int("y") == (0b10110110 >> lo) & ((1 << hi - lo + 1) - 1)
    assert sim.peek_int("z") == ((1 << hi - lo + 1) - 1) << lo
    same_bits = ("module m(input [7:0] a, output [7:0] y, output [7:0] z);\n"
                 f"  assign y = a[{hi}:{lo}];\n  assign z = {{8{{1'b0}}}} |"
                 f" ({{{hi - lo + 1}{{1'b1}}}} << {lo});\nendmodule\n")
    assert check_equivalence(source, same_bits).status == "equivalent"
