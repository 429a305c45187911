"""Drive the four-state Verilog simulator directly.

Shows the substrate the evaluation platform is built on: compile a
small SoC-flavoured design (a FIFO-buffered pulse generator with an
FSM) and interact with it cycle by cycle from Python — poke inputs,
clock it, peek anywhere in the hierarchy.

    python examples/simulate_design.py
    python examples/simulate_design.py --report-json waveform.json

Exits non-zero when the pulse count differs from the queued widths.

Shared flags (see ``_cli.py``): ``--report-json`` writes the pulse
waveform trace; ``--trace-json`` writes the merged run report with the
compile and simulate spans.  ``--seed`` varies the queued pulse widths.
"""

import random
import sys

import _cli
from repro.verilog import Simulator

DESIGN = """
// A pulse FIFO: writes queue pulse widths; the player FSM pops one
// width at a time and holds 'pulse' high for that many cycles.
module pulse_fifo #(
  parameter DEPTH = 4,
  parameter W = 4
) (
  input  clk,
  input  rst,
  input  wr,
  input  [W-1:0] width,
  output reg pulse,
  output busy,
  output full
);

  reg [W-1:0] mem [0:DEPTH-1];
  reg [2:0] wp, rp;
  wire [2:0] count = wp - rp;
  wire empty = (count == 0);
  assign full = (count == DEPTH);

  localparam IDLE = 1'b0;
  localparam PLAY = 1'b1;
  reg state;
  reg [W-1:0] remaining;
  assign busy = (state == PLAY);

  always @(posedge clk) begin
    if (rst) begin
      wp <= 0;
      rp <= 0;
      state <= IDLE;
      pulse <= 1'b0;
      remaining <= 0;
    end else begin
      if (wr && !full) begin
        mem[wp[1:0]] <= width;
        wp <= wp + 1'b1;
      end
      case (state)
        IDLE: begin
          pulse <= 1'b0;
          if (!empty) begin
            remaining <= mem[rp[1:0]];
            rp <= rp + 1'b1;
            state <= PLAY;
          end
        end
        PLAY: begin
          pulse <= 1'b1;
          if (remaining <= 1)
            state <= IDLE;
          else
            remaining <= remaining - 1'b1;
        end
      endcase
    end
  end

endmodule
"""


def main() -> None:
    args = _cli.build_parser(
        "Drive the four-state Verilog simulator directly",
        default_seed=0).parse_args()
    obs = _cli.observability_from(args)
    _cli.note_unused_store(args)
    _cli.note_unused_families(args)
    _cli.note_unused_cache(args)
    if args.parallel:
        print("(--parallel: simulation is cycle-sequential; ignored)")

    with obs.span("example.compile", top="pulse_fifo"):
        sim = Simulator(DESIGN, top="pulse_fifo")
    print("inputs :", sim.input_names)
    print("outputs:", sim.output_names)

    # Reset.
    sim.poke("clk", 0)
    sim.poke("rst", 1)
    sim.poke("wr", 0)
    sim.poke("width", 0)
    sim.clock("clk", 2)
    sim.poke("rst", 0)

    # Queue three pulse widths (seed-varied).  The player starts as
    # soon as the first entry lands, so tracing starts here too.
    rng = random.Random(args.seed)
    widths = [rng.randint(1, 4) for _ in range(3)]
    trace = []
    with obs.span("example.simulate", widths=widths) as span:
        for width in widths:
            sim.poke("wr", 1)
            sim.poke("width", width)
            sim.clock("clk")
            trace.append(sim.peek_int("pulse"))
        sim.poke("wr", 0)

        print("\ncycle | pulse busy | fsm state  remaining")
        for cycle in range(14):
            sim.clock("clk")
            pulse = sim.peek_int("pulse")
            busy = sim.peek_int("busy")
            state = sim.peek_int("state")       # peek internal registers
            remaining = sim.peek("remaining")   # may be x before first load
            trace.append(pulse)
            print(f"{cycle:5d} |   {pulse}    {busy}   |    "
                  f"{'PLAY' if state else 'IDLE'}     "
                  f"{remaining.to_bit_string()}")
        span.meta["n_cycles"] = len(trace)

    print("\npulse waveform:", "".join("▇" if p else "_" for p in trace))
    expected = sum(widths)
    print(f"high cycles: {sum(trace)} (expected {expected} across "
          "three pulses)")

    _cli.write_report(args, {"widths": widths, "pulse_trace": trace,
                             "high_cycles": sum(trace),
                             "expected": expected})
    _cli.write_trace(args, obs, example="simulate_design")
    if sum(trace) != expected:
        sys.exit(f"error: {sum(trace)} high cycles, expected {expected}")


if __name__ == "__main__":
    main()
