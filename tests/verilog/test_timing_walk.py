"""Whether a thread can suspend is decided by one walk.

The statement compiler asks it of every statement of an ``initial`` or
timed ``always`` body (compile it as a generator or as a plain call?),
and the kernel asks it when such an ``always`` body returns (does the
body hold a timing control to wait on, or would it spin?).  Timing
inside a called task counts, nesting depth does not matter, and a task
that calls itself ends the walk.
"""

from repro.verilog import Simulator


def _waveform(items: str, until: int = 40):
    sim = Simulator(f"""
        module tb;
          reg q;
          initial q = 0;
          {items}
        endmodule""")
    wave = []
    for time in range(until + 1):
        sim.run(time)
        wave.append(sim.peek("q").to_bit_string())
    return wave


def test_always_calling_a_timed_task_runs_like_the_inline_body():
    inline = _waveform("always #5 q = ~q;")
    assert _waveform("""
          task tick;
            #5 q = ~q;
          endtask
          always tick;""") == inline
    assert inline[:12] == ["0"] * 5 + ["1"] * 5 + ["0"] * 2


def test_timing_control_deep_in_an_initial_block_suspends():
    for depth in (60, 70):
        sim = Simulator(f"""
            module tb;
              reg q;
              initial {"begin " * depth}q = 0; #1 q = 1;{" end" * depth}
            endmodule""")
        assert sim.peek_int("q") == 0
        sim.run()
        assert sim.time == 1
        assert sim.peek_int("q") == 1


def test_recursive_task_still_simulates():
    sim = Simulator("""
        module tb;
          reg [7:0] q;
          task bump;
            input [7:0] n;
            if (n > 0) begin
              q = q + 1;
              bump(n - 1);
            end
          endtask
          initial begin q = 0; bump(3); end
        endmodule""")
    sim.run()
    assert sim.peek_int("q") == 3
