"""repro.resilience — fault injection, retry/backoff, and
checkpoint/resume for curation, store I/O, and evaluation.

The runtime follows the :mod:`repro.obs` shape: build one
:class:`Resilience` handle, pass it down a run (the
:class:`~repro.core.PyraNet` facade forwards it everywhere), and code
that receives none falls back to a shared disabled instance via
:func:`resolve` — a single production code path, no test branching.

    from repro.resilience import Resilience, RetryPolicy, Checkpointer

    resilience = Resilience(
        retry=RetryPolicy(max_attempts=4, base_delay_s=0.01),
        checkpointer=Checkpointer("runs/ckpt/run-7"),
    )
    pipeline = CurationPipeline(resilience=resilience)

Killed mid-run?  Re-running the identical pipeline with the same
checkpointer resumes from the journal and produces byte-identical
output; ``resilience.report()`` says what was retried, quarantined,
tripped, and resumed.
"""

from .atomic import atomic_write_bytes, fsync_dir
from .checkpoint import Checkpointer, ResumeState, run_signature
from .errors import CheckpointError, CircuitOpenError, ResilienceError
from .faults import (FaultPlan, FaultRule, SimulatedCrash, TransientFault,
                     flip_shard_byte, register_fault_exception)
from .retry import (BreakerConfig, CircuitBreaker, NO_RETRY, NullBreaker,
                    RetryPolicy)
from .runtime import (DeadLetterReport, Quarantined, Resilience,
                      ResilienceReport, StageShield, resolve)

__all__ = [
    "BreakerConfig",
    "Checkpointer",
    "CheckpointError",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadLetterReport",
    "FaultPlan",
    "FaultRule",
    "NO_RETRY",
    "NullBreaker",
    "Quarantined",
    "Resilience",
    "ResilienceError",
    "ResilienceReport",
    "ResumeState",
    "RetryPolicy",
    "SimulatedCrash",
    "StageShield",
    "TransientFault",
    "atomic_write_bytes",
    "flip_shard_byte",
    "fsync_dir",
    "register_fault_exception",
    "resolve",
    "run_signature",
]
