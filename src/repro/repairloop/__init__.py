"""The agentic repair loop: generate → check → simulate → diagnose →
repair → re-check, under a fixed iteration budget.

The loop composes machinery that already exists elsewhere in the repo —
:func:`repro.verilog.check` diagnostics, the
:mod:`repro.eval.functional` testbench, and the rule-based fixer
:func:`repro.model.repair.self_reflect_once` — into one deterministic,
seeded feedback cycle, the repo's only repair loop.  The feedback
channel is *structured*
(:class:`RepairFeedback`: syntax diagnostics with line/column spans,
dependency reports, functional counterexamples), so any
:class:`Repairer` — the rule-based one here, or a fine-tuned model —
consumes the same contract.

Three consumers sit on top: the repair-trajectory corpus source
(:mod:`repro.corpus.repair_source`) mines fixed transcripts into
broken→fixed training pairs, the ``pass@k(repair_budget=r)`` eval
scenario (:mod:`repro.eval.repair_eval`) gives failed samples up to
``r`` feedback-driven retries, and OriGen's
:class:`~repro.baselines.origen.SelfReflectiveModel` repairs its
completions that fail to compile.
"""

from .feedback import RepairFeedback
from .loop import (
    ModelRepairer,
    Repairer,
    RepairContext,
    RepairIteration,
    RepairLoop,
    RepairTranscript,
    RuleBasedRepairer,
)

__all__ = [
    "RepairFeedback",
    "Repairer", "RepairContext", "RepairIteration", "RepairLoop",
    "RepairTranscript", "RuleBasedRepairer", "ModelRepairer",
]
