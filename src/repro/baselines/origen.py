"""OriGen baseline recipe (Cui et al., 2024).

OriGen contributes (a) *code-to-code augmentation* — high-quality
training data produced by rewriting existing RTL — and (b) a
*self-reflection* loop that feeds compiler errors back into a repair
model at inference.  Both are reproduced over the shared substrate:

* :func:`finetune_origen` filters to compiling samples, adds one
  augmented (rewritten) variant per sample, and fine-tunes flat;
* :class:`SelfReflectiveModel` wraps any generator with the
  compile-check → repair loop, :class:`repro.repairloop.RepairLoop`
  with its rule-based repairer.

Table I's OriGen rows use the fine-tune only (the paper compares
against OriGen's published scores, noting its self-reflection loop is
an extra inference feature); the self-reflection wrapper is exercised
by its own benchmark and the ablations.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..corpus.mutate import degrade_style
from ..dataset.records import CompileStatus, PyraNetDataset
from ..finetune.trainer import PhaseLog, TrainingLog
from ..model.interfaces import FineTunable, TrainingExample
from ..repairloop import RepairLoop


def augment_code(code: str, rng: random.Random) -> str:
    """Code-to-code augmentation: a semantically equivalent rewrite.

    OriGen rewrites RTL into cleaner variants; we model the rewrite as
    a formatting-level transformation (whitespace/identifier changes
    that keep behaviour), which enriches token-level variety exactly
    the way the augmented corpus does.
    """
    result = degrade_style(code, rng, strength=0.2)
    return result.source


def finetune_origen(
    model: FineTunable,
    dataset: PyraNetDataset,
    seed: int = 0,
    batch_size: int = 32,
) -> TrainingLog:
    """OriGen fine-tuning: clean data + augmentation, flat order."""
    rng = random.Random(seed)
    entries = [e for e in dataset
               if e.compile_status is CompileStatus.CLEAN]
    examples: List[TrainingExample] = []
    for entry in entries:
        examples.append(TrainingExample(
            description=entry.description, code=entry.code,
            layer=entry.layer, complexity=int(entry.complexity),
            ranking=entry.ranking,
        ))
        examples.append(TrainingExample(
            description=entry.description,
            code=augment_code(entry.code, rng),
            layer=entry.layer, complexity=int(entry.complexity),
            ranking=entry.ranking,
        ))
    rng.shuffle(examples)
    log = TrainingLog()
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        stats = model.train_batch(chunk, 1.0)
        model.finish_phase()
        log.phases.append(PhaseLog(
            label=f"origen/batch{start // batch_size}",
            layer=0, loss_weight=1.0, stats=stats,
        ))
    return log


class SelfReflectiveModel(FineTunable):
    """Inference-time self-reflection wrapper.

    Generation proceeds normally; when the completion fails to compile,
    the compiler diagnostics drive up to ``2 * max_rounds`` repair
    iterations — OriGen's error-correction loop.
    """

    def __init__(self, inner: FineTunable, max_rounds: int = 2) -> None:
        self.inner = inner
        self.max_rounds = max_rounds
        self.repairs_attempted = 0
        self.repairs_succeeded = 0

    @property
    def profile(self):  # cosmetics for report labels
        return getattr(self.inner, "profile", None)

    def train_batch(self, examples, loss_weight):
        return self.inner.train_batch(examples, loss_weight)

    def finish_phase(self) -> None:
        self.inner.finish_phase()

    def generate(self, description, temperature=0.8, rng=None,
                 module_header=None) -> str:
        code = self.inner.generate(description, temperature, rng,
                                   module_header)
        transcript = RepairLoop(budget=self.max_rounds * 2).run(code)
        if transcript.initial_status == "syntax":
            self.repairs_attempted += 1
            if transcript.fixed:
                self.repairs_succeeded += 1
        return transcript.final_code
