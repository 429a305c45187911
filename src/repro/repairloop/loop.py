"""The deterministic repair loop and its ``Repairer`` contract.

One :meth:`RepairLoop.run` call drives a single candidate through
``check → (simulate) → diagnose → repair → re-check`` for at most
``budget`` feedback iterations and returns the full
:class:`RepairTranscript` — every intermediate candidate, the action
that produced it, and where (if anywhere) the candidate first reached
success.

Determinism is load-bearing: the per-iteration RNG derives from
``(seed, candidate_id, iteration)`` via blake2b, every check and
simulation is seeded, and the loop journals each committed iteration
through :mod:`repro.resilience` — so the same broken source under the
same seed produces the same transcript on any executor, and a run
killed between iterations resumes byte-identically.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, Tuple, runtime_checkable

from ..model.repair import self_reflect_once
from ..obs import Observability, resolve
from ..obs.reportable import report_json, strip_schema
from ..resilience.checkpoint import run_signature
from ..resilience.runtime import Resilience
from ..resilience.runtime import resolve as resolve_resilience
from ..verilog import check
from .feedback import RepairFeedback

#: Shield/fault site one loop iteration executes under.
ITERATION_SITE = "repair.iteration"

#: Journal stage name for iteration-boundary checkpoints.
_STAGE = "repair.loop"

#: Statuses that count as success when no functional spec is given
#: (dependency issues are not the repairer's job).
_SYNTAX_OK = ("clean", "dependency")


def loop_seed(seed: int, candidate_id: str, iteration: int = 0) -> int:
    """Stable 64-bit RNG seed for one (run, candidate, iteration)."""
    digest = hashlib.blake2b(
        f"{seed}:{candidate_id}:{iteration}".encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class RepairContext:
    """What a repairer may condition on beyond the code itself."""

    description: str = ""
    module_header: Optional[str] = None
    temperature: float = 0.8
    iteration: int = 0


@runtime_checkable
class Repairer(Protocol):
    """The pluggable fix-proposal step of the loop.

    ``propose`` returns ``(new_code, action)`` or ``None`` when it has
    nothing to offer; it must be a pure function of its arguments (the
    loop hands it a freshly derived RNG each iteration, which is what
    keeps transcripts executor-independent and resumable).
    """

    name: str

    def propose(self, code: str, feedback: RepairFeedback,
                context: RepairContext,
                rng: random.Random) -> Optional[Tuple[str, str]]: ...


class RuleBasedRepairer:
    """The :mod:`repro.model.repair` rules behind the protocol: one
    textual remedy per syntax diagnostic, nothing for functional or
    dependency failures."""

    name = "rule-based"

    def propose(self, code: str, feedback: RepairFeedback,
                context: RepairContext,
                rng: random.Random) -> Optional[Tuple[str, str]]:
        if feedback.kind != "syntax":
            return None
        error = feedback.first_error()
        if error is None:
            return None
        return self_reflect_once(
            code, error.get("message", ""), error.get("line", 0),
            error.get("column", 0))


class ModelRepairer:
    """Any generator model behind the protocol (OriGen-style): syntax
    damage goes to the rule-based fixer first, and everything else —
    or an exhausted rule — regenerates with the rendered feedback
    appended to the prompt, under the iteration's derived RNG."""

    name = "model"

    def __init__(self, model: Any, rules: Optional[RuleBasedRepairer] = None):
        self.model = model
        self.rules = rules if rules is not None else RuleBasedRepairer()

    def propose(self, code: str, feedback: RepairFeedback,
                context: RepairContext,
                rng: random.Random) -> Optional[Tuple[str, str]]:
        if feedback.kind == "syntax":
            attempt = self.rules.propose(code, feedback, context, rng)
            if attempt is not None and attempt[0] != code:
                return attempt
        prompt = context.description or "repair the module below"
        prompt = f"{prompt}\n\n{feedback.render()}"
        regenerated = self.model.generate(
            prompt,
            temperature=context.temperature,
            rng=rng,
            module_header=context.module_header,
        )
        if not regenerated or regenerated == code:
            return None
        return regenerated, "regenerate"


@dataclass
class RepairIteration:
    """One committed loop iteration: the action taken, the feedback
    that drove it, and the candidate it produced."""

    index: int
    action: str
    repairer: str
    feedback_kind: str
    status: str
    code: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "action": self.action,
            "repairer": self.repairer,
            "feedback_kind": self.feedback_kind,
            "status": self.status,
            "code": self.code,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RepairIteration":
        return cls(
            index=data["index"],
            action=data["action"],
            repairer=data.get("repairer", ""),
            feedback_kind=data.get("feedback_kind", ""),
            status=data["status"],
            code=data["code"],
        )


@dataclass
class RepairTranscript:
    """The loop's full history for one candidate
    (:class:`~repro.obs.Reportable`)."""

    schema = "pyranet/repair-transcript/v1"

    candidate_id: str
    seed: int
    budget: int
    original: str
    initial_status: str
    iterations: List[RepairIteration] = field(default_factory=list)
    final_status: str = "syntax"
    final_code: str = ""
    fixed: bool = False
    fixed_at: Optional[int] = None

    def n_iterations(self) -> int:
        return len(self.iterations)

    def actions(self) -> List[str]:
        return [iteration.action for iteration in self.iterations]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "candidate_id": self.candidate_id,
            "seed": self.seed,
            "budget": self.budget,
            "original": self.original,
            "initial_status": self.initial_status,
            "iterations": [it.to_dict() for it in self.iterations],
            "final_status": self.final_status,
            "final_code": self.final_code,
            "fixed": self.fixed,
            "fixed_at": self.fixed_at,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return report_json(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RepairTranscript":
        data = strip_schema(data)
        return cls(
            candidate_id=data["candidate_id"],
            seed=data["seed"],
            budget=data["budget"],
            original=data["original"],
            initial_status=data["initial_status"],
            iterations=[RepairIteration.from_dict(item)
                        for item in data.get("iterations", [])],
            final_status=data.get("final_status", "syntax"),
            final_code=data.get("final_code", ""),
            fixed=data.get("fixed", False),
            fixed_at=data.get("fixed_at"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RepairTranscript":
        import json

        return cls.from_dict(json.loads(text))


@dataclass
class RepairLoop:
    """The seeded loop runner.

    Args:
        budget: feedback-driven repair iterations per candidate.
        n_test_vectors: stimulus vectors per functional check (specs
            with golden models only).
        seed: master seed; per-iteration RNGs derive via
            :func:`loop_seed`.
        repairer: the fix proposer; defaults to
            :class:`RuleBasedRepairer`.
        temperature: sampling temperature handed to model repairers.
        functional_seed: stimulus seed for the functional testbench
            (fixed, matching the eval harness).
        obs: the loop becomes a ``repair.loop`` span; committed
            iteration counts feed the ``repair.iterations`` histogram.
        resilience: with a checkpointer, each iteration commits to the
            journal at its boundary, so a killed loop resumes with the
            already-committed iterations replayed byte-identically.
    """

    budget: int = 2
    n_test_vectors: int = 16
    seed: int = 0
    repairer: Optional[Repairer] = None
    temperature: float = 0.8
    functional_seed: int = 1000
    obs: Optional[Observability] = None
    resilience: Optional[Resilience] = None

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be >= 0")

    # -- assessment -----------------------------------------------------

    def _assess(self, code: str, spec) -> Tuple[str, Optional[RepairFeedback]]:
        """Check (and, with a spec, simulate) one candidate.

        Returns ``(status, feedback)`` where feedback is ``None`` on
        success.  Status values: ``syntax`` / ``dependency`` /
        ``clean`` (no spec), plus ``pass`` / ``fail`` (with a spec).
        """
        from ..eval.functional import run_functional_test

        report = check(code)
        if report.status == "syntax":
            return "syntax", RepairFeedback.from_check(report)
        if spec is None or spec.golden is None:
            return report.status, None
        outcome = run_functional_test(
            code, spec, n_vectors=self.n_test_vectors,
            seed=self.functional_seed)
        if outcome.passed:
            return "pass", None
        return "fail", RepairFeedback.from_outcome(outcome)

    def _success(self, status: str, spec) -> bool:
        if spec is None or spec.golden is None:
            return status in _SYNTAX_OK
        return status == "pass"

    # -- the loop -------------------------------------------------------

    def run(self, code: str, spec=None, candidate_id: str = "",
            description: str = "",
            module_header: Optional[str] = None) -> RepairTranscript:
        """Drive one candidate through the loop; returns the transcript."""
        obs = resolve(self.obs)
        res = resolve_resilience(self.resilience)
        repairer = self.repairer if self.repairer is not None \
            else RuleBasedRepairer()
        ckpt = res.checkpointer if res.enabled else None
        state = None
        if ckpt is not None:
            signature = run_signature([code], (_STAGE,), extra=(
                "repair-loop", self.seed, self.budget,
                self.n_test_vectors, self.functional_seed,
                candidate_id, spec is not None))
            state = ckpt.begin(signature)

        with obs.span("repair.loop", candidate=candidate_id or "<anon>",
                      budget=self.budget,
                      repairer=getattr(repairer, "name",
                                       type(repairer).__name__)) as span:
            status, feedback = self._assess(code, spec)
            transcript = RepairTranscript(
                candidate_id=candidate_id, seed=self.seed,
                budget=self.budget, original=code,
                initial_status=status, final_status=status,
                final_code=code)
            if self._success(status, spec):
                transcript.fixed = True
                transcript.fixed_at = 0
            current = code
            replayed = state.completed_batches(0) if state else 0
            for index in range(1, self.budget + 1):
                if transcript.fixed or feedback is None:
                    break
                if state is not None and index <= replayed:
                    payload = state.batch_result(0, index - 1)
                    iteration = RepairIteration.from_dict(payload)
                    obs.counter("repair.iterations.replayed").inc()
                    next_feedback = (
                        None if self._success(iteration.status, spec)
                        else self._assess(iteration.code, spec)[1])
                else:
                    outcome = res.call(
                        ITERATION_SITE,
                        lambda: self._iterate(current, feedback,
                                              repairer, index,
                                              candidate_id,
                                              description,
                                              module_header, spec))
                    if outcome is None:
                        break
                    iteration, next_feedback = outcome
                    if ckpt is not None:
                        ckpt.record_batch(0, index - 1, _STAGE,
                                          iteration.to_dict())
                transcript.iterations.append(iteration)
                current = iteration.code
                transcript.final_code = current
                transcript.final_status = iteration.status
                feedback = next_feedback
                if feedback is None:
                    transcript.fixed = self._success(iteration.status,
                                                     spec)
                    if transcript.fixed:
                        transcript.fixed_at = index
            if ckpt is not None:
                ckpt.finish({"fixed": transcript.fixed,
                             "iterations": transcript.n_iterations()})
            span.meta["fixed"] = transcript.fixed
            span.meta["iterations"] = transcript.n_iterations()
        obs.histogram("repair.iterations").observe(
            transcript.n_iterations())
        obs.counter("repair.loop.fixed" if transcript.fixed
                    else "repair.loop.failed").inc()
        return transcript

    def _iterate(
        self, code: str, feedback: RepairFeedback, repairer: Repairer,
        index: int, candidate_id: str, description: str,
        module_header: Optional[str], spec,
    ) -> Optional[Tuple[RepairIteration, Optional[RepairFeedback]]]:
        """One pure iteration: propose a fix, re-assess it.

        Pure in the resumable sense — the RNG derives from
        ``(seed, candidate_id, index)``, so a retried or replayed
        iteration reproduces the same proposal.  Returns the committed
        iteration plus the next round's feedback (``None`` on success).
        """
        context = RepairContext(
            description=description, module_header=module_header,
            temperature=self.temperature, iteration=index)
        rng = random.Random(loop_seed(self.seed, candidate_id, index))
        proposal = repairer.propose(code, feedback, context, rng)
        if proposal is None or proposal[0] == code:
            return None
        new_code, action = proposal
        status, next_feedback = self._assess(new_code, spec)
        iteration = RepairIteration(
            index=index, action=action,
            repairer=getattr(repairer, "name", type(repairer).__name__),
            feedback_kind=feedback.kind, status=status, code=new_code)
        return iteration, next_feedback
