"""The structured feedback channel between checker and repairer.

A :class:`RepairFeedback` is what one loop iteration learned about the
current candidate: the failure *kind* (``syntax`` / ``dependency`` /
``functional``), the compiler diagnostics with their line/column spans,
and — for functional failures — the :class:`~repro.eval.functional`
outcome with its counterexample vectors.  Rule-based repairers read the
fields; model repairers read :meth:`render`, the same information as an
error-log block suitable for prompt augmentation (OriGen's
self-reflection input format).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs.reportable import Reportable


@dataclass
class RepairFeedback(Reportable):
    """One iteration's structured diagnosis
    (:class:`~repro.obs.Reportable`).

    ``diagnostics`` rows are
    :meth:`repro.verilog.syntax_checker.Diagnostic.to_dict` dicts;
    ``outcome`` is a :meth:`repro.eval.functional.TestOutcome.to_dict`
    dict (functional failures only).
    """

    schema = "pyranet/repair-feedback/v1"

    kind: str
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)
    outcome: Optional[Dict[str, Any]] = None

    @classmethod
    def from_check(cls, report) -> "RepairFeedback":
        """Feedback for a failed :func:`repro.verilog.check`."""
        return cls(
            kind="syntax" if report.status == "syntax" else "dependency",
            diagnostics=[diag.to_dict() for diag in report.diagnostics],
        )

    @classmethod
    def from_outcome(cls, outcome) -> "RepairFeedback":
        """Feedback for a failed functional test."""
        return cls(kind="functional", outcome=outcome.to_dict())

    def first_error(self) -> Optional[Dict[str, Any]]:
        """The first error-severity diagnostic, if any."""
        for diag in self.diagnostics:
            if diag.get("severity") == "error":
                return diag
        return self.diagnostics[0] if self.diagnostics else None

    def render(self) -> str:
        """The feedback as error-log text (model-repairer prompt)."""
        lines = [f"// {self.kind} failure"]
        for diag in self.diagnostics:
            where = f"line {diag.get('line', 0)}"
            if diag.get("column"):
                where += f", col {diag['column']}"
            lines.append(f"// {where}: {diag.get('severity', 'error')}: "
                         f"{diag.get('message', '')}")
        if self.outcome is not None:
            detail = self.outcome.get("detail", "")
            kind = self.outcome.get("failure_kind", "")
            lines.append(f"// functional test failed ({kind}): {detail}")
            for mismatch in self.outcome.get("mismatches", [])[:4]:
                lines.append(
                    f"// vector {mismatch.get('vector_index')}: output "
                    f"{mismatch.get('output')!r} expected "
                    f"{mismatch.get('expected')} got "
                    f"{mismatch.get('actual')} with inputs "
                    f"{mismatch.get('inputs')}")
        return "\n".join(lines)
