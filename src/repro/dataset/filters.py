"""Post-download dataset filters (paper Section III-A.2).

The paper applies, in order of increasing cost:

1. **empty/broken** — unreadable (encoding) or empty files;
2. **module declaration** — files with no module declaration;
3. **deduplication** — Jaccard similarity (see :mod:`.dedup`);
4. **syntax check** — the expensive compile check, run last on the
   reduced set, classifying survivors as clean or dependency-only.

Curation (:mod:`.streaming`) runs the stages and counts each one's
survivors in :class:`FunnelStats` — the funnel that turns ~2.4 M raw
files into the usable set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..obs.reportable import Reportable
from ..verilog import check, has_module_declaration
from ..verilog.syntax_checker import CheckResult


@dataclass
class FilterDecision:
    """Outcome for one file at one stage."""

    kept: bool
    stage: str
    reason: str = ""


def is_readable(content: str) -> FilterDecision:
    """Encoding/corruption filter.

    Real scrapes hit undecodable bytes; our in-memory corpus models
    them as non-ASCII garbage.  A file is 'broken' when a significant
    fraction of characters are outside the printable range.
    """
    if not content:
        return FilterDecision(False, "empty_broken", "empty file")
    # Nearly every file is printable throughout: one C-level check
    # settles it without visiting each character in Python.
    if (content.replace("\n", "").replace("\r", "").replace("\t", "")
            .isprintable()):
        printable = len(content)
    else:
        printable = sum(
            1 for ch in content if ch.isprintable() or ch in "\n\r\t"
        )
    if printable / len(content) < 0.9:
        return FilterDecision(False, "empty_broken", "encoding issues")
    if not content.strip():
        return FilterDecision(False, "empty_broken", "whitespace only")
    return FilterDecision(True, "empty_broken")


def has_module(content: str) -> FilterDecision:
    """Module-declaration filter."""
    if has_module_declaration(content):
        return FilterDecision(True, "module_decl")
    return FilterDecision(False, "module_decl", "no module declaration")


def syntax_filter(content: str) -> Tuple[FilterDecision, CheckResult]:
    """The expensive compile check (run last).

    Files with syntax errors are dropped; files with dependency issues
    are *kept* and labelled (they populate Layer 6).
    """
    result = check(content)
    if result.status == "syntax":
        first = result.syntax_errors[0].message if result.syntax_errors else ""
        return (
            FilterDecision(False, "syntax_check", first or "syntax error"),
            result,
        )
    reason = "dependency issues" if result.status == "dependency" else ""
    return FilterDecision(True, "syntax_check", reason), result


@dataclass
class FunnelStats(Reportable):
    """Per-stage counts of the filter funnel."""

    collected: int = 0
    after_empty_broken: int = 0
    after_module_decl: int = 0
    after_dedup: int = 0
    after_syntax: int = 0
    clean: int = 0
    dependency_only: int = 0
    removed: dict = field(default_factory=dict)

    def record_removal(self, stage: str) -> None:
        self.removed[stage] = self.removed.get(stage, 0) + 1
