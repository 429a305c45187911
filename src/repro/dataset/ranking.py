"""Ranking: the 0–20 code-quality judge (paper Section III-A.4, Fig. 3).

The paper asks GPT-4o-mini to "rank the quality of this Verilog code in
scale of 0 to 20, with 0 being syntactically incorrect and 20 being a
good Verilog code in terms of efficiency and coding style".  Our judge
is deterministic: syntactic validity gates the score, and the
style/efficiency lint penalties from :mod:`repro.verilog.style` are
mapped onto the 0–20 scale.  The paper's Fig. 3 exemplar (a clean half
adder) scores 20/20 here, which the test suite pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..verilog import lint
from ..verilog.style import StyleReport


@dataclass
class RankingResult:
    """Score plus the evidence behind it."""

    score: int
    style_report: Optional[StyleReport] = None
    notes: List[str] = field(default_factory=list)


#: How many ranking points one lint-penalty point costs.
PENALTY_TO_POINTS = 2.1


def round_half_up(value: float) -> int:
    """Round with ``.5`` always going up.

    The scoring rule is documented as conventional rounding; Python's
    built-in ``round`` uses banker's rounding (half-to-even), which
    would send a raw 16.5 to 16 but 17.5 to 18 — an inconsistency a
    score consumer can observe at tier boundaries.
    """
    return math.floor(value + 0.5)


def score_from_penalty(penalty: float,
                       points_per_penalty: float = PENALTY_TO_POINTS) -> int:
    """Map a lint penalty total onto the 1–20 scale (half-up)."""
    raw = 20 - points_per_penalty * penalty
    return max(1, min(20, round_half_up(raw)))


def rank_code(code: str) -> RankingResult:
    """Judge ``code`` and return score + evidence."""
    report = lint(code)
    if report.parse_failed:
        return RankingResult(
            score=0, style_report=report,
            notes=["syntactically incorrect"],
        )
    score = score_from_penalty(report.penalty)
    notes = [str(v) for v in report.violations[:8]]
    return RankingResult(score=score, style_report=report, notes=notes)


def score_code(code: str) -> int:
    """Just the 0–20 score."""
    return rank_code(code).score


def format_ranking_prompt(code: str) -> str:
    """The Fig. 3 prompt text for one code sample."""
    return (
        "Act as a teacher and rank the quality of this Verilog code in "
        "scale of 0 to 20, with 0 being syntactically incorrect and 20 "
        "being a good Verilog code in terms of efficiency and coding "
        f"style:\n\n{code}\n\nJust give me the score only."
    )


def format_ranking_response(score: int) -> str:
    """The Fig. 3 response text."""
    return f"Score: {score} out of 20."
