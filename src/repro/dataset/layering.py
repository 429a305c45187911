"""Layer organisation (paper Section III-A.5).

The six PyraNet layers, by ranking and compile status:

* Layer 1 — ranking 20 (compiles cleanly);
* Layer 2 — rankings 19–15;
* Layer 3 — rankings 14–10;
* Layer 4 — rankings 9–5;
* Layer 5 — rankings 4–1;
* Layer 6 — dependency issues, or ranking 0.

Layers 1–5 contain only entries that compile without errors; the paper
additionally ensures every complexity level is represented in each of
them, which :func:`assign_layers` checks and reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.reportable import Reportable
from .records import CompileStatus, Complexity, DatasetEntry

#: (layer number, inclusive ranking range) for clean entries.
LAYER_RANK_RANGES: List[Tuple[int, int, int]] = [
    (1, 20, 20),
    (2, 15, 19),
    (3, 10, 14),
    (4, 5, 9),
    (5, 1, 4),
]


def layer_for(entry: DatasetEntry) -> int:
    """The layer an entry belongs to."""
    if entry.compile_status is not CompileStatus.CLEAN or entry.ranking == 0:
        return 6
    for number, lo, hi in LAYER_RANK_RANGES:
        if lo <= entry.ranking <= hi:
            return number
    return 6


@dataclass
class LayerReport(Reportable):
    """Layer population summary (the Fig. 1-a pyramid)."""

    sizes: Dict[int, int] = field(default_factory=dict)
    complexity_coverage: Dict[int, Dict[str, int]] = field(
        default_factory=dict)
    missing_complexities: Dict[int, List[str]] = field(default_factory=dict)
    #: Population of the formally-verified tier (a subset of layer 1,
    #: not a seventh layer — the pyramid shape is unchanged).
    n_verified: int = 0

    def pyramid_rows(self) -> List[Tuple[int, int]]:
        """(layer, size) rows, best layer first."""
        return [(n, self.sizes.get(n, 0)) for n in range(1, 7)]


def assign_layers(entries: List[DatasetEntry],
                  report: Optional[LayerReport] = None) -> LayerReport:
    """Assign ``entry.layer`` in place and add the entries to ``report``
    (a new one by default), which is returned.  Called batch by batch
    with one report, it reports the population of all the batches."""
    if report is None:
        report = LayerReport()
    for entry in entries:
        entry.layer = layer_for(entry)
        report.sizes[entry.layer] = report.sizes.get(entry.layer, 0) + 1
        if entry.verified:
            report.n_verified += 1
        coverage = report.complexity_coverage.setdefault(entry.layer, {})
        coverage[entry.complexity.label] = coverage.get(
            entry.complexity.label, 0) + 1
    all_levels = [c.label for c in Complexity]
    report.missing_complexities.clear()
    for number in range(1, 6):
        present = set(report.complexity_coverage.get(number, {}))
        missing = [label for label in all_levels if label not in present]
        if missing and report.sizes.get(number, 0) > 0:
            report.missing_complexities[number] = missing
    return report
