"""Reference filter funnel for the curation golden tests.

This is the monolithic four-stage funnel the curation dataflow
(:class:`repro.dataset.pipeline.CurationPipeline`) replaced.  Nothing in
the package runs it any more; it is kept here, unchanged in behaviour,
as the oracle ``tests/dataset/test_pipeline.py`` curates against: the
dataflow must reproduce its entries and :class:`FunnelStats` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.dataset.filters import (FunnelStats, has_module, is_readable,
                                   syntax_filter)
from repro.verilog.syntax_checker import CheckResult


@dataclass
class FilteredFile:
    """A survivor of the funnel, with its compile classification."""

    index: int
    content: str
    check_result: CheckResult


def run_filter_funnel(
    contents: Sequence[str],
    dedup: Optional[Callable[[Sequence[str]], List[int]]] = None,
) -> Tuple[List[FilteredFile], FunnelStats]:
    """Run the four-stage funnel over ``contents``.

    Args:
        contents: raw file texts, index-aligned with the caller's
            bookkeeping.
        dedup: callable returning the indices (into its argument) of
            files to *keep*; defaults to no deduplication.

    Returns:
        (survivors, stats); each survivor keeps its original index.
    """
    stats = FunnelStats(collected=len(contents))

    stage1: List[Tuple[int, str]] = []
    for index, content in enumerate(contents):
        decision = is_readable(content)
        if decision.kept:
            stage1.append((index, content))
        else:
            stats.record_removal("empty_broken")
    stats.after_empty_broken = len(stage1)

    stage2: List[Tuple[int, str]] = []
    for index, content in stage1:
        decision = has_module(content)
        if decision.kept:
            stage2.append((index, content))
        else:
            stats.record_removal("module_decl")
    stats.after_module_decl = len(stage2)

    if dedup is not None and stage2:
        keep_positions = set(dedup([content for _, content in stage2]))
        stage3 = [pair for position, pair in enumerate(stage2)
                  if position in keep_positions]
        stats.removed["dedup"] = len(stage2) - len(stage3)
    else:
        stage3 = stage2
    stats.after_dedup = len(stage3)

    survivors: List[FilteredFile] = []
    for index, content in stage3:
        decision, result = syntax_filter(content)
        if not decision.kept:
            stats.record_removal("syntax_check")
            continue
        survivors.append(FilteredFile(index, content, result))
        if result.status == "clean":
            stats.clean += 1
        else:
            stats.dependency_only += 1
    stats.after_syntax = len(survivors)
    return survivors, stats
