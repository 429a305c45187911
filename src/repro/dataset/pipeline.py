"""End-to-end dataset curation (paper Section III-A): the one-call facade.

:func:`build_pyranet` simulates the scrape and the commercial-LLM
generation pipeline and curates both through
:class:`~.streaming.CurationPipeline` — filters, Jaccard dedup, syntax
check, ranking, formal check, descriptions and the six layers; see
:mod:`.streaming` for the dataflow.  The pipeline and its report types
are re-exported here under their historical import path.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..corpus.llm_sim import GeneratedSample
from ..obs import Observability
from ..pipeline import ParallelExecutor, ResultCache
from ..resilience.runtime import Resilience
from .streaming import (
    CurationPipeline,
    CurationResult,
    PipelineReport,
    chain_batches,
    generated_batches,
    raw_file_batches,
)

__all__ = ["CurationPipeline", "CurationResult", "PipelineReport",
           "build_pyranet"]


def build_pyranet(
    n_github_files: int = 400,
    n_llm_prompts: int = 8,
    n_queries_per_prompt: int = 10,
    seed: int = 0,
    dedup_threshold: float = 0.8,
    executor: Optional[ParallelExecutor] = None,
    cache: Optional[ResultCache] = None,
    obs: Optional[Observability] = None,
    resilience: Optional[Resilience] = None,
    batch_size: int = 256,
    spill_dir=None,
    keep_variants: bool = False,
) -> CurationResult:
    """One-call PyraNet construction at a configurable scale.

    Simulates the scrape, runs the commercial-LLM generation pipeline
    (Fig. 2), and curates everything into the six-layer dataset.  The
    scrape is consumed as a lazy batch stream, so the raw corpus is
    never materialised; ``spill_dir`` also bounds survivor/shuffle
    memory with disk spill.
    """
    from ..corpus.github_sim import GitHubScrapeSimulator
    from ..corpus.keywords import build_keyword_database
    from ..corpus.llm_sim import SimulatedCommercialLLM

    scraper = GitHubScrapeSimulator(seed=seed)

    db = build_keyword_database()
    llm = SimulatedCommercialLLM(seed=seed + 1)
    rng = random.Random(seed + 2)
    generated: List[GeneratedSample] = []
    for _ in range(n_llm_prompts):
        entry = db.sample(rng)
        generated.extend(
            llm.generate_batch(entry, n_queries=n_queries_per_prompt)
        )

    pipeline = CurationPipeline(
        dedup_threshold=dedup_threshold, seed=seed, batch_size=batch_size,
        executor=executor, cache=cache, obs=obs, resilience=resilience,
        spill_dir=spill_dir, keep_variants=keep_variants,
    )
    source = chain_batches(
        raw_file_batches(
            scraper.iter_scrape(n_github_files, batch_size=batch_size)),
        generated_batches(generated, batch_size=batch_size),
    )
    token = (f"build-pyranet:{seed}:{n_github_files}:"
             f"{n_llm_prompts}:{n_queries_per_prompt}")
    return pipeline.run_stream(source, source_token=token)
