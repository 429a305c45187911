"""The PyraNet facade: one import for the whole reproduction.

:class:`PyraNet` wires the pipeline together — corpus synthesis,
curation, fine-tuning, evaluation — and the ``run_*`` functions execute
the paper's experiments (Tables I, III, IV and the figures) end to end.

Typical use::

    from repro.core import PyraNet

    pn = PyraNet(seed=0)
    pn.build_dataset(n_github_files=900)
    model = pn.finetune("codellama-7b-instruct-sim", recipe="architecture")
    report = pn.evaluate(model, suite="machine")
    print(report.summary())
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.mevllm import MultiExpertModel, finetune_mevllm
from ..baselines.mgverilog import finetune_mgverilog
from ..baselines.origen import SelfReflectiveModel, finetune_origen
from ..baselines.rtlcoder import finetune_rtlcoder
from ..dataset.corrupt import shuffle_labels
from ..dataset.pipeline import CurationResult, build_pyranet
from ..dataset.records import PyraNetDataset
from ..eval.config import EvalConfig
from ..eval.harness import EvalProblem, EvalReport, evaluate_model
from ..eval.problems.human import build_human_problems
from ..eval.problems.machine import build_machine_problems
from ..finetune.trainer import (
    finetune_pyranet_architecture,
    finetune_pyranet_dataset,
)
from ..model.generator import (
    CODELLAMA_7B,
    CODELLAMA_13B,
    DEEPSEEK_7B,
    PROFILES,
    ConditionalCodeModel,
    ModelProfile,
)
from ..finetune.curriculum import LayeredSource
from ..model.interfaces import FineTunable
from ..obs import Observability, RunReport, resolve
from ..pipeline import DiskCache, ParallelExecutor, ResultCache
from ..resilience import Resilience
from ..store import (
    DEFAULT_SHARD_BYTES,
    SamplingService,
    StoreManifest,
    StoreReader,
    write_store,
)

#: Recipe names accepted by :meth:`PyraNet.finetune`.
RECIPES = ("baseline", "dataset", "architecture", "rtlcoder", "origen",
           "mgverilog", "mevllm")


@dataclass
class PyraNet:
    """End-to-end reproduction driver.

    Args:
        seed: master seed for corpus synthesis and fine-tuning.
        n_samples: completions per problem during evaluation.
        temperature: sampling temperature during evaluation.
        n_test_vectors: stimulus per functional test.
        executor: shared executor for curation and evaluation fan-out;
            ``None`` runs both serially.
        obs: shared observability handle.  A live one by default, so
            every run driven through the facade lands in a single
            registry/trace and :meth:`run_report` /
            :meth:`write_trace` just work; pass
            ``Observability.noop()`` to disable collection.
        resilience: shared resilience runtime (see
            :mod:`repro.resilience`).  When set, curation and
            evaluation runs retry transient faults, quarantine poisoned
            records into its dead-letter report, and — with a
            checkpointer attached — journal progress so a killed run
            resumes byte-identically.  ``None`` keeps the original
            non-resilient code path.
        cache_dir: when set, curation and evaluation caches gain a
            persistent :class:`~repro.pipeline.DiskCache` tier under
            this directory (``<cache_dir>/curation``, ``<cache_dir>/
            eval``), so a re-run over an unchanged corpus serves
            syntax-check / ranking / simulation results from disk
            instead of recomputing (``cache.<name>.disk.*`` counters
            in :meth:`run_report` prove it).  Entries are digest-
            verified on read; corruption means recompute, never a bad
            result.
    """

    seed: int = 0
    n_samples: int = 10
    temperature: float = 0.8
    n_test_vectors: int = 24
    executor: Optional[ParallelExecutor] = None
    obs: Observability = field(default_factory=Observability)
    resilience: Optional[Resilience] = None
    cache_dir: Optional[str] = None

    curation: Optional[CurationResult] = None
    _machine_problems: Optional[List[EvalProblem]] = None
    _human_problems: Optional[List[EvalProblem]] = None
    #: Functional-test outcomes are pure in (problem, completion), so
    #: one cache serves every model/recipe evaluated by this driver —
    #: across a Table I grid, models regenerate many identical
    #: completions and each unique one simulates exactly once.
    _eval_cache: ResultCache = field(default_factory=ResultCache)
    #: Curation per-file results (syntax check, ranking, descriptions);
    #: only built when ``cache_dir`` asks for persistence — otherwise
    #: curation runs uncached.
    _curation_cache: Optional[ResultCache] = None

    def __post_init__(self) -> None:
        if self.cache_dir is None:
            return
        from pathlib import Path

        base = Path(self.cache_dir)
        self._curation_cache = ResultCache(
            name="curation", registry=self.obs.registry,
            disk=DiskCache(base / "curation", obs=self.obs))
        self._eval_cache = ResultCache(
            name="eval", registry=self.obs.registry,
            disk=DiskCache(base / "eval", obs=self.obs))

    # -- dataset ------------------------------------------------------------

    def build_dataset(
        self,
        n_github_files: int = 900,
        n_llm_prompts: int = 30,
        n_queries_per_prompt: int = 8,
        dedup_threshold: float = 0.8,
        batch_size: int = 256,
        spill_dir: Optional[str] = None,
    ) -> PyraNetDataset:
        """Synthesize + curate the PyraNet dataset.

        Curation fans its batches out over ``self.executor``;
        ``spill_dir`` keeps survivor / shuffle state on disk instead of
        in memory.
        """
        with self.obs.span("run.build_dataset",
                           n_github_files=n_github_files,
                           n_llm_prompts=n_llm_prompts) as span:
            self.curation = build_pyranet(
                n_github_files=n_github_files,
                n_llm_prompts=n_llm_prompts,
                n_queries_per_prompt=n_queries_per_prompt,
                seed=self.seed,
                dedup_threshold=dedup_threshold,
                executor=self.executor,
                cache=self._curation_cache,
                obs=self.obs,
                resilience=self.resilience,
                batch_size=batch_size,
                spill_dir=spill_dir,
            )
            span.meta["n_entries"] = len(self.curation.dataset)
        return self.curation.dataset

    @property
    def dataset(self) -> PyraNetDataset:
        if self.curation is None:
            raise RuntimeError("call build_dataset() first")
        return self.curation.dataset

    def erroneous_dataset(self) -> PyraNetDataset:
        """The Table IV distortion: shuffled code↔description↔ranking."""
        return shuffle_labels(self.dataset, seed=self.seed + 77)

    # -- the sharded store --------------------------------------------------

    def save_store(self, directory,
                   max_shard_bytes: int = DEFAULT_SHARD_BYTES) -> StoreManifest:
        """Persist the curated dataset as a sharded, content-addressed
        store (see :mod:`repro.store`)."""
        return write_store(
            self.dataset, directory, max_shard_bytes=max_shard_bytes,
            meta={"seed": self.seed, "source": "curation"},
            obs=self.obs,
            resilience=self.resilience,
        )

    @staticmethod
    def load_store(directory, strict: bool = True, seed: int = 0,
                   obs: Optional[Observability] = None,
                   resilience: Optional[Resilience] = None
                   ) -> SamplingService:
        """Open a store for serving; the returned service slots into
        :meth:`finetune` wherever a dataset is accepted.

        The reader gets its own :class:`ResultCache`, so multi-pass
        fine-tuning re-reads shards from memory, not disk.
        """
        reader = StoreReader(directory, strict=strict, cache=ResultCache(),
                             obs=resolve(obs), resilience=resilience)
        return SamplingService(reader, seed=seed)

    # -- models ------------------------------------------------------------

    def base_model(self, profile_name: str) -> ConditionalCodeModel:
        profile = PROFILES.get(profile_name)
        if profile is None:
            raise KeyError(
                f"unknown profile {profile_name!r}; known: "
                f"{sorted(PROFILES)}"
            )
        return ConditionalCodeModel(profile, seed=self.seed + 1)

    def finetune(
        self,
        profile_name: str,
        recipe: str = "architecture",
        dataset: Optional[LayeredSource] = None,
        epochs: int = 1,
    ) -> FineTunable:
        """Build a model and apply one of the named recipes.

        ``dataset`` may be the in-memory curation result (default) or a
        store-backed :class:`SamplingService` from :meth:`load_store`.
        """
        if recipe not in RECIPES:
            raise ValueError(
                f"unknown recipe {recipe!r}; choose from {RECIPES}"
            )
        data = dataset if dataset is not None else self.dataset
        with self.obs.span("run.finetune", profile=profile_name,
                           recipe=recipe, epochs=epochs):
            if recipe == "mevllm":
                model: FineTunable = MultiExpertModel(
                    expert_factory=lambda: self.base_model(profile_name)
                )
                finetune_mevllm(model, data, seed=self.seed + 2)
                return model
            model = self.base_model(profile_name)
            if recipe == "baseline":
                return model
            if recipe == "dataset":
                finetune_pyranet_dataset(model, data, epochs=epochs,
                                         seed=self.seed + 2, obs=self.obs)
            elif recipe == "architecture":
                finetune_pyranet_architecture(model, data, epochs=epochs,
                                              seed=self.seed + 2,
                                              obs=self.obs)
            elif recipe == "rtlcoder":
                finetune_rtlcoder(model, data, seed=self.seed + 2)
            elif recipe == "origen":
                finetune_origen(model, data, seed=self.seed + 2)
            elif recipe == "mgverilog":
                finetune_mgverilog(model, data, seed=self.seed + 2)
        return model

    def with_self_reflection(self, model: FineTunable) -> FineTunable:
        """Wrap a model with OriGen's compile-feedback repair loop."""
        return SelfReflectiveModel(model)

    # -- evaluation ------------------------------------------------------------

    def problems(self, suite: str) -> List[EvalProblem]:
        if suite == "machine":
            if self._machine_problems is None:
                self._machine_problems = build_machine_problems()
            return self._machine_problems
        if suite == "human":
            if self._human_problems is None:
                self._human_problems = build_human_problems()
            return self._human_problems
        raise ValueError(f"unknown suite {suite!r} (machine|human)")

    def evaluate(
        self,
        model: FineTunable,
        suite: str = "machine",
        n_problems: Optional[int] = None,
        model_name: Optional[str] = None,
    ) -> EvalReport:
        problems = self.problems(suite)
        if n_problems is not None:
            problems = problems[:n_problems]
        return evaluate_model(
            model, problems,
            self.eval_config(model_name=model_name),
            executor=self.executor,
            cache=self._eval_cache,
            obs=self.obs,
            resilience=self.resilience,
        )

    def eval_config(self, **overrides) -> EvalConfig:
        """This driver's evaluation parameters as one
        :class:`~repro.eval.EvalConfig` (the seed offset included)."""
        config = EvalConfig(
            n_samples=self.n_samples,
            temperature=self.temperature,
            seed=self.seed + 3,
            n_test_vectors=self.n_test_vectors,
        )
        return config.with_overrides(**overrides) if overrides else config

    def evaluate_repair(
        self,
        model: FineTunable,
        suite: str = "machine",
        repair_budget: int = 2,
        n_problems: Optional[int] = None,
        model_name: Optional[str] = None,
        repairer=None,
    ):
        """The repair-budget evaluation scenario: pass@k after up to
        ``repair_budget`` feedback-driven repair retries per failed
        sample.  Returns a
        :class:`~repro.eval.repair_eval.RepairEvalReport`."""
        from ..eval.repair_eval import evaluate_with_repair

        problems = self.problems(suite)
        if n_problems is not None:
            problems = problems[:n_problems]
        config = self.eval_config(model_name=model_name,
                                  repair_budget=repair_budget)
        return evaluate_with_repair(
            model, problems, config,
            repairer=repairer,
            executor=self.executor,
            cache=self._eval_cache,
            obs=self.obs,
            resilience=self.resilience,
        )

    # -- telemetry ----------------------------------------------------------

    def run_report(self, meta: Optional[Dict] = None) -> RunReport:
        """Everything this driver has collected — spans from curation,
        store traffic, fine-tuning and evaluation plus the metric
        registry — as one schema-versioned :class:`RunReport`."""
        merged = {"seed": self.seed, "n_samples": self.n_samples}
        if meta:
            merged.update(meta)
        return self.obs.run_report(meta=merged)

    def write_trace(self, path, indent: int = 2,
                    meta: Optional[Dict] = None) -> RunReport:
        """Write :meth:`run_report` to ``path`` as JSON; returns it."""
        from pathlib import Path

        report = self.run_report(meta=meta)
        Path(path).write_text(report.to_json(indent=indent))
        return report


# ---------------------------------------------------------------------------
# Experiment runners (one per table)
# ---------------------------------------------------------------------------


@dataclass
class TableOneRow:
    """One Table I row: a model/recipe over both suites."""

    label: str
    machine: Dict[str, float]
    human: Dict[str, float]

    def cells(self) -> List[float]:
        return [
            self.machine["pass@1"], self.machine["pass@5"],
            self.machine["pass@10"],
            self.human["pass@1"], self.human["pass@5"],
            self.human["pass@10"],
        ]


def run_table1(
    pyranet: PyraNet,
    profile_names: Sequence[str] = (
        CODELLAMA_7B.name, CODELLAMA_13B.name, DEEPSEEK_7B.name
    ),
    recipes: Sequence[str] = ("baseline", "dataset", "architecture"),
    sota_recipes: Sequence[Tuple[str, str]] = (
        ("mgverilog", CODELLAMA_7B.name),
        ("rtlcoder", DEEPSEEK_7B.name),
        ("origen", DEEPSEEK_7B.name),
    ),
    n_problems: Optional[int] = None,
) -> List[TableOneRow]:
    """Reproduce Table I: SOTA recipes + the 3×3 model/recipe grid."""
    rows: List[TableOneRow] = []
    for recipe, profile in sota_recipes:
        model = pyranet.finetune(profile, recipe=recipe)
        label = f"{recipe}-{profile}"
        rows.append(_evaluate_both(pyranet, model, label, n_problems))
    for profile in profile_names:
        for recipe in recipes:
            model = pyranet.finetune(profile, recipe=recipe)
            label = f"{profile} {recipe}"
            rows.append(_evaluate_both(pyranet, model, label, n_problems))
    return rows


def _evaluate_both(
    pyranet: PyraNet,
    model: FineTunable,
    label: str,
    n_problems: Optional[int],
) -> TableOneRow:
    machine = pyranet.evaluate(model, "machine", n_problems, label)
    human = pyranet.evaluate(model, "human", n_problems, label)
    return TableOneRow(
        label=label,
        machine=machine.summary((1, 5, 10)),
        human=human.summary((1, 5, 10)),
    )


def run_table4(
    pyranet: PyraNet,
    profile_name: str = CODELLAMA_7B.name,
    n_problems: Optional[int] = None,
) -> Dict[str, TableOneRow]:
    """Reproduce Table IV: correct vs erroneous (shuffled) dataset."""
    erroneous = pyranet.erroneous_dataset()
    model_bad = pyranet.finetune(profile_name, recipe="dataset",
                                 dataset=erroneous)
    row_bad = _evaluate_both(
        pyranet, model_bad, f"{profile_name} erroneous", n_problems
    )
    model_good = pyranet.finetune(profile_name, recipe="dataset")
    row_good = _evaluate_both(
        pyranet, model_good, f"{profile_name} correct", n_problems
    )
    return {"erroneous": row_bad, "correct": row_good}


def gains(row: TableOneRow, reference: TableOneRow) -> List[float]:
    """Per-column deltas (Table III derivation)."""
    return [round(a - b, 1) for a, b in zip(row.cells(),
                                            reference.cells())]
