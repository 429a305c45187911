"""End-to-end dataset curation (paper Section III-A).

:class:`CurationPipeline` turns a raw file population (scraped +
LLM-generated) into a layered :class:`~.records.PyraNetDataset`.  It is
a composition of named stages over the generic
:class:`~repro.pipeline.StagedPipeline` engine:

1. ``empty_broken`` / ``module_decl`` — the cheap filters;
2. ``dedup`` — Jaccard over token shingles (batch, cross-record);
3. ``syntax_check`` — the expensive compile check, last, on the
   reduced set; classifies clean vs dependency-only (cached);
4. ``rank_label`` / ``describe`` — 0–20 ranking, complexity tier,
   design description (cached);
5. ``assemble`` / ``layer`` — dataset rows and the six-tier pyramid.

Descriptions supplied by the generation pipeline (the design prompt the
sample was generated from) are kept; scraped files get AST-derived
descriptions.  Per-record stages run through a
:class:`~repro.pipeline.ParallelExecutor` (serial by default; thread or
process pools opt-in) and memoise pure per-file work in a shared
:class:`~repro.pipeline.ResultCache`.  The run's
:class:`~repro.pipeline.PipelineTrace` — per-stage wall time, in/out
counts, drop reasons, cache hit rates — rides on the report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..corpus.github_sim import RawFile
from ..corpus.llm_sim import GeneratedSample, strip_markdown_fences
from ..obs import Observability, resolve
from ..obs.reportable import strip_schema
from ..pipeline import (
    BatchStage,
    Drop,
    Keep,
    ParallelExecutor,
    PipelineTrace,
    Record,
    RecordStage,
    ResultCache,
    StagedPipeline,
)
from ..resilience.runtime import Resilience
from .complexity import classify_code
from .describe import describe_source, family_description
from .families import FamilyIndex, FamilyReport, build_family_artifacts, module_names
from .filters import FunnelStats, has_module, is_readable, syntax_filter
from .layering import LayerReport, assign_layers
from .ranking import score_code
from .records import CompileStatus, DatasetEntry, PyraNetDataset
from ..verilog.formal import verify_code
from ..verilog.frontend import FrontEndMemo


@dataclass
class PipelineReport:
    """Everything the pipeline measured while curating."""

    schema = "pyranet/curation-report/v1"

    funnel: FunnelStats = field(default_factory=FunnelStats)
    layers: LayerReport = field(default_factory=LayerReport)
    n_collected_github: int = 0
    n_generated_llm: int = 0
    trace: Optional[PipelineTrace] = None
    #: Design-family clustering of the run's dedup decisions (None on
    #: reports serialised before the subsystem existed).
    families: Optional[FamilyReport] = None

    def summary_lines(self) -> List[str]:
        lines = [
            f"collected (github): {self.n_collected_github}",
            f"generated (llm):    {self.n_generated_llm}",
            f"after empty/broken: {self.funnel.after_empty_broken}",
            f"after module decl:  {self.funnel.after_module_decl}",
            f"after dedup:        {self.funnel.after_dedup}",
            f"after syntax check: {self.funnel.after_syntax}"
            f"  (clean {self.funnel.clean}, "
            f"dependency-only {self.funnel.dependency_only})",
        ]
        if self.families is not None and self.families.n_families:
            lines.append(
                f"design families:    {self.families.n_families} "
                f"({self.families.n_variants} variant(s))")
        for number, size in self.layers.pyramid_rows():
            lines.append(f"layer {number}: {size}")
        return lines

    def to_dict(self) -> Dict:
        return {
            "funnel": self.funnel.to_dict(),
            "layers": self.layers.to_dict(),
            "n_collected_github": self.n_collected_github,
            "n_generated_llm": self.n_generated_llm,
            "trace": self.trace.to_dict() if self.trace else None,
            "families": (self.families.to_dict()
                         if self.families is not None else None),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "PipelineReport":
        data = strip_schema(data)
        trace = data.get("trace")
        families = data.get("families")
        return cls(
            funnel=FunnelStats.from_dict(data["funnel"]),
            layers=LayerReport.from_dict(data["layers"]),
            n_collected_github=data["n_collected_github"],
            n_generated_llm=data["n_generated_llm"],
            trace=PipelineTrace.from_dict(trace) if trace else None,
            families=(FamilyReport.from_dict(families)
                      if families else None),
        )

    @classmethod
    def from_json(cls, text: str) -> "PipelineReport":
        return cls.from_dict(json.loads(text))


# -- per-record stage functions (module-level: process-pool picklable) --


def _readable_stage(content: str):
    decision = is_readable(content)
    return Keep() if decision.kept else Drop(decision.reason)


def _module_stage(content: str):
    decision = has_module(content)
    return Keep() if decision.kept else Drop(decision.reason)


def _syntax_stage(content: str):
    decision, result = syntax_filter(content)
    if not decision.kept:
        return Drop("syntax error")
    return Keep(meta={"check_result": result})


def _rank_label_stage(content: str):
    return Keep(meta={
        "ranking": score_code(content),
        "complexity": classify_code(content),
    })


def _describe_stage(content: str):
    return Keep(meta={"auto_description": describe_source(content)})


def _formal_verify_stage(content: str):
    verified, detail = verify_code(content)
    return Keep(meta={"verified": verified, "verified_detail": detail})


def _needs_description(record: Record) -> bool:
    return not record.meta["provenance"]["description"]


def _formal_candidate(record: Record) -> bool:
    """The verified tier sits above layer 1: only clean, 20/20 entries
    are worth the formal check (everything else can never enter it)."""
    return (record.meta["ranking"] == 20
            and record.meta["check_result"].status == "clean")


@dataclass
class CurationPipeline:
    """Configurable curation run.

    Args:
        dedup_threshold: Jaccard similarity above which files are
            considered duplicates.
        seed: used only for entry-id generation stability.
        executor: per-record work executor; defaults to serial.  A
            thread/process executor produces identical output (stage
            functions are pure and order is preserved) — parallelism is
            opt-in purely so callers control the concurrency footprint.
        cache: shared content-hash cache for syntax/ranking/description
            work; a fresh private cache when not supplied.
        obs: observability handle; stage and worker spans plus the
            published trace land in its registry for the run report.
        resilience: resilience runtime — per-record stages run behind
            retry/quarantine shields, batch stages retry whole, and
            when its checkpointer is set the run journals progress and
            resumes byte-identically after a kill.
        keep_variants: keep dedup-dropped near-duplicates in the
            dataset as family-tagged variant rows instead of discarding
            them.  Canonical selection, family ids and similarities are
            unchanged; the funnel simply stops removing at the dedup
            stage.
    """

    dedup_threshold: float = 0.8
    seed: int = 0
    executor: Optional[ParallelExecutor] = None
    cache: Optional[ResultCache] = None
    obs: Optional[Observability] = None
    resilience: Optional[Resilience] = None
    keep_variants: bool = False

    def run(
        self,
        raw_files: Sequence[RawFile],
        generated: Sequence[GeneratedSample] = (),
    ) -> "CurationResult":
        """Curate ``raw_files`` + ``generated`` into a layered dataset.

        The run is one front-end memo scope: each distinct text is
        parsed once by whichever stage asks first (stages in pool
        threads or processes parse on their own).
        """
        obs = resolve(self.obs)
        with FrontEndMemo().scope(obs):
            return self._curate(raw_files, generated, obs)

    def _curate(
        self,
        raw_files: Sequence[RawFile],
        generated: Sequence[GeneratedSample],
        obs: Observability,
    ) -> "CurationResult":
        records = self._source_records(raw_files, generated)
        layer_holder: Dict[str, LayerReport] = {}
        family_holder: Dict[str, FamilyIndex] = {}
        engine = StagedPipeline(
            name="curation",
            stages=self._stages(layer_holder, family_holder),
            executor=(self.executor if self.executor is not None
                      else ParallelExecutor.serial()),
            # NB: an *empty* cache is falsy (it has __len__), so this
            # must be an identity check, not ``or``.
            cache=self.cache if self.cache is not None else ResultCache(),
            obs=obs,
            resilience=self.resilience,
            checkpoint_extra=(self.seed, self.dedup_threshold,
                              self.keep_variants),
        )
        result = engine.run(records=records)
        obs.counter("curation.runs").inc()
        obs.counter("curation.files_in").inc(len(records))

        dataset = PyraNetDataset()
        for record in result.records:
            dataset.add(record.value)
        layers = layer_holder.get("report")
        if layers is None:
            # The layer stage was restored from a checkpoint journal, so
            # its side-channel report never fired; recompute it from the
            # (identical) surviving entries.
            layers = assign_layers([record.value
                                    for record in result.records])
        family_index = family_holder.get("index")
        if family_index is None:
            # Same story for the dedup stage's side channel: replay the
            # cheap filters over the (identical) source records and
            # rebuild the family index deterministically.
            family_index = self._recompute_families(records)
        for record in result.records:
            info = record.meta.get("family")
            if info:
                family_index.attach_entry(record.index,
                                          record.value.entry_id)
                if info["role"] == "canonical":
                    family_index.attach_descriptions(
                        record.index, family_description(record.value.code))
        obs.counter("curation.families").inc(family_index.n_families)
        obs.counter("curation.family_variants").inc(
            family_index.n_variants)
        report = PipelineReport(
            funnel=self._funnel_from(result.trace, dataset),
            layers=layers,
            n_collected_github=len(raw_files),
            n_generated_llm=len(generated),
            trace=result.trace,
            families=family_index.report(),
        )
        return CurationResult(dataset=dataset, report=report)

    # -- wiring -------------------------------------------------------------

    @staticmethod
    def _source_records(
        raw_files: Sequence[RawFile],
        generated: Sequence[GeneratedSample],
    ) -> List[Record]:
        records: List[Record] = []
        for f in raw_files:
            records.append(Record(len(records), f.content, {"provenance": {
                "origin": f.origin, "path": f.path, "description": None,
            }}))
        for sample in generated:
            content = strip_markdown_fences(sample.raw_response)
            records.append(Record(len(records), content, {"provenance": {
                "origin": "llm",
                "path": f"llm/{sample.design.module_name}.v",
                "description": sample.design.description,
            }}))
        return records

    def _stages(self, layer_holder: Dict, family_holder: Dict) -> List:
        return [
            RecordStage("empty_broken", _readable_stage, parallel=False),
            RecordStage("module_decl", _module_stage, parallel=False),
            BatchStage("dedup", _make_dedup_batch(self, family_holder)),
            RecordStage("syntax_check", _syntax_stage,
                        cache_namespace="curation/syntax"),
            RecordStage("rank_label", _rank_label_stage,
                        cache_namespace="curation/rank"),
            RecordStage("formal_verify", _formal_verify_stage,
                        cache_namespace="curation/formal",
                        when=_formal_candidate),
            RecordStage("describe", _describe_stage,
                        cache_namespace="curation/describe",
                        when=_needs_description),
            BatchStage("assemble", self._assemble_batch),
            BatchStage("layer", _make_layer_batch(layer_holder)),
        ]

    def _dedup_batch(
        self, records: List[Record], family_holder: Dict
    ) -> Tuple[List[Record], List[Tuple[Record, str]]]:
        if not records:
            family_holder["index"] = FamilyIndex.empty(
                self.seed, self.dedup_threshold)
            return records, []
        by_index = {record.index: record for record in records}

        def meta_for(index: int) -> Dict:
            record = by_index[index]
            provenance = record.meta["provenance"]
            return {"path": provenance["path"],
                    "origin": provenance["origin"],
                    "modules": module_names(record.value)}

        report, family_index = build_family_artifacts(
            [record.value for record in records],
            [record.index for record in records],
            meta_for, threshold=self.dedup_threshold, seed=self.seed)
        family_holder["index"] = family_index

        keep_positions = set(report.kept_indices)
        kept, dropped = [], []
        for position, record in enumerate(records):
            role = family_index.role_of(record.index)
            if role:
                family = family_index.family_of(record.index)
                record.meta["family"] = {
                    "id": family.family_id,
                    "role": role,
                    "similarity": family_index.similarity_of(record.index),
                    "n_variants": (len(family.variants)
                                   if role == "canonical" else 0),
                }
            if position in keep_positions or (self.keep_variants
                                              and role == "variant"):
                kept.append(record)
            else:
                dropped.append((record, "duplicate"))
        return kept, dropped

    def _recompute_families(
        self, records: Sequence[Record]
    ) -> FamilyIndex:
        """Rebuild the family index when the dedup stage was restored
        from a checkpoint journal (its side channel never fired):
        replay the two cheap filters over the source records and
        re-run the deterministic clustering."""
        survivors = [record for record in records
                     if is_readable(record.value).kept
                     and has_module(record.value).kept]
        if not survivors:
            return FamilyIndex.empty(self.seed, self.dedup_threshold)
        by_index = {record.index: record for record in survivors}

        def meta_for(index: int) -> Dict:
            record = by_index[index]
            provenance = record.meta["provenance"]
            return {"path": provenance["path"],
                    "origin": provenance["origin"],
                    "modules": module_names(record.value)}

        _report, family_index = build_family_artifacts(
            [record.value for record in survivors],
            [record.index for record in survivors],
            meta_for, threshold=self.dedup_threshold, seed=self.seed)
        return family_index

    def _assemble_batch(self, records: List[Record]) -> List[Record]:
        out: List[Record] = []
        for position, record in enumerate(records):
            meta = record.meta
            provenance = meta["provenance"]
            result = meta["check_result"]
            status = (
                CompileStatus.CLEAN
                if result.status == "clean"
                else CompileStatus.DEPENDENCY
            )
            description = (provenance["description"]
                           or meta.get("auto_description", ""))
            detail = ""
            if status is CompileStatus.DEPENDENCY:
                issues = result.dependency_issues
                detail = issues[0].message if issues else "dependency issues"
            entry = DatasetEntry(
                entry_id=f"pyranet-{self.seed}-{position:06d}",
                code=record.value,
                description=description,
                ranking=meta["ranking"],
                complexity=meta["complexity"],
                compile_status=status,
                compile_detail=detail,
                origin=provenance["origin"],
                source_path=provenance["path"],
                module_names=list(result.modules),
                verified=meta.get("verified", False),
                verified_detail=meta.get("verified_detail", ""),
            )
            family = meta.get("family")
            if family:
                entry.family_id = family["id"]
                entry.family_role = family["role"]
                entry.n_family_variants = family["n_variants"]
                entry.family_similarity = family["similarity"]
            out.append(Record(record.index, entry, dict(meta)))
        return out

    @staticmethod
    def _funnel_from(
        trace: PipelineTrace, dataset: PyraNetDataset
    ) -> FunnelStats:
        """Reconstruct the paper's funnel counters from the trace."""
        def stage(name):
            metrics = trace.stage(name)
            assert metrics is not None, name
            return metrics

        funnel = FunnelStats(
            collected=stage("empty_broken").n_in,
            after_empty_broken=stage("empty_broken").n_out,
            after_module_decl=stage("module_decl").n_out,
            after_dedup=stage("dedup").n_out,
            after_syntax=stage("syntax_check").n_out,
            clean=sum(1 for e in dataset
                      if e.compile_status is CompileStatus.CLEAN),
            dependency_only=sum(1 for e in dataset
                                if e.compile_status is CompileStatus.DEPENDENCY),
        )
        for name in ("empty_broken", "module_decl", "syntax_check"):
            dropped = stage(name).n_dropped
            if dropped:
                funnel.removed[name] = dropped
        # The legacy funnel reports the dedup count whenever the stage
        # saw input, even when nothing was removed.
        if stage("dedup").n_in:
            funnel.removed["dedup"] = stage("dedup").n_dropped
        return funnel


def _make_dedup_batch(pipeline: "CurationPipeline", holder: Dict):
    """Bind the run's family holder into the dedup batch stage (the
    same side-channel pattern as the layer stage below)."""
    def _dedup_batch(records: List[Record]):
        return pipeline._dedup_batch(records, holder)
    return _dedup_batch


def _make_layer_batch(holder: Dict):
    def _layer_batch(records: List[Record]) -> List[Record]:
        holder["report"] = assign_layers(
            [record.value for record in records]
        )
        return records
    return _layer_batch


@dataclass
class CurationResult:
    """A curated dataset plus its pipeline report."""

    schema = "pyranet/curation-result/v1"

    dataset: PyraNetDataset
    report: PipelineReport

    def to_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "entries": [entry.to_dict() for entry in self.dataset],
            "report": self.report.to_dict(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "CurationResult":
        data = strip_schema(data)
        dataset = PyraNetDataset()
        for item in data.get("entries", []):
            dataset.add(DatasetEntry.from_dict(item))
        return cls(
            dataset=dataset,
            report=PipelineReport.from_dict(data["report"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "CurationResult":
        return cls.from_dict(json.loads(text))


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
    stream: bool = False,
    workers: Optional[int] = None,
    batch_size: int = 256,
    spill_dir=None,
    keep_variants: bool = False,
) -> CurationResult:
    """One-call PyraNet construction at a configurable scale.

    Simulates the scrape, runs the commercial-LLM generation pipeline
    (Fig. 2), and curates everything into the six-layer dataset.

    With ``stream=True`` the scrape is consumed as a lazy batch stream
    through :class:`~.streaming.StreamingCurationPipeline` — the raw
    corpus is never materialised, and the result is byte-identical to
    the in-memory path.  ``workers=N`` (streaming only, N > 1) fans the
    fused stages out over a process pool unless an explicit ``executor``
    is given; ``spill_dir`` bounds survivor/shuffle memory with disk
    spill.
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

    if stream:
        from .streaming import (
            StreamingCurationPipeline,
            chain_batches,
            generated_batches,
            raw_file_batches,
        )

        if executor is None and workers and workers > 1:
            executor = ParallelExecutor(mode="process",
                                        max_workers=workers)
        streaming = StreamingCurationPipeline(
            dedup_threshold=dedup_threshold, seed=seed,
            batch_size=batch_size, executor=executor, obs=obs,
            resilience=resilience, spill_dir=spill_dir,
            keep_variants=keep_variants,
        )
        source = chain_batches(
            raw_file_batches(
                scraper.iter_scrape(n_github_files,
                                    batch_size=batch_size)),
            generated_batches(generated, batch_size=batch_size),
        )
        token = (f"build-pyranet:{seed}:{n_github_files}:"
                 f"{n_llm_prompts}:{n_queries_per_prompt}")
        return streaming.run_stream(source, source_token=token)

    raw_files = scraper.scrape(n_github_files)
    pipeline = CurationPipeline(
        dedup_threshold=dedup_threshold, seed=seed,
        executor=executor, cache=cache, obs=obs, resilience=resilience,
        keep_variants=keep_variants,
    )
    return pipeline.run(raw_files, generated)
