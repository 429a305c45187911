"""Dataset curation (paper Section III-A): one batched dataflow.

:class:`CurationPipeline` turns a raw file population (scraped +
LLM-generated) into a layered :class:`~.records.PyraNetDataset` without
ever materialising the corpus.  Records flow through three phases as
bounded batches, fanned out through
:meth:`~repro.pipeline.ParallelExecutor.stream_map`:

1. **filter + sign** (``empty_broken → module_decl`` fused per batch):
   the cheap filters, then each survivor's token shingles and MinHash
   signature.  Survivors are kept batch by batch, in memory or spilled
   under ``spill_dir``.
2. **dedup + families**: the Jaccard dedup decisions and the design
   families built from them (the reduce is chosen below).
3. **label** (``syntax_check → rank_label → formal_verify → describe``
   fused per batch, one front-end memo scope each, plus the family
   description of every canonical): the parent assembles
   :class:`DatasetEntry` rows in order (entry ids depend on the global
   post-syntax position, which only the parent knows), layers each
   batch with :func:`~.layering.assign_layers`, and hands entries to
   the caller — an in-memory dataset for :meth:`run` /
   :meth:`run_stream`, or a :class:`~repro.store.writer.ShardWriter`
   for :meth:`curate_to_store`, which never holds more than a shard.

**The dedup reduce follows where the survivors live.**  Phase 1 signs
each survivor's band keys once.  In memory, it returns them with the
survivor's shingle set and
:func:`~.families.build_family_artifacts` runs the sequential
:func:`~.dedup.deduplicate` and the collision forest over them.
Spilled to disk, holding every shingle set at once would defeat the
spill, so phase 1 routes band keys to partitions instead: each
partition emits its colliding pairs (:func:`~.dedup.band_candidate_pairs`,
a shared-nothing map side) and one ascending resolve pass over the
spilled survivors replays the sequential decisions exactly, holding
only the shingle sets still referenced by unresolved pairs.  Both
reduces decide through one rule, :meth:`~.dedup.DedupReport.decide`,
and build their collision forest with one builder,
:func:`~.families.collision_forest`.  The partitioned reduce is the
only one that bounds memory; the in-memory one expands no candidate
pairs and tokenises no survivor twice.  Both give the same bytes.

**Cache.**  A :class:`~repro.pipeline.ResultCache` holds each record's
label outcome under its content.  The parent looks records up before a
batch is dispatched and fills misses in when it returns, so workers
need no cache, and a warm run over an unchanged corpus recomputes no
syntax check, ranking, formal check or description.  The phase's hits
and misses are reported on the ``syntax_check`` stage.

**Resilience.**  With a :class:`~repro.resilience.Resilience` runtime,
each record's work at each label stage runs behind that stage's
:class:`~repro.resilience.StageShield` guard (sites
``stage.syntax_check``, ``stage.rank_label``, ``stage.formal_verify``,
``stage.describe``; call ordinals count in input order).  Guards cross
process pools; their retry and quarantine markers come back with the
batch and are settled in the parent.  A quarantined record is dropped
as ``quarantined:<error_type>`` at its stage and filed in the
dead-letter report.  With a checkpointer, phase-1 and phase-3 batches
are journaled as they complete and a killed run resumes without
recomputing them; the dedup reduce is recomputed from the (identical)
journaled phase-1 outputs.  Resuming requires re-supplying the same
source stream and ``source_token``.

**Telemetry.**  The trace is ``pipeline="curation"`` with one stage per
step (:data:`STAGE_NAMES`); counts and drops are per stage, and wall
time is charged to the first stage of each fused phase, which also
names the phase's span: ``curation.empty_broken``, ``curation.dedup``
and ``curation.syntax_check`` under ``pipeline.curation``.
"""

from __future__ import annotations

import heapq
import pickle
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import (Any, Collection, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from ..corpus.github_sim import RawFile
from ..corpus.llm_sim import GeneratedSample, strip_markdown_fences
from ..obs import Observability, resolve
from ..obs.reportable import Reportable
from ..pipeline import (ParallelExecutor, PipelineTrace, ResultCache,
                        StageMetrics, content_key)
from ..pipeline.executor import attach_run
from ..resilience.checkpoint import Checkpointer, ResumeState, run_signature
from ..resilience.runtime import Quarantined, Resilience, Retried
from ..resilience.runtime import resolve as resolve_resilience
from .complexity import classify_code
from .dedup import (
    BANDS,
    N_PERM,
    DedupReport,
    MinHasher,
    band_candidate_pairs,
    signature_band_keys,
    tokenize_for_dedup,
)
from .describe import describe_source, family_description
from .families import (
    FamilyForest,
    FamilyIndex,
    FamilyReport,
    build_family_artifacts,
    collision_forest,
    module_names,
)
from .filters import FunnelStats, has_module, is_readable, syntax_filter
from .layering import LayerReport, assign_layers
from .ranking import score_code
from .records import CompileStatus, DatasetEntry, PyraNetDataset
from ..verilog.formal import verify_code
from ..verilog.frontend import FrontEndMemo, publish_counts

PathLike = Union[str, Path]

#: Stage names, in order: the trace's stages and the funnel's source.
STAGE_NAMES = ("empty_broken", "module_decl", "dedup", "syntax_check",
               "rank_label", "formal_verify", "describe", "assemble",
               "layer")

#: Cache namespace of a record's label outcome.
_LABEL_NAMESPACE = "curation/label"

#: Part of every label outcome's cache key.  Bump when an outcome's
#: answer changes (compile check, ranking, formal or description
#: semantics); a persistent cache written before then misses instead of
#: serving stale labels.
LABEL_SCHEMA = "pyranet/curation-label/v1"

_SourceRecord = Tuple[str, Dict[str, Any]]  # (content, provenance)

#: A record's label outcome: ``(status, detail, modules, ranking,
#: complexity, verified, verified_detail, description,
#: family_description)`` — the two descriptions empty/None unless the
#: record needs them; ``None`` for a syntax error; or the
#: :class:`Quarantined` marker of the stage that gave up on it.
_Outcome = Union[tuple, None, Quarantined]

_MISS = object()


@dataclass
class PipelineReport(Reportable):
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


@dataclass
class CurationResult(Reportable):
    """A curated dataset plus its pipeline report.

    Serialised by hand: the JSON names the dataset's rows ``entries``,
    not ``dataset``.
    """

    schema = "pyranet/curation-result/v1"

    dataset: PyraNetDataset
    report: PipelineReport

    def to_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "entries": [entry.to_dict() for entry in self.dataset],
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CurationResult":
        dataset = PyraNetDataset()
        for item in data.get("entries", []):
            dataset.add(DatasetEntry.from_dict(item))
        return cls(
            dataset=dataset,
            report=PipelineReport.from_dict(data["report"]),
        )


# -- source adapters ----------------------------------------------------


def raw_file_batches(
    batches: Iterable[Sequence[RawFile]],
) -> Iterator[List[_SourceRecord]]:
    """Adapt a stream of :class:`RawFile` batches (e.g.
    :meth:`GitHubScrapeSimulator.iter_scrape`) to source records."""
    for batch in batches:
        yield [(f.content, {"origin": f.origin, "path": f.path,
                            "description": None}) for f in batch]


def generated_batches(
    samples: Iterable[GeneratedSample], batch_size: int = 256,
) -> Iterator[List[_SourceRecord]]:
    """Adapt LLM-generated samples to source-record batches."""
    batch: List[_SourceRecord] = []
    for sample in samples:
        content = strip_markdown_fences(sample.raw_response)
        batch.append((content, {
            "origin": "llm",
            "path": f"llm/{sample.design.module_name}.v",
            "description": sample.design.description,
        }))
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def chain_batches(*sources: Iterable[List[_SourceRecord]],
                  ) -> Iterator[List[_SourceRecord]]:
    """Concatenate batch streams (github scrape first, then LLM — the
    source order of :meth:`CurationPipeline.run`)."""
    for source in sources:
        for batch in source:
            yield batch


# -- worker functions (module-level: process-pool picklable) ------------


@lru_cache(maxsize=None)
def _hasher() -> MinHasher:
    """Per-process hasher: MinHasher's permutation tables are built
    once per worker process, not once per batch."""
    return MinHasher(N_PERM)


def _filter_sign_batch(payload: tuple) -> Dict[str, Any]:
    """Phase 1, fused per batch: ``empty_broken → module_decl``, then
    each survivor's MinHash signature and its LSH band keys — returned
    with its shingle set for the in-memory reduce, or as band-key
    emissions for the partitioned one."""
    batch_index, items, band_keys = payload
    hasher = _hasher()
    survivors: List[tuple] = []
    signed: List[tuple] = []
    emissions: List[tuple] = []
    drops: Dict[str, Dict[str, int]] = {"empty_broken": {},
                                        "module_decl": {}}
    n_llm = 0
    for index, content, provenance in items:
        if provenance.get("origin") == "llm":
            n_llm += 1
        decision = is_readable(content)
        if decision.kept:
            decision = has_module(content)
        if not decision.kept:
            stage_drops = drops[decision.stage]
            stage_drops[decision.reason] = (
                stage_drops.get(decision.reason, 0) + 1)
            continue
        shingles = tokenize_for_dedup(content)
        keys = signature_band_keys(hasher.signature(shingles), BANDS)
        if band_keys:
            emissions.extend((key, index) for key in keys)
        else:
            signed.append((shingles, keys))
        survivors.append((index, content, provenance))
    return {"batch": batch_index, "n_in": len(items), "n_llm": n_llm,
            "survivors": survivors, "signed": signed,
            "emissions": emissions, "drops": drops}


def _syntax_check(content: str) -> Optional[tuple]:
    """``(status, detail, modules)`` of a file that compiles, cleanly or
    with dependency issues only; None for a syntax error."""
    decision, result = syntax_filter(content)
    if not decision.kept:
        return None
    detail = ""
    if result.status != "clean":
        issues = result.dependency_issues
        detail = issues[0].message if issues else "dependency issues"
    return (("clean" if result.status == "clean" else "dependency"),
            detail, list(result.modules))


# Stage functions call their library functions by name when they run,
# so a patched or probed library function is the one that runs, even
# in a guard pickled into a worker process.


def _rank_label(content: str) -> tuple:
    return score_code(content), classify_code(content)


def _formal_verify(content: str) -> tuple:
    return verify_code(content)


def _describe(content: str) -> str:
    return describe_source(content)


#: The label stages in order, each with its per-record function.
_LABEL_STAGES = (("syntax_check", _syntax_check),
                ("rank_label", _rank_label),
                ("formal_verify", _formal_verify),
                ("describe", _describe))


def _call(guards: Dict[str, Any], stage: str, content: str,
          markers: List[tuple]) -> Any:
    """One stage's function (behind its guard, when the run has one)
    on ``content``; retry and quarantine markers are kept for the
    parent to settle, and a retried call's result is used as is."""
    outcome = guards[stage](content)
    if isinstance(outcome, (Retried, Quarantined)):
        markers.append((stage, outcome))
        if isinstance(outcome, Retried):
            return outcome.result
    return outcome


def _label(content: str, needs_description: bool, canonical: bool,
           guards: Dict[str, Any], markers: List[tuple]) -> _Outcome:
    """One record through the label stages (see :data:`_Outcome`); a
    family's canonical also gets its family description."""
    compiled = _call(guards, "syntax_check", content, markers)
    if compiled is None or isinstance(compiled, Quarantined):
        return compiled
    ranked = _call(guards, "rank_label", content, markers)
    if isinstance(ranked, Quarantined):
        return ranked
    verified: Any = (False, "")
    # Only clean 20/20 entries can enter the verified tier.
    if ranked[0] == 20 and compiled[0] == "clean":
        verified = _call(guards, "formal_verify", content, markers)
        if isinstance(verified, Quarantined):
            return verified
    description = ""
    if needs_description:
        description = _call(guards, "describe", content, markers)
        if isinstance(description, Quarantined):
            return description
    family = family_description(content) if canonical else None
    return compiled + ranked + tuple(verified) + (description, family)


def _label_batch(payload: tuple) -> Dict[str, Any]:
    """Phase 3, fused per batch in one front-end memo scope: the label
    outcome of each record the cache missed.  Plain picklable fields go
    back, with the memo's counts and the guards' markers."""
    misses, guards = payload
    markers: List[tuple] = []
    with FrontEndMemo().scope() as memo:
        outcomes = [_label(content, needs_description, canonical, guards,
                           markers)
                    for content, needs_description, canonical in misses]
    return {"outcomes": outcomes, "markers": markers,
            "memo": memo.stats()}


def _partition_pairs(arg: Tuple[str, str]) -> tuple:
    """Partitioned-dedup map side: one partition's collision pairs,
    sorted by (later, earlier) for the parent's streaming merge and
    written back to disk — a partition's pairs can be quadratic in its
    duplicate-cluster sizes (the map side cannot know which members the
    sequential algorithm would have dropped), so they must never ride
    home through the parent's memory wholesale.  Also returns
    per-earlier reference counts, so the parent can evict shingles
    without ever materialising the pair set, and the partition's
    **partial union-find forest** (node -> min-index component root):
    the parent merges the partial forests into the global LSH collision
    forest for family clustering."""
    in_path, out_path = arg
    emissions: List[tuple] = []
    with open(in_path, "rb") as handle:
        while True:
            try:
                emissions.extend(pickle.loads(
                    zlib.decompress(pickle.load(handle))))
            except EOFError:
                break
    forest = collision_forest(emissions).compressed()
    pairs = band_candidate_pairs(emissions)
    pairs.sort(key=lambda pair: (pair[1], pair[0]))
    refcounts: Dict[int, int] = {}
    for earlier, _later in pairs:
        refcounts[earlier] = refcounts.get(earlier, 0) + 1
    with open(out_path, "wb") as handle:
        for start in range(0, len(pairs), 8192):
            pickle.dump(pairs[start:start + 8192], handle, protocol=4)
    return out_path, sorted(refcounts.items()), forest


def _pair_stream(path: str) -> Iterator[Tuple[int, int]]:
    """Lazily re-read one partition's (later, earlier)-sorted pairs."""
    with open(path, "rb") as handle:
        while True:
            try:
                chunk = pickle.load(handle)
            except EOFError:
                return
            yield from chunk


# -- bounded spill primitives ------------------------------------------


class _BatchSpill:
    """Ordered store of survivor batches: a dict in memory, or one
    zlib-compressed pickle per batch under ``directory``."""

    def __init__(self, directory: Optional[Path]) -> None:
        self._dir = directory
        self._mem: Dict[int, Any] = {}
        self.n_batches = 0
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)

    def _path(self, index: int) -> Path:
        assert self._dir is not None
        return self._dir / f"batch-{index:06d}.pkl.z"

    def put(self, index: int, payload: Any) -> None:
        if self._dir is None:
            self._mem[index] = payload
        else:
            self._path(index).write_bytes(
                zlib.compress(pickle.dumps(payload, protocol=4)))
        self.n_batches = max(self.n_batches, index + 1)

    def get(self, index: int) -> Any:
        if self._dir is None:
            return self._mem[index]
        return pickle.loads(zlib.decompress(self._path(index).read_bytes()))

    def iter_payloads(self) -> Iterator[Any]:
        for index in range(self.n_batches):
            yield self.get(index)

    def cleanup(self) -> None:
        if self._dir is None:
            self._mem.clear()
            return
        for index in range(self.n_batches):
            try:
                self._path(index).unlink()
            except OSError:
                pass


class _PartitionSpill:
    """Band-key emission shuffle of a spilled run: one append-only file
    of compressed chunks per partition under ``directory``."""

    def __init__(self, n_partitions: int, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.n_partitions = n_partitions
        self._paths = [directory / f"partition-{p:03d}.pkl"
                       for p in range(n_partitions)]
        self._handles = [path.open("wb") for path in self._paths]

    def add(self, emissions: Sequence[tuple]) -> None:
        """Route ``(band_key, index)`` emissions to their partitions."""
        chunks: List[List[tuple]] = [[] for _ in self._paths]
        for key, index in emissions:
            chunks[key[0] % self.n_partitions].append((key, index))
        for handle, chunk in zip(self._handles, chunks):
            if chunk:
                pickle.dump(zlib.compress(pickle.dumps(chunk, protocol=4)),
                            handle)

    def worker_args(self) -> List[Tuple[str, str]]:
        for handle in self._handles:
            handle.close()
        return [(str(path), str(path) + ".pairs") for path in self._paths]

    def cleanup(self) -> None:
        for handle in self._handles:
            if not handle.closed:
                handle.close()
        for path in self._paths:
            for victim in (path, Path(str(path) + ".pairs")):
                try:
                    victim.unlink()
                except OSError:
                    pass


@dataclass
class StreamingStoreResult:
    """Outcome of :meth:`CurationPipeline.curate_to_store`."""

    manifest: Any
    report: PipelineReport


@dataclass
class _Run:
    """One run's moving parts: executor, telemetry, journal, spill and
    the counts the trace and funnel are built from."""

    executor: ParallelExecutor
    obs: Observability
    res: Resilience
    ckpt: Optional[Checkpointer]
    state: Optional[ResumeState]
    spill: _BatchSpill
    shuffle: Optional[_PartitionSpill]
    counters: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("collected", "n_llm", "survivors", "clean", "dependency"), 0))
    drops: Dict[str, Dict[str, int]] = field(
        default_factory=lambda: {name: {} for name in STAGE_NAMES})
    walls: Dict[str, float] = field(default_factory=dict)
    #: In-memory runs: (shingle set, band keys) per survivor, until the
    #: dedup reduce has consumed them.
    signed: List[tuple] = field(default_factory=list)

    def drop(self, stage: str, reason: str, count: int = 1) -> None:
        drops = self.drops[stage]
        drops[reason] = drops.get(reason, 0) + count


@dataclass
class CurationPipeline:
    """The curation run: filters, Jaccard dedup, syntax check, ranking,
    formal check, descriptions and the six layers.

    Args:
        dedup_threshold: Jaccard similarity at or above which a file is
            a duplicate of an earlier kept one.
        seed: used for entry ids and family ids.
        batch_size: records per batch (the unit of worker dispatch,
            spill, and checkpointing).
        n_partitions: shared-nothing partitions for a spilled run's
            dedup map side (any value produces identical decisions).
        executor: worker fan-out; serial by default.  ``thread`` and
            ``process`` modes produce identical output — stage work is
            pure and :meth:`ParallelExecutor.stream_map` preserves
            order.
        cache: content-hash cache for each record's label outcome; the
            label phase runs uncached without one.
        obs: observability; phases become spans, the trace is
            published, and ``proc.rss_peak_bytes`` is sampled at span
            exits.
        resilience: label-stage work runs behind per-record
            retry/quarantine guards; when its checkpointer is set,
            batches journal as they complete and a killed run resumes
            byte-identically.
        spill_dir: directory for survivor batches and the band-key
            shuffle.  ``None`` keeps survivors in memory (fine for
            tests and corpora that fit); pass a directory for the
            memory-bounded guarantee.
        keep_variants: keep dedup-dropped near-duplicates in the
            dataset as family-tagged variant rows instead of discarding
            them.  Canonical selection, family ids and similarities are
            unchanged; the funnel simply stops removing at the dedup
            stage.
    """

    dedup_threshold: float = 0.8
    seed: int = 0
    batch_size: int = 256
    n_partitions: int = 4
    executor: Optional[ParallelExecutor] = None
    cache: Optional[ResultCache] = None
    obs: Optional[Observability] = None
    resilience: Optional[Resilience] = None
    spill_dir: Optional[PathLike] = None
    keep_variants: bool = False

    def __post_init__(self) -> None:
        for name in ("batch_size", "n_partitions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, "
                                 f"got {getattr(self, name)}")

    # -- public entry points -------------------------------------------

    def run(self, raw_files: Sequence[RawFile],
            generated: Sequence[GeneratedSample] = ()) -> CurationResult:
        """Curate ``raw_files`` + ``generated`` into a layered dataset:
        :meth:`run_stream` over batches of them."""
        records: List[_SourceRecord] = []
        for batch in chain_batches(raw_file_batches([raw_files]),
                                   generated_batches(generated)):
            records.extend(batch)
        res = resolve_resilience(self.resilience)
        token = (run_signature(records, STAGE_NAMES)
                 if res.enabled and res.checkpointer is not None else "")
        size = self.batch_size
        return self.run_stream(
            (records[start:start + size]
             for start in range(0, len(records), size)),
            source_token=token)

    def run_stream(self, batches: Iterable[List[_SourceRecord]],
                   source_token: str = "") -> CurationResult:
        """Curate a batch stream into an in-memory dataset + report.

        ``source_token`` names the source for checkpoint signatures —
        resuming requires the same token and a source that replays the
        same records.
        """
        dataset = PyraNetDataset()
        holder: Dict[str, Any] = {}
        for entry in self._entries(batches, holder, source_token):
            dataset.add(entry)
        return CurationResult(dataset=dataset, report=holder["report"])

    def curate_to_store(
        self, batches: Iterable[List[_SourceRecord]],
        directory: PathLike,
        source_token: str = "",
        max_shard_bytes: Optional[int] = None,
        store_meta: Optional[dict] = None,
    ) -> StreamingStoreResult:
        """Curate a batch stream straight into a sharded store.

        Entries flow from the label workers into the
        :class:`~repro.store.writer.ShardWriter` as they are assembled
        — at no point is the dataset, or more than a shard of it, held
        in memory.
        """
        from ..store.writer import DEFAULT_SHARD_BYTES, ShardWriter

        holder: Dict[str, Any] = {}
        writer = ShardWriter(
            directory,
            max_shard_bytes=max_shard_bytes or DEFAULT_SHARD_BYTES,
            obs=self.obs, resilience=self.resilience)
        manifest = writer.write(
            self._entries(batches, holder, source_token),
            meta=store_meta)
        return StreamingStoreResult(manifest=manifest,
                                    report=holder["report"])

    # -- the dataflow ---------------------------------------------------

    def _entries(self, batches: Iterable[List[_SourceRecord]],
                 holder: Dict[str, Any],
                 source_token: str) -> Iterator[DatasetEntry]:
        """The whole dataflow as one entry generator; fills
        ``holder['report']`` when exhausted."""
        executor = (self.executor if self.executor is not None
                    else ParallelExecutor.serial())
        obs = resolve(self.obs)
        res = resolve_resilience(self.resilience)
        ckpt = res.checkpointer if res.enabled else None
        state = None
        if ckpt is not None:
            signature = run_signature([], STAGE_NAMES, extra=(
                "curation", self.seed, self.dedup_threshold,
                self.batch_size, self.n_partitions,
                self.spill_dir is not None, self.keep_variants,
                source_token))
            state = ckpt.begin(signature)
            if state.fresh:
                state = None
        spill_root = Path(self.spill_dir) if self.spill_dir else None
        run = _Run(
            executor=executor, obs=obs, res=res, ckpt=ckpt, state=state,
            spill=_BatchSpill(
                spill_root / "survivors" if spill_root else None),
            shuffle=(_PartitionSpill(self.n_partitions,
                                     spill_root / "partitions")
                     if spill_root else None))
        cache = self.cache
        # NB: an empty cache is falsy (it has __len__): identity checks.
        cache_before = ((cache.hits, cache.misses) if cache is not None
                        else (0, 0))
        layers = LayerReport()

        started = time.perf_counter()
        try:
            with attach_run(executor, obs, res), \
                    obs.span("pipeline.curation") as root:
                phase_started = time.perf_counter()
                with obs.span("curation.empty_broken") as span:
                    span.meta["n_batches"] = self._filter_and_sign(
                        batches, run)
                    span.meta["n_survivors"] = run.counters["survivors"]
                run.walls["empty_broken"] = (time.perf_counter()
                                             - phase_started)

                phase_started = time.perf_counter()
                with obs.span("curation.dedup") as span:
                    if run.shuffle is None:
                        duplicates, pairs_checked, family_index = (
                            self._dedup_in_memory(run))
                    else:
                        span.meta["n_partitions"] = self.n_partitions
                        duplicates, pairs_checked, family_index = (
                            self._dedup_partitioned(run))
                    span.meta["n_duplicates"] = len(duplicates)
                    span.meta["candidate_pairs_checked"] = pairs_checked
                    span.meta["n_families"] = family_index.n_families
                run.walls["dedup"] = time.perf_counter() - phase_started
                # Variant rows survive the dedup stage under
                # keep_variants, so the trace sees zero dedup drops.
                if duplicates and not self.keep_variants:
                    run.drop("dedup", "duplicate", len(duplicates))
                obs.counter("curation.families").inc(
                    family_index.n_families)
                obs.counter("curation.family_variants").inc(
                    family_index.n_variants)

                phase_started = time.perf_counter()
                with obs.span("curation.syntax_check") as span:
                    for entry in self._label_phase(run, duplicates,
                                                   family_index, layers):
                        yield entry
                    n_entries = (run.counters["clean"]
                                 + run.counters["dependency"])
                    span.meta["n_entries"] = n_entries
                run.walls["syntax_check"] = (time.perf_counter()
                                             - phase_started)
                root.meta["n_input"] = run.counters["collected"]
                root.meta["n_output"] = n_entries
        finally:
            run.spill.cleanup()
            if run.shuffle is not None:
                run.shuffle.cleanup()

        trace = self._trace(run, time.perf_counter() - started)
        if cache is not None:
            syntax = trace.stage("syntax_check")
            syntax.cache_hits = cache.hits - cache_before[0]
            syntax.cache_misses = cache.misses - cache_before[1]
            trace.meta["cache"] = cache.stats()
            # Disk-tier entries are written atomically but unsynced
            # during the run; one directory flush makes them durable.
            cache.sync_disk()
        if res.enabled:
            trace.meta["resilience"] = res.summary()
        obs.publish_trace(trace)
        obs.counter("curation.runs").inc()
        obs.counter("curation.files_in").inc(run.counters["collected"])
        if ckpt is not None:
            ckpt.finish({"n_entries": n_entries})
        holder["report"] = PipelineReport(
            funnel=self._funnel(trace, run),
            layers=layers,
            n_collected_github=(run.counters["collected"]
                                - run.counters["n_llm"]),
            n_generated_llm=run.counters["n_llm"],
            trace=trace,
            families=family_index.report(),
        )

    def _filter_and_sign(self, batches: Iterable[List[_SourceRecord]],
                         run: _Run) -> int:
        """Phase 1; returns the number of batches."""
        state = run.state
        completed = state.completed_batches(0) if state is not None else 0
        counts = {"batches": 0, "resumed": 0}

        def absorb(payload: Dict[str, Any]) -> None:
            run.counters["collected"] += payload["n_in"]
            run.counters["n_llm"] += payload["n_llm"]
            run.counters["survivors"] += len(payload["survivors"])
            for stage, stage_drops in payload["drops"].items():
                for reason, count in stage_drops.items():
                    run.drop(stage, reason, count)
            run.spill.put(payload["batch"], payload["survivors"])
            if run.shuffle is None:
                run.signed.extend(payload["signed"])
            else:
                run.shuffle.add(payload["emissions"])

        def live_payloads() -> Iterator[tuple]:
            next_index = 0
            for batch_index, batch in enumerate(batches):
                items = [(next_index + offset, content, provenance)
                         for offset, (content, provenance)
                         in enumerate(batch)]
                next_index += len(items)
                counts["batches"] = batch_index + 1
                if batch_index < completed:
                    # Journaled batch: replay the committed outputs; the
                    # source is still consumed so indices stay aligned.
                    absorb(state.batch_result(0, batch_index))
                    counts["resumed"] += 1
                else:
                    yield batch_index, items, run.shuffle is not None

        for payload in run.executor.stream_map(_filter_sign_batch,
                                               live_payloads()):
            if run.ckpt is not None:
                run.ckpt.record_batch(0, payload["batch"],
                                      "curation.empty_broken", payload)
            absorb(payload)
        if counts["resumed"]:
            run.res.record_resumed(batches=counts["resumed"])
        return counts["batches"]

    def _dedup_in_memory(self, run: _Run
                         ) -> Tuple[Collection[int], int, FamilyIndex]:
        """The reduce for survivors held in memory: sequential dedup and
        the collision forest over the band keys phase 1 made."""
        survivors = {index: (content, provenance)
                     for batch in run.spill.iter_payloads()
                     for index, content, provenance in batch}
        indices = list(survivors)
        shingle_sets = [shingles for shingles, _ in run.signed]
        band_keys = [keys for _, keys in run.signed]
        run.signed = []  # the reduce is their last use

        def meta_for(index: int) -> Dict[str, Any]:
            content, provenance = survivors[index]
            return {"path": provenance["path"],
                    "origin": provenance["origin"],
                    "modules": module_names(content)}

        report, family_index = build_family_artifacts(
            [survivors[index][0] for index in indices], indices, meta_for,
            threshold=self.dedup_threshold, seed=self.seed,
            shingle_sets=shingle_sets, band_keys=band_keys)
        duplicates = {indices[position] for position in report.duplicate_of}
        return duplicates, report.candidate_pairs_checked, family_index

    def _dedup_partitioned(self, run: _Run
                           ) -> Tuple[Collection[int], int, FamilyIndex]:
        """The reduce for spilled survivors: map per partition, then zip
        a streaming merge of the partition pair streams against one
        ascending pass over the spilled survivors, deciding each through
        :meth:`~.dedup.DedupReport.decide` — the decisions (and the
        candidate-pairs-checked count) equal :func:`~.dedup.deduplicate`
        exactly; :func:`~.dedup.band_candidate_pairs` says why.

        The pair set is never materialised in this process: each
        partition's pairs arrive (later, earlier)-sorted from disk and
        ``heapq.merge`` hands the resolve loop one index's candidates at
        a time.  Parent-side dedup state is the per-earlier reference
        counts (ints), the drop decisions, and the shingle sets (plus
        family metadata) of kept files still awaited by unresolved
        pairs.

        Also merges the workers' partial collision forests into the
        global one and captures path/origin/module metadata for each
        family member at decision time — the same family inputs the
        in-memory reduce derives.
        """
        results = run.executor.map(_partition_pairs,
                                   run.shuffle.worker_args())

        # How many raw pairs still reference each earlier index;
        # shingles are retained only while referenced.  Counts are per
        # raw (pre-merge) pair and so is the decrement below, so the
        # count hits zero exactly at the last reference even when two
        # partitions emitted the same pair via different bands.
        refcount: Dict[int, int] = {}
        forest = FamilyForest()
        for _path, counts, partial in results:
            for earlier, count in counts:
                refcount[earlier] = refcount.get(earlier, 0) + count
            forest.merge(partial)
        merged = heapq.merge(
            *(_pair_stream(path) for path, _counts, _partial in results),
            key=lambda pair: (pair[1], pair[0]))
        pending = next(merged, None)

        # Shingle sets and metadata of referenced *kept* files only: a
        # candidate is still kept exactly when its shingles are held.
        shingles: Dict[int, Any] = {}
        kept_meta: Dict[int, Dict[str, Any]] = {}
        report = DedupReport()
        family_meta: Dict[int, Dict[str, Any]] = {}
        for batch in run.spill.iter_payloads():
            for index, content, provenance in batch:
                referenced = index in refcount
                # Drain this index's candidates from the merged stream:
                # ascending by earlier, cross-partition duplicates
                # collapsed for the decision but decremented raw.
                candidates: List[int] = []
                consumed: List[int] = []
                while pending is not None and pending[1] <= index:
                    earlier = pending[0]
                    if pending[1] == index:
                        if not candidates or candidates[-1] != earlier:
                            candidates.append(earlier)
                        consumed.append(earlier)
                    pending = next(merged, None)
                own_shingles = (tokenize_for_dedup(content)
                                if (referenced or candidates) else None)
                dropped = report.decide(
                    index, own_shingles,
                    ((candidate, shingles[candidate])
                     for candidate in candidates if candidate in shingles),
                    self.dedup_threshold)
                if dropped:
                    # Capture family metadata now, while the canonical's
                    # refcounted state is guaranteed to still be alive.
                    duplicate = report.duplicate_of[index]
                    family_meta[index] = {
                        "path": provenance["path"],
                        "origin": provenance["origin"],
                        "modules": module_names(content)}
                    if duplicate not in family_meta:
                        family_meta[duplicate] = kept_meta[duplicate]
                for candidate in consumed:
                    remaining = refcount.get(candidate, 0) - 1
                    if remaining <= 0:
                        refcount.pop(candidate, None)
                        shingles.pop(candidate, None)
                        kept_meta.pop(candidate, None)
                    else:
                        refcount[candidate] = remaining
                if referenced and not dropped:
                    shingles[index] = own_shingles
                    kept_meta[index] = {
                        "path": provenance["path"],
                        "origin": provenance["origin"],
                        "modules": module_names(content)}
        run.shuffle.cleanup()
        family_index = FamilyIndex.build(
            report.duplicate_of, report.similarities, forest, family_meta,
            seed=self.seed, threshold=self.dedup_threshold)
        return (report.duplicate_of, report.candidate_pairs_checked,
                family_index)

    def _label_phase(self, run: _Run, duplicates: Collection[int],
                     family_index: FamilyIndex,
                     layers: LayerReport) -> Iterator[DatasetEntry]:
        """Phase 3: label outcomes assembled into layered entries, in
        order, batch by batch."""
        position = 0
        for kept, outcomes in self._label_outcomes(run, duplicates,
                                                   family_index):
            entries: List[DatasetEntry] = []
            for (index, content, provenance), outcome in zip(kept,
                                                             outcomes):
                if outcome is None:
                    run.drop("syntax_check", "syntax error")
                    continue
                if isinstance(outcome, Quarantined):
                    run.drop(outcome.site[len("stage."):],
                             f"quarantined:{outcome.error_type}")
                    continue
                (status, detail, modules, ranking, complexity, verified,
                 verified_detail, description, family_text) = outcome
                entry = DatasetEntry(
                    entry_id=f"pyranet-{self.seed}-{position:06d}",
                    code=content,
                    description=provenance["description"] or description,
                    ranking=ranking,
                    complexity=complexity,
                    compile_status=(CompileStatus.CLEAN
                                    if status == "clean"
                                    else CompileStatus.DEPENDENCY),
                    compile_detail=detail,
                    origin=provenance["origin"],
                    source_path=provenance["path"],
                    module_names=list(modules),
                    verified=verified,
                    verified_detail=verified_detail,
                )
                role = family_index.role_of(index)
                if role:
                    family = family_index.family_of(index)
                    entry.family_id = family.family_id
                    entry.family_role = role
                    if role == "canonical":
                        entry.n_family_variants = len(family.variants)
                    else:
                        entry.family_similarity = (
                            family_index.similarity_of(index))
                    family_index.attach_entry(index, entry.entry_id)
                    if family_text is not None:
                        family_index.attach_descriptions(index, family_text)
                position += 1
                run.counters[status] += 1
                entries.append(entry)
            assign_layers(entries, layers)
            yield from entries

    def _label_outcomes(self, run: _Run, duplicates: Collection[int],
                        family_index: FamilyIndex,
                        ) -> Iterator[Tuple[list, list]]:
        """``(kept records, label outcomes)`` per survivor batch, in
        order: journaled batches replayed, the rest looked up in the
        cache and their misses sent to the workers."""
        state = run.state
        completed = state.completed_batches(1) if state is not None else 0
        batches = (
            (batch_index, [item for item in survivors
                           if self.keep_variants
                           or item[0] not in duplicates])
            for batch_index, survivors
            in enumerate(run.spill.iter_payloads()))
        live: Iterator[Tuple[int, list]] = iter(())
        resumed = 0
        for batch_index, kept in batches:
            if batch_index >= completed:
                live = chain([(batch_index, kept)], batches)
                break
            journaled = state.batch_result(1, batch_index)
            resumed += 1
            yield kept, journaled
        if resumed:
            run.res.record_resumed(batches=resumed)

        cache = self.cache
        shields = ({stage: run.res.shield(f"stage.{stage}",
                                          run.executor.mode)
                    for stage, _fn in _LABEL_STAGES}
                   if run.res.enabled else {})
        guards = {stage: (shields[stage].wrap(fn) if shields else fn)
                  for stage, fn in _LABEL_STAGES}
        # Batches in flight: the parent's half of each request.
        pending: deque = deque()

        def requests() -> Iterator[tuple]:
            for batch_index, kept in live:
                outcomes: List[Any] = []
                keys: List[Optional[str]] = []
                misses = []
                for index, content, provenance in kept:
                    needs = (not provenance["description"],
                             family_index.role_of(index) == "canonical")
                    key, outcome = None, _MISS
                    if cache is not None:
                        key = content_key(_LABEL_NAMESPACE, LABEL_SCHEMA,
                                          content, *needs)
                        outcome = cache.get(key, _MISS)
                    if outcome is _MISS:
                        misses.append((content,) + needs)
                    outcomes.append(outcome)
                    keys.append(key)
                pending.append((batch_index, kept, outcomes, keys))
                yield misses, guards

        for out in run.executor.stream_map(_label_batch, requests()):
            batch_index, kept, outcomes, keys = pending.popleft()
            computed = iter(out["outcomes"])
            for position, outcome in enumerate(outcomes):
                if outcome is not _MISS:
                    continue
                outcome = outcomes[position] = next(computed)
                # A quarantined outcome reflects this run's faults, not
                # the content — caching it would poison later runs.
                if cache is not None and not isinstance(outcome,
                                                        Quarantined):
                    cache.put(keys[position], outcome)
            for stage, marker in out["markers"]:
                shields[stage].settle([marker])
            publish_counts(out["memo"], run.obs)
            if run.ckpt is not None:
                run.ckpt.record_batch(1, batch_index,
                                      "curation.syntax_check", outcomes)
            yield kept, outcomes

    # -- reporting ------------------------------------------------------

    def _trace(self, run: _Run, total_wall: float) -> PipelineTrace:
        """Per-stage counts from the drops: each stage passes on what it
        did not drop."""
        stages = []
        n = run.counters["collected"]
        for name in STAGE_NAMES:
            drops = dict(run.drops[name])
            n_in, n = n, n - sum(drops.values())
            stages.append(StageMetrics(
                name, n_in=n_in, n_out=n, drops=drops,
                wall_time_s=run.walls.get(name, 0.0)))
        trace = PipelineTrace(pipeline="curation", stages=stages,
                              wall_time_s=total_wall)
        trace.meta["executor"] = run.executor.describe()
        trace.meta["n_input"] = run.counters["collected"]
        trace.meta["streaming"] = {
            "batch_size": self.batch_size,
            "n_partitions": self.n_partitions,
            "spilled": self.spill_dir is not None,
        }
        return trace

    @staticmethod
    def _funnel(trace: PipelineTrace, run: _Run) -> FunnelStats:
        """The paper's funnel counters, from the trace."""
        stage = trace.stage
        funnel = FunnelStats(
            collected=stage("empty_broken").n_in,
            after_empty_broken=stage("empty_broken").n_out,
            after_module_decl=stage("module_decl").n_out,
            after_dedup=stage("dedup").n_out,
            after_syntax=stage("syntax_check").n_out,
            clean=run.counters["clean"],
            dependency_only=run.counters["dependency"],
        )
        for name in ("empty_broken", "module_decl", "syntax_check"):
            if stage(name).n_dropped:
                funnel.removed[name] = stage(name).n_dropped
        # The seed funnel reports the dedup count whenever the stage saw
        # input, even when nothing was removed.
        if stage("dedup").n_in:
            funnel.removed["dedup"] = stage("dedup").n_dropped
        return funnel


#: The name this class had while a second, engine-based implementation
#: existed; kept for callers that import it.
StreamingCurationPipeline = CurationPipeline
