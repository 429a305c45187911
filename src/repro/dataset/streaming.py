"""Streaming shard-parallel curation: the memory-bounded curate path.

:class:`StreamingCurationPipeline` produces *exactly* the dataset the
in-memory :class:`~.pipeline.CurationPipeline` produces — same entries,
same layer assignment, same drop histogram, same dedup keep/drop
decisions (golden-tested) — without ever materialising the corpus.
The corpus flows through three phases as bounded record batches:

1. **filter + sign** (``empty_broken → module_decl`` fused per batch,
   fanned out through :meth:`ParallelExecutor.stream_map`): surviving
   records are spilled batch-at-a-time; their MinHash-LSH band keys are
   routed to band partitions (PR 5's vectorised signatures, computed in
   the workers).
2. **distributed dedup**: each partition owns a set of band keys and
   emits its colliding index pairs with
   :func:`~.dedup.band_candidate_pairs` — a pure, shared-nothing map
   side.  A single ascending resolve pass over the spilled survivors
   then replays the sequential algorithm's decisions exactly (see the
   equivalence argument in :mod:`.dedup`), holding only the shingle
   sets still referenced by unresolved candidate pairs.
3. **label** (``syntax_check → rank_label → describe`` fused per
   batch): kept records stream back through the workers; the parent
   assembles :class:`DatasetEntry` rows in order (entry ids depend on
   the global post-syntax position, which only the parent knows),
   assigns layers incrementally, and hands entries to the caller —
   an in-memory dataset for :meth:`run` / :meth:`run_stream`, or a
   :class:`~repro.store.writer.ShardWriter` for
   :meth:`curate_to_store`, which never holds more than a shard.

Differences from the in-memory engine path, by design:

* per-record caching and retry/quarantine shields are not applied
  inside the fused workers (stage functions are pure; a failed batch
  fails the run or resumes from its checkpoint);
* wall time is attributed to the first stage of each fused phase in
  the trace (``empty_broken``, ``dedup``, ``syntax_check``); counts and
  drops are per-stage and identical to the in-memory trace.

With a :class:`~repro.resilience.Checkpointer` on the resilience
runtime, phase-1 and phase-3 batches are journaled as they complete
and a killed run resumes without recomputing them — the dedup merge is
recomputed from the (identical) journaled phase-1 outputs.  Resuming
requires re-supplying the same source stream and ``source_token``.
"""

from __future__ import annotations

import heapq
import time
import pickle
import zlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..corpus.github_sim import RawFile
from ..corpus.llm_sim import GeneratedSample, strip_markdown_fences
from ..obs import Observability, resolve
from ..pipeline import ParallelExecutor, PipelineTrace, StageMetrics
from ..resilience.checkpoint import run_signature
from ..resilience.runtime import Resilience
from ..resilience.runtime import resolve as resolve_resilience
from .complexity import classify_code
from .dedup import (
    MinHasher,
    band_candidate_pairs,
    jaccard,
    signature_band_keys,
    tokenize_for_dedup,
)
from .describe import describe_source, family_description
from .families import FamilyForest, FamilyIndex, forest_from_pairs, module_names
from .filters import FunnelStats, has_module, is_readable, syntax_filter
from .layering import Complexity, LayerReport, layer_for
from .pipeline import CurationResult, PipelineReport
from .ranking import score_many
from .records import CompileStatus, DatasetEntry, PyraNetDataset
from ..verilog.formal import verify_code
from ..verilog.frontend import FrontEndMemo

PathLike = Union[str, Path]

#: Stage names, in order — identical to the in-memory pipeline so
#: funnel reconstruction and trace comparisons work unchanged.
STAGE_NAMES = ("empty_broken", "module_decl", "dedup", "syntax_check",
               "rank_label", "formal_verify", "describe", "assemble",
               "layer")

_SourceRecord = Tuple[str, Dict[str, Any]]  # (content, provenance)


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
    """Concatenate batch streams (github scrape first, then LLM —
    the in-memory pipeline's source order)."""
    for source in sources:
        for batch in source:
            yield batch


# -- fused worker functions (module-level: process-pool picklable) ------

_WORKER_HASHERS: Dict[Tuple[int, int], MinHasher] = {}


def _hasher_for(n_perm: int, seed: int = 0) -> MinHasher:
    """Per-process hasher memo — MinHasher's permutation tables are
    rebuilt once per worker process, not once per batch."""
    key = (n_perm, seed)
    hasher = _WORKER_HASHERS.get(key)
    if hasher is None:
        hasher = _WORKER_HASHERS[key] = MinHasher(n_perm, seed)
    return hasher


def _filter_sign_batch(payload: tuple) -> Dict[str, Any]:
    """Phase 1, fused per batch: ``empty_broken → module_decl`` plus
    MinHash signing and band-key emission for the survivors."""
    batch_index, items, n_perm, bands = payload
    hasher = _hasher_for(n_perm)
    survivors: List[tuple] = []
    emissions: List[tuple] = []
    drops: Dict[str, Dict[str, int]] = {"empty_broken": {},
                                        "module_decl": {}}
    n_llm = 0
    for index, content, provenance in items:
        if provenance.get("origin") == "llm":
            n_llm += 1
        decision = is_readable(content)
        if not decision.kept:
            stage_drops = drops["empty_broken"]
            stage_drops[decision.reason] = (
                stage_drops.get(decision.reason, 0) + 1)
            continue
        decision = has_module(content)
        if not decision.kept:
            stage_drops = drops["module_decl"]
            stage_drops[decision.reason] = (
                stage_drops.get(decision.reason, 0) + 1)
            continue
        signature = hasher.signature(tokenize_for_dedup(content))
        for key in signature_band_keys(signature, bands):
            emissions.append((key, index))
        survivors.append((index, content, provenance))
    return {"batch": batch_index, "n_in": len(items), "n_llm": n_llm,
            "survivors": survivors, "emissions": emissions,
            "drops": drops}


def _label_batch(payload: tuple) -> Dict[str, Any]:
    """Phase 3, fused per batch: ``syntax_check → rank_label →
    formal_verify → describe`` with only plain picklable fields
    shipped back.  Scoring runs as one vectorised pass per batch
    (identical per-element results — the parity test pins it)."""
    batch_index, items = payload
    survivors: List[tuple] = []
    n_syntax_dropped = 0
    labeled: List[tuple] = []
    # One front-end memo scope per batch: each text parses once across
    # the fused stages, and memory stays bounded by the batch.
    with FrontEndMemo().scope():
        for index, content, provenance in items:
            decision, result = syntax_filter(content)
            if not decision.kept:
                n_syntax_dropped += 1
                continue
            status = "clean" if result.status == "clean" else "dependency"
            detail = ""
            if status == "dependency":
                issues = result.dependency_issues
                detail = (issues[0].message if issues
                          else "dependency issues")
            survivors.append((index, content, provenance, status, detail,
                              list(result.modules)))
        scores = score_many([item[1] for item in survivors])
        for (index, content, provenance, status, detail, modules), ranking \
                in zip(survivors, scores):
            description = (provenance["description"]
                           or describe_source(content))
            # Same gate as the in-memory stage's ``when`` predicate:
            # only clean 20/20 entries can enter the verified tier.
            verified, verified_detail = False, ""
            if ranking == 20 and status == "clean":
                verified, verified_detail = verify_code(content)
            labeled.append((
                index, content, provenance, status, detail,
                ranking, classify_code(content), description,
                modules, verified, verified_detail,
            ))
    return {"batch": batch_index, "n_in": len(items),
            "n_syntax_dropped": n_syntax_dropped, "labeled": labeled}


def _partition_pairs(arg: tuple) -> tuple:
    """Phase 2 map side: one partition's collision pairs, sorted by
    (later, earlier) for the parent's streaming merge, plus per-earlier
    reference counts so the parent can evict shingles without ever
    materialising the pair set, plus the partition's **partial
    union-find forest** (node -> min-index component root) over those
    pairs — the parent merges the partial forests into the global LSH
    collision forest for family clustering, so the quadratic pair set
    is reduced worker-side to a map linear in the partition's distinct
    indices.  Disk-backed partitions write their pairs back to disk —
    a partition's pairs can be quadratic in its duplicate-cluster
    sizes (the map side cannot know which members the sequential
    algorithm would have dropped), so they must never ride home
    through the parent's memory wholesale."""
    kind = arg[0]
    if kind == "mem":
        emissions = arg[1]
    else:
        emissions = []
        with open(arg[1], "rb") as handle:
            while True:
                try:
                    emissions.extend(pickle.loads(
                        zlib.decompress(pickle.load(handle))))
                except EOFError:
                    break
    pairs = band_candidate_pairs(emissions)
    forest = forest_from_pairs(pairs).compressed()
    pairs.sort(key=lambda pair: (pair[1], pair[0]))
    refcounts: Dict[int, int] = {}
    for earlier, _later in pairs:
        refcounts[earlier] = refcounts.get(earlier, 0) + 1
    counts = sorted(refcounts.items())
    if kind == "mem":
        return ("mem", pairs, counts, forest)
    out_path = arg[2]
    with open(out_path, "wb") as handle:
        for start in range(0, len(pairs), 8192):
            pickle.dump(pairs[start:start + 8192], handle, protocol=4)
    return ("file", out_path, counts, forest)


def _pair_stream(result: tuple) -> Iterator[Tuple[int, int]]:
    """Lazily re-read one partition's (later, earlier)-sorted pairs."""
    kind, data = result[0], result[1]
    if kind == "mem":
        yield from data
        return
    with open(data, "rb") as handle:
        while True:
            try:
                chunk = pickle.load(handle)
            except EOFError:
                return
            yield from chunk


# -- bounded spill primitives ------------------------------------------


class _BatchSpill:
    """Ordered batch payload store: a dict in memory, or one
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
    """Band-key emission shuffle: per-partition append-only buffers
    (chunked, compressed files under ``directory``; lists in memory)."""

    def __init__(self, n_partitions: int, directory: Optional[Path]) -> None:
        self.n_partitions = n_partitions
        self._dir = directory
        self._mem: List[List[tuple]] = [[] for _ in range(n_partitions)]
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
            self._paths = [directory / f"partition-{p:03d}.pkl"
                           for p in range(n_partitions)]
            self._handles = [path.open("wb") for path in self._paths]

    def add(self, chunks: Sequence[List[tuple]]) -> None:
        """Append one chunk of emissions per partition."""
        for partition, chunk in enumerate(chunks):
            if not chunk:
                continue
            if self._dir is None:
                self._mem[partition].extend(chunk)
            else:
                pickle.dump(zlib.compress(pickle.dumps(chunk, protocol=4)),
                            self._handles[partition])

    def worker_args(self) -> List[tuple]:
        if self._dir is None:
            return [("mem", emissions) for emissions in self._mem]
        for handle in self._handles:
            handle.close()
        return [("file", str(path), str(path) + ".pairs")
                for path in self._paths]

    def cleanup(self) -> None:
        if self._dir is None:
            self._mem = [[] for _ in range(self.n_partitions)]
            return
        for handle in self._handles:
            if not handle.closed:
                handle.close()
        for path in self._paths:
            for victim in (path, Path(str(path) + ".pairs")):
                try:
                    victim.unlink()
                except OSError:
                    pass


class _LayerAccumulator:
    """Incremental :func:`~.layering.assign_layers`: sets
    ``entry.layer`` as entries stream past and produces the identical
    :class:`LayerReport` at the end."""

    def __init__(self) -> None:
        self.report = LayerReport()

    def add(self, entry: DatasetEntry) -> None:
        entry.layer = layer_for(entry)
        if entry.verified:
            self.report.n_verified += 1
        sizes = self.report.sizes
        sizes[entry.layer] = sizes.get(entry.layer, 0) + 1
        coverage = self.report.complexity_coverage.setdefault(
            entry.layer, {})
        label = entry.complexity.label
        coverage[label] = coverage.get(label, 0) + 1

    def finish(self) -> LayerReport:
        all_levels = [c.label for c in Complexity]
        for number in range(1, 6):
            present = set(self.report.complexity_coverage.get(number, {}))
            missing = [label for label in all_levels
                       if label not in present]
            if missing and self.report.sizes.get(number, 0) > 0:
                self.report.missing_complexities[number] = missing
        return self.report


@dataclass
class StreamingStoreResult:
    """Outcome of :meth:`StreamingCurationPipeline.curate_to_store`."""

    manifest: Any
    report: PipelineReport


@dataclass
class StreamingCurationPipeline:
    """The streaming, shard-parallel curate path.

    Args:
        dedup_threshold / seed: as :class:`~.pipeline.CurationPipeline`
            — same values produce byte-identical entries.
        batch_size: records per streamed batch (the unit of worker
            dispatch, spill, and checkpointing).
        n_partitions: shared-nothing partitions for distributed dedup's
            map side (any value produces identical decisions).
        executor: worker fan-out; serial by default.  ``thread`` and
            ``process`` modes produce identical output — stage work is
            pure and :meth:`ParallelExecutor.stream_map` preserves
            order.
        obs: observability; phases become spans, the synthesized trace
            is published, and ``proc.rss_peak_bytes`` is sampled at
            span exits.
        resilience: when its checkpointer is set, phase batches journal
            as they complete and a killed run resumes byte-identically.
        spill_dir: directory for survivor batches and the band-key
            shuffle.  ``None`` keeps spill in memory (fine for tests
            and small corpora; pass a real directory for the
            memory-bounded guarantee).
    """

    dedup_threshold: float = 0.8
    seed: int = 0
    batch_size: int = 256
    n_partitions: int = 4
    n_perm: int = 64
    bands: int = 16
    executor: Optional[ParallelExecutor] = None
    obs: Optional[Observability] = None
    resilience: Optional[Resilience] = None
    spill_dir: Optional[PathLike] = None
    #: Keep dedup-dropped near-duplicates as family-tagged variant rows
    #: (same semantics as :class:`CurationPipeline.keep_variants`).
    keep_variants: bool = False

    # -- public entry points -------------------------------------------

    def run(self, raw_files: Sequence[RawFile],
            generated: Sequence[GeneratedSample] = ()) -> CurationResult:
        """Drop-in for :meth:`CurationPipeline.run` over materialised
        inputs — batches them internally and streams."""
        from .pipeline import CurationPipeline

        records = CurationPipeline._source_records(raw_files, generated)
        token = run_signature(
            [(r.index, r.value, r.meta) for r in records], STAGE_NAMES)

        def batches() -> Iterator[List[_SourceRecord]]:
            for start in range(0, len(records), self.batch_size):
                yield [(r.value, r.meta["provenance"])
                       for r in records[start:start + self.batch_size]]

        return self.run_stream(batches(), source_token=token)

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
        """The whole streaming dataflow as one entry generator; fills
        ``holder['report']`` when exhausted."""
        executor = (self.executor if self.executor is not None
                    else ParallelExecutor.serial())
        obs = resolve(self.obs)
        res = resolve_resilience(self.resilience)
        ckpt = res.checkpointer if res.enabled else None
        state = None
        if ckpt is not None:
            signature = run_signature([], STAGE_NAMES, extra=(
                "curation-stream", self.seed, self.dedup_threshold,
                self.batch_size, self.n_partitions, self.n_perm,
                self.bands, self.keep_variants, source_token))
            state = ckpt.begin(signature)
            if state.fresh:
                state = None
        spill_root = Path(self.spill_dir) if self.spill_dir else None
        spill = _BatchSpill(
            spill_root / "survivors" if spill_root else None)
        shuffle = _PartitionSpill(
            self.n_partitions,
            spill_root / "partitions" if spill_root else None)

        previous_tracer = executor.tracer
        if obs.enabled:
            executor.tracer = obs.tracer
        started = time.perf_counter()
        counters = {
            "collected": 0, "n_llm": 0, "after_empty": 0,
            "after_module": 0, "after_syntax": 0, "clean": 0,
            "dependency": 0, "resumed_batches": 0,
        }
        empty_drops: Dict[str, int] = {}
        module_drops: Dict[str, int] = {}
        walls = {"phase1": 0.0, "dedup": 0.0, "phase3": 0.0}
        try:
            # Phase 1: fused filter + sign.
            phase_started = time.perf_counter()
            with obs.span("stream.filter_sign") as span:
                n_batches = self._run_phase1(
                    batches, executor, spill, shuffle, counters,
                    empty_drops, module_drops, ckpt, state, res)
                span.meta["n_batches"] = n_batches
                span.meta["n_survivors"] = counters["after_module"]
            walls["phase1"] = time.perf_counter() - phase_started

            # Phase 2: band-partitioned dedup + deterministic merge.
            phase_started = time.perf_counter()
            with obs.span("stream.dedup",
                          n_partitions=self.n_partitions) as span:
                (duplicate_of, pairs_checked, similarities, forest,
                 family_meta) = self._run_dedup(executor, spill, shuffle)
                family_index = FamilyIndex.build(
                    duplicate_of, similarities, forest, family_meta,
                    seed=self.seed, threshold=self.dedup_threshold)
                span.meta["n_duplicates"] = len(duplicate_of)
                span.meta["candidate_pairs_checked"] = pairs_checked
                span.meta["n_families"] = family_index.n_families
            walls["dedup"] = time.perf_counter() - phase_started
            obs.counter("curation.stream.duplicates").inc(
                len(duplicate_of))
            obs.counter("curation.families").inc(
                family_index.n_families)
            obs.counter("curation.family_variants").inc(
                family_index.n_variants)

            # Phase 3: fused label, ordered assemble + layering.
            phase_started = time.perf_counter()
            layers = _LayerAccumulator()
            with obs.span("stream.label") as span:
                for entry in self._run_phase3(
                        executor, spill, duplicate_of, counters,
                        layers, ckpt, state, res, family_index):
                    yield entry
                span.meta["n_entries"] = counters["after_syntax"]
            walls["phase3"] = time.perf_counter() - phase_started
        finally:
            executor.tracer = previous_tracer
            spill.cleanup()
            shuffle.cleanup()

        # Variant rows survive the dedup stage under keep_variants, so
        # the trace/funnel arithmetic sees zero dedup drops — exactly
        # like the in-memory engine's stage metrics in that mode.
        n_dropped_dedup = 0 if self.keep_variants else len(duplicate_of)
        trace = self._trace(executor, counters, empty_drops, module_drops,
                            n_dropped_dedup, walls,
                            time.perf_counter() - started)
        obs.publish_trace(trace)
        obs.counter("curation.runs").inc()
        obs.counter("curation.files_in").inc(counters["collected"])
        if ckpt is not None:
            ckpt.finish({"n_entries": counters["after_syntax"]})
        holder["report"] = PipelineReport(
            funnel=self._funnel(counters, empty_drops, module_drops,
                                n_dropped_dedup),
            layers=layers.finish(),
            n_collected_github=counters["collected"] - counters["n_llm"],
            n_generated_llm=counters["n_llm"],
            trace=trace,
            families=family_index.report(),
        )

    def _run_phase1(self, batches, executor, spill, shuffle, counters,
                    empty_drops, module_drops, ckpt, state, res) -> int:
        completed = state.completed_batches(0) if state is not None else 0

        def absorb(payload: Dict[str, Any]) -> None:
            counters["collected"] += payload["n_in"]
            counters["n_llm"] += payload["n_llm"]
            for reason, count in payload["drops"]["empty_broken"].items():
                empty_drops[reason] = empty_drops.get(reason, 0) + count
            for reason, count in payload["drops"]["module_decl"].items():
                module_drops[reason] = module_drops.get(reason, 0) + count
            counters["after_module"] += len(payload["survivors"])
            spill.put(payload["batch"],
                      {"survivors": payload["survivors"]})
            chunks: List[List[tuple]] = [
                [] for _ in range(self.n_partitions)]
            for key, index in payload["emissions"]:
                chunks[key[0] % self.n_partitions].append((key, index))
            shuffle.add(chunks)

        def live_payloads() -> Iterator[tuple]:
            batch_index = 0
            next_index = 0
            for batch in batches:
                items = []
                for content, provenance in batch:
                    items.append((next_index, content, provenance))
                    next_index += 1
                if batch_index < completed:
                    # Journaled batch: replay the committed outputs; the
                    # source is still consumed so indices stay aligned.
                    absorb(state.batch_result(0, batch_index))
                    counters["resumed_batches"] += 1
                else:
                    yield (batch_index, items, self.n_perm, self.bands)
                batch_index += 1
            counters["n_batches"] = batch_index

        for payload in executor.stream_map(_filter_sign_batch,
                                           live_payloads()):
            if ckpt is not None:
                ckpt.record_batch(0, payload["batch"],
                                  "stream.filter_sign", payload)
            absorb(payload)
        if counters["resumed_batches"]:
            res.record_resumed(batches=counters["resumed_batches"])
        return counters.get("n_batches", 0)

    def _run_dedup(self, executor, spill, shuffle):
        """Map per partition, then zip a streaming merge of the
        partition pair streams against one ascending pass over the
        spilled survivors — the decisions (and the
        candidate-pairs-checked count) equal :func:`~.dedup.deduplicate`
        exactly; see :mod:`.dedup` for the argument.

        The pair set is never materialised in this process: each
        partition's pairs arrive (later, earlier)-sorted — from disk
        when spilling — and ``heapq.merge`` hands the resolve loop one
        index's candidates at a time.  Parent-side dedup state is the
        per-earlier reference counts (ints), the keep/drop verdicts,
        and the shingle sets (plus family metadata) still awaited by
        unresolved pairs.

        Also merges the workers' partial union-find forests into the
        global LSH collision forest, records the verified similarity
        of every drop decision, and captures path/origin/module
        metadata for each family member at decision time — the family
        inputs, identical to the in-memory path's.
        """
        results = executor.map(_partition_pairs, shuffle.worker_args())

        # How many raw pairs still reference each earlier index;
        # shingles are retained only while referenced.  Counts are per
        # raw (pre-merge) pair and so is the decrement below, so the
        # count hits zero exactly at the last reference even when two
        # partitions emitted the same pair via different bands.
        refcount: Dict[int, int] = {}
        forest = FamilyForest()
        for result in results:
            for earlier, count in result[2]:
                refcount[earlier] = refcount.get(earlier, 0) + count
            forest.merge(result[3])
        merged = heapq.merge(
            *(_pair_stream(result) for result in results),
            key=lambda pair: (pair[1], pair[0]))
        pending = next(merged, None)

        shingles: Dict[int, Any] = {}
        kept_meta: Dict[int, Dict[str, Any]] = {}
        kept_status: Dict[int, bool] = {}
        duplicate_of: Dict[int, int] = {}
        similarities: Dict[int, float] = {}
        family_meta: Dict[int, Dict[str, Any]] = {}
        pairs_checked = 0
        for payload in spill.iter_payloads():
            for index, content, provenance in payload["survivors"]:
                referenced = index in refcount
                # Drain this index's candidates from the merged stream:
                # ascending by earlier, cross-partition duplicates
                # collapsed for the decision loop but decremented raw.
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
                duplicate = None
                similarity = 0.0
                for candidate in candidates:  # ascending
                    if not kept_status.get(candidate, False):
                        continue
                    pairs_checked += 1
                    similarity = jaccard(own_shingles, shingles[candidate])
                    if similarity >= self.dedup_threshold:
                        duplicate = candidate
                        break
                if duplicate is not None:
                    # Capture family metadata now, while the canonical's
                    # refcounted state is guaranteed to still be alive.
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
                        kept_status.pop(candidate, None)
                    else:
                        refcount[candidate] = remaining
                if duplicate is not None:
                    duplicate_of[index] = duplicate
                    similarities[index] = similarity
                    if referenced:
                        kept_status[index] = False
                    continue
                if referenced:
                    kept_status[index] = True
                    shingles[index] = own_shingles
                    kept_meta[index] = {
                        "path": provenance["path"],
                        "origin": provenance["origin"],
                        "modules": module_names(content)}
        shuffle.cleanup()
        return duplicate_of, pairs_checked, similarities, forest, family_meta

    def _run_phase3(self, executor, spill, duplicate_of, counters,
                    layers, ckpt, state, res,
                    family_index) -> Iterator[DatasetEntry]:
        completed = state.completed_batches(1) if state is not None else 0
        resumed = 0

        def label_inputs() -> Iterator[tuple]:
            for batch_index, payload in enumerate(spill.iter_payloads()):
                kept = [item for item in payload["survivors"]
                        if self.keep_variants
                        or item[0] not in duplicate_of]
                yield (batch_index, kept)

        def results() -> Iterator[Dict[str, Any]]:
            # Replayed batches are a contiguous prefix of the stream:
            # emit their journaled outputs directly, then hand the rest
            # of the (still lazy) input generator to the pool.
            nonlocal resumed
            inputs = label_inputs()
            first_live = None
            for payload in inputs:
                if payload[0] < completed:
                    yield state.batch_result(1, payload[0])
                    resumed += 1
                else:
                    first_live = payload
                    break
            if first_live is None:
                return
            for out in executor.stream_map(_label_batch,
                                           chain([first_live], inputs)):
                if ckpt is not None:
                    ckpt.record_batch(1, out["batch"], "stream.label", out)
                yield out

        position = 0
        for out in results():
            for (index, content, provenance, status, detail, ranking,
                 complexity, description, modules, verified,
                 verified_detail) in out["labeled"]:
                entry = DatasetEntry(
                    entry_id=f"pyranet-{self.seed}-{position:06d}",
                    code=content,
                    description=description,
                    ranking=ranking,
                    complexity=complexity,
                    compile_status=(CompileStatus.CLEAN
                                    if status == "clean"
                                    else CompileStatus.DEPENDENCY),
                    compile_detail=detail,
                    origin=provenance["origin"],
                    source_path=provenance["path"],
                    module_names=modules,
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
                    if role == "canonical":
                        family_index.attach_descriptions(
                            index, family_description(content))
                position += 1
                counters["after_syntax"] += 1
                if status == "clean":
                    counters["clean"] += 1
                else:
                    counters["dependency"] += 1
                layers.add(entry)
                yield entry
        if resumed:
            res.record_resumed(batches=resumed)

    # -- reporting ------------------------------------------------------

    def _trace(self, executor, counters, empty_drops, module_drops,
               n_duplicates, walls, total_wall) -> PipelineTrace:
        collected = counters["collected"]
        after_empty = collected - sum(empty_drops.values())
        after_module = counters["after_module"]
        after_dedup = after_module - n_duplicates
        after_syntax = counters["after_syntax"]
        syntax_drops = ({"syntax error": after_dedup - after_syntax}
                        if after_dedup - after_syntax else {})
        stages = [
            StageMetrics("empty_broken", n_in=collected,
                         n_out=after_empty,
                         wall_time_s=walls["phase1"],
                         drops=dict(empty_drops)),
            StageMetrics("module_decl", n_in=after_empty,
                         n_out=after_module, drops=dict(module_drops)),
            StageMetrics("dedup", n_in=after_module, n_out=after_dedup,
                         wall_time_s=walls["dedup"],
                         drops=({"duplicate": n_duplicates}
                                if n_duplicates else {})),
            StageMetrics("syntax_check", n_in=after_dedup,
                         n_out=after_syntax,
                         wall_time_s=walls["phase3"],
                         drops=syntax_drops),
            StageMetrics("rank_label", n_in=after_syntax,
                         n_out=after_syntax),
            StageMetrics("formal_verify", n_in=after_syntax,
                         n_out=after_syntax),
            StageMetrics("describe", n_in=after_syntax,
                         n_out=after_syntax),
            StageMetrics("assemble", n_in=after_syntax,
                         n_out=after_syntax),
            StageMetrics("layer", n_in=after_syntax, n_out=after_syntax),
        ]
        trace = PipelineTrace(pipeline="curation-stream", stages=stages,
                              wall_time_s=total_wall)
        trace.meta["executor"] = executor.describe()
        trace.meta["n_input"] = collected
        trace.meta["streaming"] = {
            "batch_size": self.batch_size,
            "n_partitions": self.n_partitions,
            "spilled": self.spill_dir is not None,
        }
        return trace

    def _funnel(self, counters, empty_drops, module_drops,
                n_duplicates) -> FunnelStats:
        collected = counters["collected"]
        after_empty = collected - sum(empty_drops.values())
        after_module = counters["after_module"]
        after_dedup = after_module - n_duplicates
        funnel = FunnelStats(
            collected=collected,
            after_empty_broken=after_empty,
            after_module_decl=after_module,
            after_dedup=after_dedup,
            after_syntax=counters["after_syntax"],
            clean=counters["clean"],
            dependency_only=counters["dependency"],
        )
        # Mirror the in-memory reconstruction exactly, including its
        # quirk: the dedup count is reported whenever the stage saw
        # input, even when nothing was removed.
        if collected - after_empty:
            funnel.removed["empty_broken"] = collected - after_empty
        if after_empty - after_module:
            funnel.removed["module_decl"] = after_empty - after_module
        if after_dedup - counters["after_syntax"]:
            funnel.removed["syntax_check"] = (
                after_dedup - counters["after_syntax"])
        if after_module:
            funnel.removed["dedup"] = n_duplicates
        return funnel
