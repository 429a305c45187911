"""Which public ``repro`` functions the traced run wraps, and the
per-layer metrics it derives from them.

Each :class:`Probe` names one function (or method) and the layer its
time is charged to.  ``exercised`` lists the workloads that must call
it; the benchmark's tests hold every probe to that.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .measure import tail_percentile
from .tracer import Tracer

CURATE, EVAL, CHECK = "curate", "eval", "check"

#: Failure kinds ``run_functional_test`` reports, one counter each.
FAILURE_KINDS = ("parse", "elaborate", "interface", "runtime", "mismatch")


# -- hooks (run outside the span they belong to) ------------------------


def _count_tokens(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("verilog.lexer.tokens", len(result))


def _note_parse_source(tracer: Tracer, args, kwargs) -> None:
    if args and isinstance(args[0], str):
        tracer.note("verilog.parser.sources", hash(args[0]))


def _count_construct(tracer: Tracer, args, kwargs) -> None:
    tracer.add("verilog.sim.calls")


def _count_cap_hit(tracer: Tracer, exc: BaseException) -> None:
    message = str(exc)
    if "iteration cap" in message or "budget exceeded" in message:
        tracer.add("verilog.sim.cap_hits")


def _count_formal(tracer: Tracer, args, kwargs, result) -> None:
    verified, detail = result
    tracer.add("verilog.formal.verified", int(bool(verified)))
    tracer.add("verilog.formal.unsupported",
               int(detail.startswith("unsupported")))


def _count_signature(tracer: Tracer, args, kwargs) -> None:
    tracer.add("dataset.dedup.signatures")


def _count_written(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("store.write.bytes", result.total_bytes)


def _count_shard(tracer: Tracer, args, kwargs) -> None:
    tracer.add("store.read.shards_opened")
    tracer.add("store.read.bytes", len(args[0]))


def _count_examples(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("finetune.examples", result.total.examples)


def _name_problem(tracer: Tracer, args, kwargs) -> None:
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    name = tracer.item_names.get(id(spec))
    if name is not None:
        tracer.set_item(name)


def _count_outcome(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("verilog.sim.vectors", result.vectors_run)
    if not result.passed:
        tracer.add(f"eval.failure.{result.failure_kind or 'unknown'}")


def _note_sample(tracer: Tracer, args, kwargs) -> None:
    tracer.set_sample(args[2] if len(args) > 2
                      else kwargs.get("sample_index"))


@dataclass(frozen=True)
class Probe:
    layer: Optional[str]
    module: str
    attr: str
    cls: Optional[str] = None
    exercised: Tuple[str, ...] = ()
    source_arg: Optional[int] = None
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    on_error: Optional[Callable] = None

    @property
    def label(self) -> str:
        owner = f"{self.cls}." if self.cls else ""
        return f"{self.module}.{owner}{self.attr}"


PROBES: Tuple[Probe, ...] = (
    Probe("verilog.lexer", "repro.verilog.lexer", "tokenize", cls="Lexer",
          exercised=(CURATE, EVAL, CHECK), after=_count_tokens),
    Probe("verilog.parser", "repro.verilog.parser", "parse",
          exercised=(CURATE, EVAL, CHECK), source_arg=0,
          before=_note_parse_source),
    Probe("verilog.preprocessor", "repro.verilog.preprocessor",
          "preprocess", exercised=(CURATE,)),
    Probe("verilog.syntax_checker", "repro.verilog.syntax_checker",
          "check", exercised=(CURATE,), source_arg=0),
    Probe("verilog.style", "repro.verilog.style", "lint",
          exercised=(CURATE,)),
    Probe("verilog.metrics", "repro.verilog.metrics", "measure",
          exercised=(CURATE,)),
    Probe("verilog.metrics", "repro.verilog.metrics", "measure_module",
          exercised=(CURATE,)),
    Probe("verilog.sim.elaborate", "repro.verilog.sim.elaborate",
          "elaborate", exercised=(CURATE, EVAL, CHECK)),
    Probe("verilog.sim", "repro.verilog.sim.runtime", "__init__",
          cls="Simulator", exercised=(EVAL, CHECK), source_arg=1,
          before=_count_construct, on_error=_count_cap_hit),
    Probe("verilog.sim", "repro.verilog.sim.runtime", "poke",
          cls="Simulator", exercised=(EVAL, CHECK),
          on_error=_count_cap_hit),
    Probe("verilog.sim", "repro.verilog.sim.runtime", "clock",
          cls="Simulator", exercised=(EVAL, CHECK),
          on_error=_count_cap_hit),
    Probe("verilog.sim", "repro.verilog.sim.runtime", "peek",
          cls="Simulator", exercised=(EVAL, CHECK)),
    Probe("verilog.formal", "repro.verilog.formal.check", "verify_code",
          exercised=(CURATE,), source_arg=0, after=_count_formal),
    Probe("dataset.dedup", "repro.dataset.dedup", "tokenize_for_dedup",
          exercised=(CURATE,)),
    Probe("dataset.dedup", "repro.dataset.dedup", "signature",
          cls="MinHasher", exercised=(CURATE,), before=_count_signature),
    Probe("dataset.dedup", "repro.dataset.dedup", "deduplicate",
          exercised=(CURATE,)),
    Probe("dataset.ranking", "repro.dataset.ranking", "score_code",
          exercised=(CURATE,), source_arg=0),
    Probe("dataset.describe", "repro.dataset.describe", "describe_source",
          exercised=(CURATE,), source_arg=0),
    Probe("dataset.describe", "repro.dataset.describe",
          "family_description", exercised=(CURATE,)),
    Probe("dataset.families", "repro.dataset.families",
          "build_family_artifacts", exercised=(CURATE,)),
    Probe("dataset.families", "repro.dataset.families", "build",
          cls="FamilyIndex", exercised=(CURATE,)),
    Probe("dataset.layering", "repro.dataset.layering", "assign_layers",
          exercised=(CURATE,)),
    Probe("dataset.layering", "repro.dataset.layering", "layer_for",
          exercised=(CURATE,)),
    Probe("dataset.streaming", "repro.dataset.streaming", "run_stream",
          cls="StreamingCurationPipeline", exercised=(CURATE,)),
    Probe("store.write", "repro.store.writer", "write", cls="ShardWriter",
          exercised=(CURATE,), after=_count_written),
    Probe("store.read", "repro.store.reader", "select", cls="StoreReader",
          exercised=(EVAL,)),
    Probe("store.read", "repro.store.shard", "decode_shard",
          exercised=(EVAL,), before=_count_shard),
    Probe("finetune", "repro.finetune.trainer",
          "finetune_pyranet_architecture", exercised=(EVAL,),
          after=_count_examples),
    Probe("model.generate", "repro.model.generator", "generate",
          cls="ConditionalCodeModel", exercised=(EVAL,)),
    Probe("eval.functional", "repro.eval.functional", "run_functional_test",
          exercised=(EVAL, CHECK), source_arg=0, before=_name_problem,
          after=_count_outcome),
    # No span: names the sample index for the ledger.
    Probe(None, "repro.eval.harness", "sample_seed", exercised=(EVAL,),
          before=_note_sample),
)


def install(tracer: Tracer) -> Dict[str, int]:
    """Wrap every probe; returns bindings replaced per probe label."""
    replaced: Dict[str, int] = {}
    for probe in PROBES:
        def wrapper_for(fn, probe=probe):
            return tracer.wrap(fn, probe.layer, label=probe.label,
                               source_arg=probe.source_arg,
                               before=probe.before, after=probe.after,
                               on_error=probe.on_error)
        if probe.cls is None:
            replaced[probe.label] = tracer.patch_function(
                probe.module, probe.attr, wrapper_for)
        else:
            replaced[probe.label] = tracer.patch_method(
                probe.module, probe.cls, probe.attr, wrapper_for)
    return replaced


# -- per-layer metrics --------------------------------------------------

#: Layers reported with ``.calls`` (work done as a count).
_CALL_LAYERS = ("verilog.lexer", "verilog.parser", "verilog.preprocessor",
                "verilog.syntax_checker", "verilog.style",
                "verilog.metrics", "verilog.sim.elaborate", "verilog.formal",
                "dataset.ranking", "dataset.describe", "dataset.families",
                "dataset.layering", "model.generate", "eval.functional")

#: Layers reported with ``.self_s`` and ``.cpu_s``.
_TIMED_LAYERS = ("verilog.lexer", "verilog.parser", "verilog.preprocessor",
                 "verilog.syntax_checker", "verilog.style",
                 "verilog.metrics", "verilog.sim.elaborate", "verilog.sim",
                 "verilog.formal", "dataset.dedup", "dataset.ranking",
                 "dataset.describe", "dataset.families", "dataset.layering",
                 "store.write", "store.read", "finetune", "model.generate",
                 "eval.functional")


def metric_units() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit,
    better direction).  ``BENCHMARK.json`` lists exactly these."""
    units: Dict[str, Tuple[str, str]] = {}
    for layer in _CALL_LAYERS:
        units[f"{layer}.calls"] = ("count", "lower")
    for layer in _TIMED_LAYERS:
        units[f"{layer}.self_s"] = ("s", "lower")
        units[f"{layer}.cpu_s"] = ("s", "lower")
    units.update({
        "verilog.lexer.tokens_per_s": ("1/s", "higher"),
        "verilog.parser.calls_per_source": ("ratio", "lower"),
        "verilog.sim.calls": ("count", "lower"),
        "verilog.sim.vectors": ("count", "lower"),
        "verilog.sim.cap_hits": ("count", "lower"),
        "verilog.formal.verified": ("count", "higher"),
        "verilog.formal.unsupported": ("count", "lower"),
        "dataset.dedup.signatures": ("count", "lower"),
        "dataset.dedup.dropped": ("count", "higher"),
        "dataset.streaming.parent_self_s": ("s", "lower"),
        "dataset.streaming.parent_cpu_s": ("s", "lower"),
        "dataset.streaming.worker_cpu_s": ("s", "lower"),
        "store.write.bytes": ("B", "lower"),
        "store.read.bytes": ("B", "lower"),
        "store.read.shards_opened": ("count", "lower"),
        "finetune.examples": ("count", "lower"),
        "eval.functional.p50_ms": ("ms", "lower"),
        "eval.functional.tail_ms": ("ms", "lower"),
        "eval.functional.tail_pct": ("%", "higher"),
        "eval.functional.tail_n": ("count", "higher"),
        "eval.cache_hit_ratio": ("ratio", "higher"),
        "other.self_s": ("s", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.overhead": ("ratio", "lower"),
        "trace.named_share": ("ratio", "higher"),
    })
    for kind in FAILURE_KINDS:
        units[f"eval.failure.{kind}"] = ("count", "lower")
    return units


def layer_metrics(tracer: Tracer, traced_walls: Sequence[float],
                  untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from a traced run, per timed-phase iteration.

    ``traced_walls`` are the wall times of the traced iterations;
    ``untraced_wall_s`` is one untraced iteration of the same work, for
    the overhead ratio.
    """
    n = max(len(traced_walls), 1)
    traced_wall_s = sum(traced_walls)
    layers = tracer.layers
    counts = tracer.counts
    out: Dict[str, float] = {name: 0.0 for name in metric_units()}
    for layer in _CALL_LAYERS:
        t = layers.get(layer)
        out[f"{layer}.calls"] = (t.calls / n) if t else 0.0
    for layer in _TIMED_LAYERS:
        t = layers.get(layer)
        out[f"{layer}.self_s"] = (t.self_s / n) if t else 0.0
        out[f"{layer}.cpu_s"] = (t.cpu_s / n) if t else 0.0
    stream = layers.get("dataset.streaming")
    if stream:
        out["dataset.streaming.parent_self_s"] = stream.self_s / n
        out["dataset.streaming.parent_cpu_s"] = stream.cpu_s / n
    lexer = layers.get("verilog.lexer")
    if lexer and lexer.self_s > 0:
        out["verilog.lexer.tokens_per_s"] = (
            counts.get("verilog.lexer.tokens", 0) / lexer.self_s)
    parser = layers.get("verilog.parser")
    sources = tracer.distinct.get("verilog.parser.sources")
    if parser and sources:
        out["verilog.parser.calls_per_source"] = (
            parser.calls / n / len(sources))
    for name in ("verilog.sim.calls", "verilog.sim.vectors",
                 "verilog.sim.cap_hits", "verilog.formal.verified",
                 "verilog.formal.unsupported", "dataset.dedup.signatures",
                 "dataset.dedup.dropped", "dataset.streaming.worker_cpu_s",
                 "store.write.bytes", "store.read.bytes",
                 "store.read.shards_opened", "finetune.examples"):
        out[name] = counts.get(name, 0) / n
    for kind in FAILURE_KINDS:
        out[f"eval.failure.{kind}"] = counts.get(f"eval.failure.{kind}",
                                                 0) / n
    functional = layers.get("eval.functional")
    if functional:
        ms = [span.wall_s * 1000.0 for span in tracer.spans
              if span.layer == "eval.functional"]
        out["eval.functional.p50_ms"] = statistics.median(ms)
        tail = tail_percentile(ms)
        if tail is not None:
            out["eval.functional.tail_pct"] = tail.percentile
            out["eval.functional.tail_ms"] = tail.value
        out["eval.functional.tail_n"] = len(ms)
        samples = layers.get("model.generate")
        if samples and samples.calls:
            out["eval.cache_hit_ratio"] = (
                1.0 - functional.calls / samples.calls)
    named = sum(t.self_s for t in layers.values())
    out["other.self_s"] = (traced_wall_s - named) / n
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead"] = (out["trace.wall_s"] / untraced_wall_s
                             if untraced_wall_s > 0 else 0.0)
    out["trace.named_share"] = (named / traced_wall_s
                                if traced_wall_s > 0 else 0.0)
    return out
