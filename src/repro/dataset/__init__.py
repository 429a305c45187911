"""PyraNet dataset: records, curation pipeline, labels, and layering."""

from .records import Complexity, CompileStatus, DatasetEntry, PyraNetDataset
from .filters import FunnelStats
from .dedup import (
    DedupReport,
    deduplicate,
    jaccard,
    tokenize_for_dedup,
)
from .ranking import RankingResult, rank_code, score_code
from .complexity import classify_code, classify_metrics, complexity_score
from .describe import describe_blocks, describe_module, describe_source, family_description
from .families import (
    Evidence,
    Family,
    FamilyForest,
    FamilyIndex,
    FamilyReport,
    FamilyVariant,
    build_family_artifacts,
    module_names,
)
from .layering import LayerReport, assign_layers, layer_for
from .pipeline import CurationPipeline, CurationResult, build_pyranet
from .streaming import (
    StreamingCurationPipeline,
    StreamingStoreResult,
    chain_batches,
    generated_batches,
    raw_file_batches,
)
from .corrupt import shuffle_labels
from .io import load_jsonl, save_jsonl

__all__ = [
    "Complexity", "CompileStatus", "DatasetEntry", "PyraNetDataset",
    "FunnelStats",
    "DedupReport", "deduplicate", "jaccard", "tokenize_for_dedup",
    "RankingResult", "rank_code", "score_code",
    "classify_code", "classify_metrics", "complexity_score",
    "describe_blocks", "describe_module", "describe_source",
    "family_description",
    "Evidence", "Family", "FamilyForest", "FamilyIndex",
    "FamilyReport", "FamilyVariant", "build_family_artifacts",
    "module_names",
    "LayerReport", "assign_layers", "layer_for",
    "CurationPipeline", "CurationResult", "build_pyranet",
    "StreamingCurationPipeline", "StreamingStoreResult",
    "chain_batches", "generated_batches", "raw_file_batches",
    "shuffle_labels", "load_jsonl", "save_jsonl",
]
