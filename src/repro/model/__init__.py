"""Trainable models: the retrieval-augmented conditional generator,
the numpy transformer, tokenizers, the weighted n-gram LM, and the
compiler-feedback repair rules (:mod:`.repair`; the loop that applies
them is :class:`repro.repairloop.RepairLoop`)."""

from .interfaces import FineTunable, TrainStats, TrainingExample
from .tokenizer import Vocabulary, detokenize, tokenize_code, tokenize_text
from .ngram import NGramLM
from .generator import (
    CODELLAMA_7B,
    CODELLAMA_13B,
    DEEPSEEK_7B,
    PROFILES,
    ConditionalCodeModel,
    ModelProfile,
    extract_param_hints,
)
from .tinyformer import TinyTransformer, TransformerConfig
from .registry import PUBLISHED_CONFIGS, build_registry, render_table2

__all__ = [
    "FineTunable", "TrainStats", "TrainingExample",
    "Vocabulary", "detokenize", "tokenize_code", "tokenize_text",
    "NGramLM",
    "ConditionalCodeModel", "ModelProfile", "PROFILES",
    "CODELLAMA_7B", "CODELLAMA_13B", "DEEPSEEK_7B",
    "extract_param_hints",
    "TinyTransformer", "TransformerConfig",
    "PUBLISHED_CONFIGS", "build_registry", "render_table2",
]
