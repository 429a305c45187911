"""Trainable models: the retrieval-augmented conditional generator,
the numpy transformer, tokenizers, and the compiler-feedback repair
rules (:mod:`.repair`; the loop that applies them is
:class:`repro.repairloop.RepairLoop`)."""

from .interfaces import FineTunable, TrainStats, TrainingExample
from .tokenizer import Vocabulary, detokenize, tokenize_code, tokenize_text
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
    "ConditionalCodeModel", "ModelProfile", "PROFILES",
    "CODELLAMA_7B", "CODELLAMA_13B", "DEEPSEEK_7B",
    "extract_param_hints",
    "TinyTransformer", "TransformerConfig",
    "PUBLISHED_CONFIGS", "build_registry", "render_table2",
]
