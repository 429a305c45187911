"""Verilog front-end and simulator.

Public surface:

* :func:`tokenize`, :func:`parse`, :func:`parse_module` — lexing/parsing;
* :class:`FrontEndMemo` — the run-scoped parse/elaboration memo
  :func:`parse` answers from (:mod:`repro.verilog.frontend`);
* :func:`preprocess` — compiler directives;
* :func:`check`, :class:`CheckResult` — compile checking with the
  paper's syntax/dependency taxonomy (the Icarus Verilog substitute);
* :class:`Simulator` — event-driven four-state simulation;
* :func:`measure` — structural metrics;
* :func:`lint` — style/efficiency linting;
* :func:`check_equivalence`, :func:`check_properties`,
  :func:`verify_design` — bounded BDD-based formal checking
  (:mod:`repro.verilog.formal`).
"""

from .lexer import LexError, Token, TokenKind, tokenize
from .parser import ParseError, parse, parse_module, parse_number_literal
from .preprocessor import PreprocessorError, preprocess
from .syntax_checker import (
    Category,
    CheckResult,
    Diagnostic,
    Severity,
    check,
    has_module_declaration,
)
from .metrics import StructuralMetrics, measure, measure_module
from .style import StyleReport, Violation, lint
from .sim.values import Vec4
from .sim.runtime import Simulator, build_library
from .sim.design import ElaborationError
from .sim.interp import SimulationError, StopSimulation
from .frontend import FrontEndMemo
from .formal import (
    FormalReport,
    FormalUnsupported,
    check_equivalence,
    check_properties,
    verify_code,
    verify_design,
)

__all__ = [
    "tokenize", "Token", "TokenKind", "LexError",
    "parse", "parse_module", "parse_number_literal", "ParseError",
    "preprocess", "PreprocessorError",
    "check", "CheckResult", "Diagnostic", "Severity", "Category",
    "has_module_declaration",
    "measure", "measure_module", "StructuralMetrics",
    "lint", "StyleReport", "Violation",
    "Vec4", "Simulator", "build_library",
    "ElaborationError", "SimulationError", "StopSimulation",
    "FrontEndMemo",
    "FormalReport", "FormalUnsupported",
    "check_equivalence", "check_properties",
    "verify_design", "verify_code",
]
