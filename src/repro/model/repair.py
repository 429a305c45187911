"""Compiler-feedback syntax repair rules (OriGen's self-reflection).

OriGen's second LoRA model consumes compiler error reports and rewrites
the code.  Our stand-in is a rule-based fixer driven by the diagnostics
of :func:`repro.verilog.check`: :func:`self_reflect_once` reads one
syntax error and applies the matching textual remedy (insert the
missing semicolon, close an unbalanced ``begin``, restore a dropped
``endmodule``, strip garbage bytes, fix keyword typos).  It repairs
exactly the classes of damage LLM sampling and the corpus mutators
introduce.  The check → remedy → re-check loop around it is
:class:`repro.repairloop.RepairLoop` with its
:class:`~repro.repairloop.RuleBasedRepairer`.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

_KEYWORD_TYPOS = {
    "begn": "begin", "bgin": "begin", "endmodul": "endmodule",
    "modul": "module", "asign": "assign", "alway": "always",
    "endcas": "endcase",
}

_GARBAGE_RE = re.compile(r"[@#%$&]{2,}|[^\x09\x0a\x0d\x20-\x7e]+")


#: Line endings a ``;`` must never be appended after.
_NO_SEMI_SUFFIXES = (";", "begin", "end", "(", ",")


def _insert_semicolon(code: str, line: int,
                      column: int = 0) -> Optional[str]:
    """Insert ``;`` where the diagnostic's span says the parser choked.

    With a real column (> 1) the offending token sits mid-line, so the
    missing ``;`` belongs immediately before it — which also repairs a
    single-line module whose error is reported on line 1, where the old
    fixed ``(line-2, line-1)`` candidates had nowhere to go.  With no
    column (or a token at the start of the line) the statement that
    lost its ``;`` ended on the nearest preceding non-blank line.
    """
    lines = code.split("\n")
    if not (1 <= line <= len(lines)):
        return None
    index = line - 1
    text = lines[index]
    if column > 1:
        head = text[:column - 1].rstrip()
        if head and not head.endswith(_NO_SEMI_SUFFIXES):
            lines[index] = head + "; " + text[column - 1:]
            return "\n".join(lines)
    for candidate in range(index - 1, -1, -1):
        previous = lines[candidate].rstrip()
        if not previous:
            continue  # blank line: keep walking up to the statement
        if previous.endswith(_NO_SEMI_SUFFIXES):
            return None
        lines[candidate] = previous + ";"
        return "\n".join(lines)
    return None


def _fix_keyword_typos(code: str) -> Optional[str]:
    fixed = code
    for typo, correct in _KEYWORD_TYPOS.items():
        fixed = re.sub(rf"\b{typo}\b", correct, fixed)
    return fixed if fixed != code else None


def _strip_garbage(code: str) -> Optional[str]:
    cleaned = _GARBAGE_RE.sub(" ", code)
    return cleaned if cleaned != code else None


def _balance_endmodule(code: str) -> Optional[str]:
    opens = len(re.findall(r"\bmodule\b", code))
    closes = len(re.findall(r"\bendmodule\b", code))
    if opens > closes:
        return code.rstrip() + "\n" + "endmodule\n" * (opens - closes)
    return None


def _balance_begin_end(code: str) -> Optional[str]:
    opens = len(re.findall(r"\bbegin\b", code))
    closes = len(re.findall(r"\bend\b(?!module|case|function|task|generate)",
                            code))
    if opens > closes:
        # Close before the final endmodule when present.
        index = code.rfind("endmodule")
        filler = "end\n" * (opens - closes)
        if index >= 0:
            return code[:index] + filler + code[index:]
        return code + filler
    return None


def _close_dangling_paren(code: str, line: int) -> Optional[str]:
    opens = code.count("(")
    closes = code.count(")")
    if opens > closes:
        lines = code.split("\n")
        target = min(max(line - 1, 0), len(lines) - 1)
        lines[target] = lines[target] + ")" * (opens - closes)
        return "\n".join(lines)
    return None


def self_reflect_once(
    code: str, error_message: str, error_line: int,
    error_column: int = 0,
) -> Optional[Tuple[str, str]]:
    """One repair step from one compiler diagnostic."""
    message = error_message.lower()
    candidates: List[Tuple[str, Optional[str]]] = []
    if "';'" in message or "expected ';'" in message:
        candidates.append(("insert_semicolon",
                           _insert_semicolon(code, error_line,
                                             error_column)))
    if "unexpected" in message or "expected" in message:
        candidates.append(("fix_typos", _fix_keyword_typos(code)))
        candidates.append(("balance_begin_end", _balance_begin_end(code)))
        candidates.append(("close_paren",
                           _close_dangling_paren(code, error_line)))
    if "end of file" in message or "eof" in message:
        candidates.append(("balance_begin_end", _balance_begin_end(code)))
        candidates.append(("append_endmodule", _balance_endmodule(code)))
    candidates.append(("strip_garbage", _strip_garbage(code)))
    candidates.append(("append_endmodule", _balance_endmodule(code)))
    candidates.append(("insert_semicolon",
                       _insert_semicolon(code, error_line, error_column)))
    for action, attempt in candidates:
        if attempt is not None and attempt != code:
            return attempt, action
    return None
