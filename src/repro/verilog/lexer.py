"""Tokenizer for a Verilog-2001 subset.

The lexer converts preprocessed source text into a stream of
:class:`Token` objects carrying position information, which the parser
and the diagnostics machinery use to produce readable error messages.

The supported language subset covers everything the PyraNet corpus and
evaluation problems use: module declarations (ANSI and non-ANSI),
parameters, nets and variables, continuous assignments, always and
initial blocks, case statements, loops, instantiations, functions, and
the full Verilog expression grammar including sized/based literals.
"""

from __future__ import annotations

import enum
import functools
import re
import sys
from dataclasses import dataclass
from typing import Iterator, List


class TokenKind(enum.Enum):
    """Lexical categories produced by :class:`Lexer`."""

    KEYWORD = "keyword"
    IDENT = "ident"
    SYSTEM_IDENT = "system_ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    EOF = "eof"


#: Reserved words of the supported subset.  Anything else that looks like
#: an identifier is an IDENT token.
KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real time
    parameter localparam assign always initial begin end if else case
    casez casex endcase default for while repeat forever posedge negedge
    or and not nand nor xor xnor buf bufif0 bufif1 notif0 notif1
    function endfunction task endtask generate endgenerate genvar
    signed unsigned defparam specify endspecify supply0 supply1
    tri tri0 tri1 triand trior wand wor
    disable wait fork join deassign force release
    """.split()
)

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**",
    "~&", "~|", "~^", "^~", "->", "+:", "-:",
    "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?", "=", ".",
    "@", "#", "$",
]


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    Attributes:
        kind: lexical category.
        text: exact source spelling (for numbers, the full literal).
        line: 1-based source line.
        col: 1-based source column.
    """

    kind: TokenKind
    text: str
    line: int
    col: int

    def is_op(self, *ops: str) -> bool:
        """Return True when this token is an operator with one of ``ops``."""
        return self.kind is TokenKind.OPERATOR and self.text in ops

    def is_kw(self, *kws: str) -> bool:
        """Return True when this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.text in kws

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.value}({self.text!r})@{self.line}:{self.col}"


class LexError(Exception):
    """Raised when the source contains a character sequence that cannot
    be tokenized (e.g. an unterminated string or a stray byte)."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _char_class(chars: List[str]) -> str:
    """A regex character-class body matching exactly ``chars``."""
    points = sorted(map(ord, chars))
    parts: List[str] = []
    index = 0
    while index < len(points):
        last = index
        while last + 1 < len(points) and points[last + 1] == points[last] + 1:
            last += 1
        low, high = chr(points[index]), chr(points[last])
        parts.append(re.escape(low) if low == high
                     else f"{re.escape(low)}-{re.escape(high)}")
        index = last + 1
    return "".join(parts)


def _master_pattern(alpha: str, digit: str) -> "re.Pattern[str]":
    r"""The scanner's one compiled pattern.

    ``alpha`` is an expression matching one letter (``str.isalpha``) and
    ``digit`` a class body matching one digit (``str.isdigit``); ``\w``
    is exactly ``str.isalnum`` plus ``_``.  Alternatives are tried in
    order, so the operators' longest-first order gives maximal munch.
    A bare opening quote, comment or attribute matches its own group,
    which reports the error the scanner raises there.
    """
    number = (rf"[{digit}][{digit}_]*(?:\.[{digit}][{digit}_]*)?"
              rf"(?:[eE][+-]?[{digit}]+)?")
    suffix = r"'(?:[sS]?[bodhBODH][ \t]*[\w?]+)?"
    operators = "|".join(re.escape(op) for op in _OPERATORS)
    return re.compile(
        r"(?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/"
        r"|\(\*(?!\))[\s\S]*?\*\))+)"
        rf"|(?P<ident>(?:{alpha}|_)[\w$]*)"
        rf"|(?P<number>{number}(?:[ \t]*{suffix})?)"
        r"|(?P<system>\$\w+)"
        r'|(?P<string>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*")'
        rf"|(?P<based>{suffix})"
        r"|(?P<escaped>\\[^ \t\r\n]*)"
        r"|(?P<comment>/\*)|(?P<attribute>\(\*(?!\)))"
        rf"|(?P<op>{operators})"
        r"|(?P<other>[\s\S])"
    )


#: The pattern for ASCII sources (nearly all of them).
_ASCII_PATTERN = _master_pattern("[A-Za-z]", "0-9")


@functools.lru_cache(maxsize=None)
def _unicode_pattern() -> "re.Pattern[str]":
    """The pattern for sources holding non-ASCII text.

    Built on first use: finding the letters and digits whose
    ``str.isalpha``/``str.isdigit`` differ from the regex classes takes
    one pass over every code point (about 0.1 s).
    """
    alnum = [ch for ch in map(chr, range(sys.maxunicode + 1))
             if ch.isalnum() and not ch.isalpha() and not ch.isdecimal()]
    # ``[^\W\d_]`` is isalnum minus decimal digits and ``_``; taking
    # away the other numeric characters leaves exactly isalpha.
    alpha = rf"(?![{_char_class(alnum)}])[^\W\d_]"
    digit = r"\d" + _char_class([ch for ch in alnum if ch.isdigit()])
    return _master_pattern(alpha, digit)


_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"'}


def _unescape(match: "re.Match[str]") -> str:
    char = match.group(1)
    return _ESCAPES.get(char, char)


def _suffix_error(source: str, quote: int) -> str:
    """Why the based-literal suffix starting at ``quote`` is invalid."""
    at = quote + 1
    if source[at:at + 1] in ("s", "S"):
        at += 1
    base = source[at:at + 1]
    # At the end of the input ``base`` is "", which is in every string.
    if base not in "bodhBODH":
        return f"invalid base character {base!r}"
    return "based literal missing digits"


class Lexer:
    """Maximal-munch tokenizer over one compiled master pattern.

    Usage::

        tokens = Lexer(source).tokenize()
    """

    def __init__(self, source: str) -> None:
        self._src = source

    def tokenize(self) -> List[Token]:
        """Tokenize the whole input, returning a list ending with EOF."""
        return list(self._scan())

    def __iter__(self) -> Iterator[Token]:
        return self._scan()

    def _scan(self) -> Iterator[Token]:
        src = self._src
        pattern = _ASCII_PATTERN if src.isascii() else _unicode_pattern()
        line, line_start = 1, 0
        for match in pattern.finditer(src):
            group = match.lastgroup
            text = match.group()
            start = match.start()
            if group == "trivia":
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rindex("\n") + 1
                continue
            col = start - line_start + 1
            if group == "ident":
                yield Token(TokenKind.KEYWORD if text in KEYWORDS
                            else TokenKind.IDENT, text, line, col)
            elif group == "op":
                yield Token(TokenKind.OPERATOR, text, line, col)
            elif group == "number" or group == "based":
                if text[-1] == "'":
                    quote = start + len(text) - 1
                    raise LexError(_suffix_error(src, quote), line,
                                   quote - line_start + 1)
                yield Token(TokenKind.NUMBER, text, line, col)
            elif group == "string":
                value = text[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(_unescape, value)
                yield Token(TokenKind.STRING, value, line, col)
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rindex("\n") + 1
            elif group == "system":
                yield Token(TokenKind.SYSTEM_IDENT, text, line, col)
            elif group == "escaped":
                yield Token(TokenKind.IDENT, text, line, col)
            elif group == "comment":
                raise LexError("unterminated block comment", line, col)
            elif group == "attribute":
                raise LexError("unterminated attribute", line, col)
            # What is left is one character no token starts with, or a
            # quote that opens no complete string.
            elif text == '"':
                raise LexError("unterminated string literal", line, col)
            else:
                raise LexError(f"unexpected character {text!r}", line, col)
        yield Token(TokenKind.EOF, "", line, len(src) - line_start + 1)


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` into a token list."""
    return Lexer(source).tokenize()
