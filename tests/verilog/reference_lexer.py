"""Reference scanner for the Verilog lexer's property tests.

This is the original character-at-a-time tokenizer that
:class:`repro.verilog.lexer.Lexer` replaced with one compiled master
pattern.  It is kept here, verbatim in behaviour, as the oracle: both
scanners must produce the same tokens (kind, text, line, column) and
the same :class:`LexError` (message, line, column) on every input.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.verilog.lexer import KEYWORDS, LexError, Token, TokenKind

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<<", ">>>", "===", "!==",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**",
    "~&", "~|", "~^", "^~", "->", "+:", "-:",
    "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "?", "=", ".",
    "@", "#", "$",
]


class ReferenceLexer:
    """Character-at-a-time maximal-munch tokenizer (the reference)."""

    def __init__(self, source: str) -> None:
        self._src = source
        self._pos = 0
        self._line = 1
        self._col = 1

    # -- character helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._src):
            return ""
        return self._src[index]

    def _advance(self, count: int = 1) -> str:
        """Consume ``count`` characters, tracking line/column."""
        taken = self._src[self._pos : self._pos + count]
        for ch in taken:
            if ch == "\n":
                self._line += 1
                self._col = 1
            else:
                self._col += 1
        self._pos += len(taken)
        return taken

    # -- skipping ----------------------------------------------------------

    def _skip_trivia(self) -> None:
        """Skip whitespace, comments, and synthesis attributes."""
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._peek() and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self._line, self._col
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if not self._peek():
                        raise LexError(
                            "unterminated block comment", start_line, start_col
                        )
                    self._advance()
                self._advance(2)
            elif ch == "(" and self._peek(1) == "*":
                # Synthesis attribute (* ... *): skipped entirely.  Guard
                # against "(*)" which is a sensitivity list, not an attribute.
                if self._peek(2) == ")":
                    return
                start_line, start_col = self._line, self._col
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == ")"):
                    if not self._peek():
                        raise LexError(
                            "unterminated attribute", start_line, start_col
                        )
                    self._advance()
                self._advance(2)
            else:
                return

    # -- token scanners ----------------------------------------------------

    def _scan_ident(self) -> Token:
        line, col = self._line, self._col
        start = self._pos
        if self._peek() == "\\":
            # Escaped identifier: backslash up to whitespace.
            self._advance()
            while self._peek() and self._peek() not in " \t\r\n":
                self._advance()
            text = self._src[start:self._pos]
            return Token(TokenKind.IDENT, text, line, col)
        while self._peek() and (self._peek().isalnum() or self._peek() in "_$"):
            self._advance()
        text = self._src[start:self._pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, line, col)

    def _scan_system_ident(self) -> Token:
        line, col = self._line, self._col
        start = self._pos
        self._advance()  # the '$'
        while self._peek() and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self._src[start:self._pos]
        if text == "$":
            return Token(TokenKind.OPERATOR, "$", line, col)
        return Token(TokenKind.SYSTEM_IDENT, text, line, col)

    def _scan_number(self) -> Token:
        """Scan decimal, real, and based literals.

        A based literal may be preceded by a size (``8'hFF``); the size,
        when present, has already been consumed as the leading digits.
        """
        line, col = self._line, self._col
        start = self._pos
        while self._peek() and (self._peek().isdigit() or self._peek() == "_"):
            self._advance()
        # Real numbers: 3.14, 1e9, 2.5e-3
        if self._peek() == "." and self._peek(1).isdigit():
            self._advance()
            while self._peek() and (self._peek().isdigit() or self._peek() == "_"):
                self._advance()
        if self._peek() and self._peek() in "eE" and (
            self._peek(1).isdigit()
            or (self._peek(1) and self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            self._advance()
            if self._peek() and self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        # Based literal continuation: optional whitespace then 'b/'h/...
        save = self._pos, self._line, self._col
        while self._peek() and self._peek() in " \t":
            self._advance()
        if self._peek() == "'":
            self._scan_base_suffix()
        else:
            self._pos, self._line, self._col = save
        text = self._src[start:self._pos]
        return Token(TokenKind.NUMBER, text, line, col)

    def _scan_base_suffix(self) -> None:
        """Consume ``'[sS]?[bodhBODH]<digits>`` after a quote."""
        line, col = self._line, self._col
        self._advance()  # the quote
        if self._peek() and self._peek() in "sS":
            self._advance()
        base = self._peek()
        if base not in "bodhBODH":
            raise LexError(f"invalid base character {base!r}", line, col)
        self._advance()
        while self._peek() and self._peek() in " \t":
            self._advance()
        digits_start = self._pos
        while self._peek() and (
            self._peek().isalnum() or self._peek() in "_?xXzZ"
        ):
            self._advance()
        if self._pos == digits_start:
            raise LexError("based literal missing digits", line, col)

    def _scan_unsized_based(self) -> Token:
        """Scan a based literal with no size prefix, e.g. ``'b0``, ``'hFF``."""
        line, col = self._line, self._col
        start = self._pos
        self._scan_base_suffix()
        return Token(TokenKind.NUMBER, self._src[start:self._pos], line, col)

    def _scan_string(self) -> Token:
        line, col = self._line, self._col
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexError("unterminated string literal", line, col)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._advance()
                chars.append({"n": "\n", "t": "\t", "\\": "\\", '"': '"'}.get(esc, esc))
            else:
                chars.append(self._advance())
        return Token(TokenKind.STRING, "".join(chars), line, col)

    def _scan_operator(self) -> Token:
        line, col = self._line, self._col
        for op in _OPERATORS:
            if self._src.startswith(op, self._pos):
                self._advance(len(op))
                return Token(TokenKind.OPERATOR, op, line, col)
        raise LexError(f"unexpected character {self._peek()!r}", line, col)

    # -- public API ----------------------------------------------------------

    def next_token(self) -> Token:
        """Return the next token, or an EOF token at end of input."""
        self._skip_trivia()
        ch = self._peek()
        if not ch:
            return Token(TokenKind.EOF, "", self._line, self._col)
        if ch.isalpha() or ch == "_" or ch == "\\":
            return self._scan_ident()
        if ch == "$":
            return self._scan_system_ident()
        if ch.isdigit():
            return self._scan_number()
        if ch == "'":
            return self._scan_unsized_based()
        if ch == '"':
            return self._scan_string()
        return self._scan_operator()

    def tokenize(self) -> List[Token]:
        """Tokenize the whole input, returning a list ending with EOF."""
        tokens: List[Token] = []
        while True:
            tok = self.next_token()
            tokens.append(tok)
            if tok.kind is TokenKind.EOF:
                return tokens

    def __iter__(self) -> Iterator[Token]:
        while True:
            tok = self.next_token()
            yield tok
            if tok.kind is TokenKind.EOF:
                return


def reference_tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` with the reference scanner."""
    return ReferenceLexer(source).tokenize()
