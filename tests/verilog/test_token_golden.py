"""The lexer's token stream, pinned byte for byte, and the token type.

One sha256 covers ``(kind, text, line, col)`` of every token the lexer
produces over one draw of each corpus family, that draw's operator
mutants and three ``break_syntax`` variants of it (a variant the lexer
rejects contributes its ``LexError`` instead).  A change to how tokens
are built must leave the digest unchanged; never update it to make a
change pass.
"""

import hashlib
import pickle
import random

import pytest

from repro.corpus import family_names, generate_design
from repro.corpus.mutate import break_syntax
from repro.dataset.corrupt import operator_mutants
from repro.verilog.lexer import LexError, Token, TokenKind, tokenize

#: sha256 over one line per source of :func:`sources`.
TOKEN_DIGEST = ("10da865ec952f0dc5cb982ae02fbaf8d"
                "2f2347672e9baf33ec929178ec61bbcb")
N_SOURCES = 288
N_TOKENS = 27_479


def sources():
    """Each family's draw 0, its operator mutants and three syntax
    breaks, families in name order."""
    out = []
    for family in family_names():
        source = generate_design(family, random.Random(f"{family}/0")).source
        out.append(source)
        out.extend(operator_mutants(source))
        for variant in range(3):
            out.append(break_syntax(
                source, random.Random(f"{family}/break/{variant}")).source)
    return out


def token_line(source):
    try:
        tokens = tokenize(source)
    except LexError as exc:
        return repr(("LexError", exc.message, exc.line, exc.col)), 0
    return repr([(tok.kind.value, tok.text, tok.line, tok.col)
                 for tok in tokens]), len(tokens)


def test_token_stream_golden():
    lines, n_tokens = [], 0
    for source in sources():
        line, count = token_line(source)
        lines.append(line)
        n_tokens += count
    assert (len(lines), n_tokens) == (N_SOURCES, N_TOKENS)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == TOKEN_DIGEST


class TestToken:
    def test_fields_and_helpers(self):
        tok = tokenize("assign y = a;")[2]
        assert (tok.kind, tok.text, tok.line, tok.col) == (
            TokenKind.OPERATOR, "=", 1, 10)
        assert tok.is_op("+", "=") and not tok.is_op("+")
        assert not tok.is_kw("assign")
        assert tokenize("assign")[0].is_kw("module", "assign")

    def test_equality_and_hash(self):
        first = tokenize("module m; endmodule")
        second = tokenize("module m; endmodule")
        assert first == second
        assert [hash(tok) for tok in first] == [hash(tok) for tok in second]
        assert first[0] != Token(TokenKind.KEYWORD, "module", 1, 2)
        assert hash(first[0]) == hash(
            (TokenKind.KEYWORD, "module", 1, 1))
        assert len({*first, *second}) == len(first)

    def test_pickle_round_trip(self):
        tokens = tokenize("module m(input [3:0] a); endmodule")
        loaded = pickle.loads(pickle.dumps(tokens))
        assert loaded == tokens
        assert all(type(tok) is Token for tok in loaded)

    def test_repr(self):
        assert repr(tokenize("wire")[0]) == (
            "Token(kind=<TokenKind.KEYWORD: 'keyword'>, text='wire', "
            "line=1, col=1)")

    def test_immutable(self):
        tok = tokenize("wire")[0]
        with pytest.raises(AttributeError):
            tok.text = "reg"
