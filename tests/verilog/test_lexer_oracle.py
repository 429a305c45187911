"""The master-pattern lexer against the character-at-a-time reference.

Both scanners must agree on every input: the same tokens (kind, text,
line, column), and on bad input the same :class:`LexError` (message,
line, column) after the same tokens when the lexer is iterated.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import family_names, generate_design
from repro.corpus.mutate import break_syntax
from repro.dataset.corrupt import operator_mutants
from repro.verilog.lexer import LexError, Lexer, tokenize

from .reference_lexer import ReferenceLexer, reference_tokenize


def _drain(tokens):
    """(tokens seen, error) from iterating a scanner to its end."""
    seen = []
    try:
        for token in tokens:
            seen.append((token.kind, token.text, token.line, token.col))
    except LexError as exc:
        return seen, (exc.message, exc.line, exc.col)
    return seen, None


def _outcome(scan, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in scan(text)]
    except LexError as exc:
        return ("error", exc.message, exc.line, exc.col)


def assert_same_as_reference(text):
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)
    assert _drain(Lexer(text)) == _drain(ReferenceLexer(text))


def _corpus_sources():
    for family in family_names():
        design = generate_design(family, random.Random(family))
        yield family, design.source
        for number, mutant in enumerate(operator_mutants(design.source,
                                                         max_mutants=4)):
            yield f"{family}/mutant{number}", mutant
        rng = random.Random(f"{family}/break")
        for number in range(4):
            yield (f"{family}/broken{number}",
                   break_syntax(design.source, rng).source)


CORPUS = dict(_corpus_sources())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_family_variants_match_reference(name):
    assert_same_as_reference(CORPUS[name])


#: Fragments arbitrary text is built from: every construct the
#: scanners treat specially, whole and cut short.
FRAGMENTS = [
    " ", "\t", "\n", "\r\n", "\r", "a", "_x", "b1$", "module", "end",
    "\\esc+id", "\\", "$display", "$", "42", "8", "1_0", "3.14", "1.",
    ".5", "1e9", "2.5e-3", "1e+", "'", "'b", "'sh", "'d", "'q", " 'h",
    "\t'o", "8'hFF", "4'b10xz", "'b0", "'s", "?", "xz", '"', '"str"',
    '"a\\"b"', '"\\n"', '"x\\\ny"', "\\\n", "//", "// c\n", "/*", "*/",
    "/* c */", "(*", "*)", "(*)", "(* full_case *)", "@", "<<<", ">>>", "===",
    "<=", "+:", "-:", "~^", "^~", "->", "**", "(", ")", ";", "#", "`",
    "é", "²", "٣", "½", "Ⅻ", "一", "\u00a0", "\x00", "\x0c",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join))
def test_fragment_soup_matches_reference(text):
    assert_same_as_reference(text)


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=40))
def test_arbitrary_text_matches_reference(text):
    assert_same_as_reference(text)


@pytest.mark.parametrize("text", [
    "a\r\nb\r\n  c", "\tx\t=\t1;", "@(*)", "(* keep", "/* open",
    '"open', '"line\nbreak"', "\\weird+name\tnext", "8'q12", "8 'd",
    "8's", "'", "é1² ٣ x²", "1²", "٣'b1", "$é", "a = b (* x *) + c",
    '$display("two\\\nlines");\n  x = 1;',
])
def test_edge_cases_match_reference(text):
    assert_same_as_reference(text)
