"""The parser's output, pinned over the corpus it reads.

Every design family at four draws, each draw's operator mutants and
``break_syntax`` variants, and a seeded GitHub scrape are parsed; the
digest covers each tree's ``repr`` (every field of every node) or,
for a source that does not parse, its ``ParseError`` message, line and
column.  A change to how expressions are parsed must leave it
unchanged; never update the digest to make a change pass.  Random
chains over every binary operator must group as a recursive descent
over the precedence levels groups them.
"""

import hashlib
import random

from repro.corpus import family_names, generate_design
from repro.corpus.github_sim import GitHubScrapeSimulator
from repro.corpus.mutate import break_syntax
from repro.dataset.corrupt import operator_mutants
from repro.verilog import ast_nodes as ast
from repro.verilog.parser import ParseError, parse, parse_module

DRAWS = 4
SCRAPE_FILES = 400


def _sources():
    for family in family_names():
        for draw in range(DRAWS):
            source = generate_design(
                family, random.Random(f"{family}/{draw}")).source
            yield source
            yield from operator_mutants(source, max_mutants=64)
            for variant in range(2):
                rng = random.Random(f"{family}/{draw}/break{variant}")
                yield break_syntax(source, rng).source
    for raw in GitHubScrapeSimulator(seed=11).scrape(SCRAPE_FILES):
        yield raw.content


def _parsed(source):
    try:
        return "tree", repr(parse(source))
    except ParseError as exc:
        return "error", repr((exc.message, exc.line, exc.col))


def test_parse_results_are_pinned():
    digest = hashlib.sha256()
    counts = {"tree": 0, "error": 0}
    for source in _sources():
        kind, text = _parsed(source)
        counts[kind] += 1
        digest.update(f"{kind}\0{text}\0".encode())
    assert counts == PINNED_COUNTS
    assert digest.hexdigest() == PINNED_DIGEST


#: Verilog binary operator precedence, weakest first; every level
#: left-associative.
LEVELS = [("||",), ("&&",), ("|",), ("^", "~^", "^~"), ("&",),
          ("==", "!=", "===", "!=="), ("<", "<=", ">", ">="),
          ("<<", ">>", "<<<", ">>>"), ("+", "-"), ("*", "/", "%"),
          ("**",)]


def _descend(items):
    """Fully parenthesised ``operand op operand ...``, by one
    recursive descent per precedence level."""
    pos = 0

    def level(index):
        nonlocal pos
        if index == len(LEVELS):
            pos += 1
            return items[pos - 1]
        left = level(index + 1)
        while pos < len(items) and items[pos] in LEVELS[index]:
            op = items[pos]
            pos += 1
            left = f"({left} {op} {level(index + 1)})"
        return left
    return level(0)


def _render(expr):
    if isinstance(expr, ast.Binary):
        return f"({_render(expr.left)} {expr.op} {_render(expr.right)})"
    return expr.name


def test_operator_chains_group_as_per_level_descent():
    rng = random.Random(5)
    ops = [op for level in LEVELS for op in level]
    for _ in range(600):
        items = ["a0"]
        for index in range(1, rng.randint(1, 9)):
            items += [rng.choice(ops), f"a{index}"]
        module = parse_module(
            f"module m; assign y = {' '.join(items)}; endmodule")
        assign = [item for item in module.items
                  if isinstance(item, ast.ContinuousAssign)][0]
        assert _render(assign.value) == _descend(items), items


PINNED_COUNTS = {"tree": 1050, "error": 416}
PINNED_DIGEST = (
    "a96b194ad5b392cf48d5ee819dbdfdcabf678f400bba3ab096fdc03b4ecba08c")
