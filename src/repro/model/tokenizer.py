"""Verilog-aware tokenization for the model substrate.

Two tokenizers live here:

* :func:`tokenize_code` — splits Verilog into lexical tokens (robust
  to broken code: unknown bytes become single-character tokens), with
  :func:`detokenize` reconstructing compilable text;
* :func:`tokenize_text` — lowercased word tokens for natural-language
  descriptions (retrieval features).

:class:`Vocabulary` maps tokens to dense ids for the numpy transformer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

_CODE_TOKEN_RE = re.compile(
    r"""
      [a-zA-Z_$][a-zA-Z0-9_$]*        # identifiers / keywords
    | \d+\s*'\s*[sS]?[bodhBODH][0-9a-fA-F_xXzZ?]+   # sized literals
    | '[sS]?[bodhBODH][0-9a-fA-F_xXzZ?]+            # unsized based
    | \d+\.\d+                        # reals
    | \d+                             # integers
    | "(?:[^"\\]|\\.)*"               # strings
    | <<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||\*\*|~&|~\||~\^|\^~|\+:|-:
    | [-+*/%<>!~&|^(){}\[\],;:?=.@\#]
    | \n
    """,
    re.VERBOSE,
)

#: Tokens after which no space is needed.
_NO_SPACE_AFTER = frozenset("([{#.~!@")
#: Tokens before which no space is needed.
_NO_SPACE_BEFORE = frozenset(")]},;:.([")


def tokenize_code(code: str, keep_newlines: bool = True) -> List[str]:
    """Tokenize Verilog text; comments are dropped.

    Unknown characters are skipped (they only occur in corrupted files,
    which the LM never needs to reproduce byte-exactly).
    """
    text = re.sub(r"//[^\n]*", "", code)
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    tokens = _CODE_TOKEN_RE.findall(text)
    if not keep_newlines:
        tokens = [t for t in tokens if t != "\n"]
    else:
        # Collapse runs of newlines to one.
        collapsed: List[str] = []
        for token in tokens:
            if token == "\n" and collapsed and collapsed[-1] == "\n":
                continue
            collapsed.append(token)
        tokens = collapsed
    return tokens


def detokenize(tokens: Sequence[str]) -> str:
    """Reassemble tokens into compilable Verilog text.

    Spacing is conservative: a space between every pair of tokens
    except around brackets/punctuation, which keeps the output valid
    (Verilog is whitespace-insensitive beyond token boundaries).
    """
    out: List[str] = []
    indent = 0
    at_line_start = True
    for token in tokens:
        if token == "\n":
            out.append("\n")
            at_line_start = True
            continue
        if token in ("end", "endmodule", "endcase", "endfunction",
                     "endtask", "endgenerate"):
            indent = max(indent - 1, 0)
        if at_line_start:
            out.append("  " * indent)
            at_line_start = False
        elif out and out[-1] not in ("\n",) and not (
            out[-1].endswith(tuple(_NO_SPACE_AFTER))
            and len(out[-1]) == 1
        ) and token not in _NO_SPACE_BEFORE:
            out.append(" ")
        out.append(token)
        if token in ("begin", "module", "case", "casez", "casex",
                     "function", "task", "generate"):
            if token != "module":
                indent += 1
    return "".join(out)


_WORD_RE = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")

#: Stop words excluded from description features.
_STOP_WORDS = frozenset(
    """a an the and or of to in on for with that this is are be it its
    module verilog design implement implementing implementation write
    code should when while which each all any""".split()
)


def tokenize_text(text: str) -> List[str]:
    """Lowercased word tokens for descriptions, stop words removed."""
    words = _WORD_RE.findall(text.lower())
    return [w for w in words if w not in _STOP_WORDS]


@dataclass
class Vocabulary:
    """Token ↔ id mapping with special tokens.

    id 0 is <pad>, 1 is <bos>, 2 is <eos>, 3 is <unk>.
    """

    token_to_id: Dict[str, int] = field(default_factory=dict)
    id_to_token: List[str] = field(default_factory=list)

    PAD, BOS, EOS, UNK = 0, 1, 2, 3

    def __post_init__(self) -> None:
        if not self.id_to_token:
            for special in ("<pad>", "<bos>", "<eos>", "<unk>"):
                self._add(special)

    def _add(self, token: str) -> int:
        index = len(self.id_to_token)
        self.token_to_id[token] = index
        self.id_to_token.append(token)
        return index

    def add(self, token: str) -> int:
        """Add (or look up) ``token``; returns its id."""
        existing = self.token_to_id.get(token)
        if existing is not None:
            return existing
        return self._add(token)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Iterable[str], grow: bool = False) -> List[int]:
        """Map tokens to ids; unknown tokens become <unk> unless
        ``grow`` is set."""
        ids: List[int] = []
        for token in tokens:
            if grow:
                ids.append(self.add(token))
            else:
                ids.append(self.token_to_id.get(token, self.UNK))
        return ids

    def decode(self, ids: Iterable[int]) -> List[str]:
        tokens: List[str] = []
        for index in ids:
            if 0 <= index < len(self.id_to_token):
                token = self.id_to_token[index]
                if token.startswith("<") and token.endswith(">"):
                    continue
                tokens.append(token)
        return tokens

    @classmethod
    def build(cls, token_lists: Iterable[Sequence[str]],
              min_count: int = 1) -> "Vocabulary":
        """Build a vocabulary from corpora."""
        counts: Dict[str, int] = {}
        for tokens in token_lists:
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
        vocab = cls()
        for token, count in sorted(counts.items()):
            if count >= min_count:
                vocab.add(token)
        return vocab
