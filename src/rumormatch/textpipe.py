"""Text normalization: the one place where raw text becomes terms.

Every matcher and the keyword breakdown consume the same tokenizer output:
lowercase, drop URLs, then @-mentions, keep hashtag words without the '#',
strip punctuation, drop stopwords and too-short tokens, optional Porter
stemming. ``tokenize`` does this for one text; ``tokenize_block`` does it
for a block of texts in one pass and leaves the stopword and length
filters to the vocabulary the words are looked up in, and
``tokenize_texts`` applies them. Stopword and lexicon files share one list
format, parsed here.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

from . import stemmer

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9']*")
# Joins the texts of a block: whitespace on both sides, so that no URL or
# mention runs across it, and a NUL that the character filter keeps.
_SEP = " \x00 "
# A bytes.translate table: every byte but [a-z0-9'] and the NUL becomes a space.
_WORD_BYTES = bytes(c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789'\x00" else 32
                    for c in range(256))
# Apostrophes at the start or end of a word: what str.strip("'") removes.
_EDGE_APOSTROPHES = re.compile(r"(?<![a-z0-9'])'+|'+(?![a-z0-9'])")


def list_entries(lines: Iterable[str]) -> list[str]:
    """A list file's entries: one per line, stripped; blanks and '#' comments skipped."""
    return [s for s in map(str.strip, lines) if s and not s.startswith("#")]


def packaged_list(name: str) -> list[str]:
    """The entries of a list file shipped in the package's data directory."""
    return list_entries(resources.files("rumormatch.data").joinpath(name)
                        .read_text("utf-8").splitlines())


@functools.cache  # read once per process: TokenizerConfig() calls it
def default_stopwords() -> frozenset[str]:
    return frozenset(w.lower() for w in packaged_list("stopwords.txt"))


def load_stopwords(path) -> frozenset[str]:
    """One word per line, lowercased; '#' comments ignored."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(w.lower() for w in list_entries(fh))


@dataclass(frozen=True)
class TokenizerConfig:
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    min_token_len: int = 2
    stemming: bool = False


def tokenize(text: str, config: Optional[TokenizerConfig] = None) -> list[str]:
    """Normalize raw text into a token sequence. Deterministic; may be empty."""
    config = config or TokenizerConfig()
    text = _URL_RE.sub(" ", text.lower())
    text = _MENTION_RE.sub(" ", text)  # after URLs: "@www.cnn.com" leaves no "cnn", "com"
    # hashtags contribute their word form; _TOKEN_RE then drops the '#'
    tokens = []
    for tok in _TOKEN_RE.findall(text):
        tok = tok.strip("'")
        if len(tok) < config.min_token_len or tok in config.stopwords:
            continue
        if config.stemming:
            tok = stemmer.stem(tok)
            if len(tok) < config.min_token_len:
                continue
        tokens.append(tok)
    return tokens


def tokenize_block(texts: list[str], config: Optional[TokenizerConfig] = None
                   ) -> list[list[str]]:
    """Each text's words, in order: ``tokenize(text, config)`` with the
    words it drops as stopwords or as shorter than ``min_token_len`` left
    in. Looked up in a vocabulary of tokenize outputs, they find exactly
    the terms of tokenize.

    The block is normalized as one string: its texts joined by a separator
    with whitespace on both sides, lowercased once, URLs removed only if it
    holds "http" or "www." and mentions only if it holds "@" (with the
    regexes of tokenize), every character outside [a-z0-9'] made a space,
    and apostrophes stripped at word edges only if it holds one. It is then
    split per text on the separator, and each part on whitespace. Under
    stemming, or when a text holds the separator's NUL, each text goes
    through tokenize instead, whose output is already the words kept.
    """
    config = config or TokenizerConfig()
    block = _SEP.join(texts).lower()
    if config.stemming or block.count("\x00") != len(texts) - 1:
        return [tokenize(text, config) for text in texts]
    if "http" in block or "www." in block:
        block = _URL_RE.sub(" ", block)
    if "@" in block:
        block = _MENTION_RE.sub(" ", block)
    block = block.encode("ascii", "replace").translate(_WORD_BYTES).decode("ascii")
    if "'" in block:
        block = _EDGE_APOSTROPHES.sub(" ", block)
    return [part.split() for part in block.split("\x00")]


def tokenize_texts(texts: list[str], config: Optional[TokenizerConfig] = None
                   ) -> list[list[str]]:
    """``[tokenize(text, config) for text in texts]``, made by tokenize_block
    with the stopwords and short words then dropped."""
    config = config or TokenizerConfig()
    words = tokenize_block(texts, config)
    if config.stemming:  # the words are tokenize's own terms
        return words
    shortest, stopwords = config.min_token_len, config.stopwords
    return [[w for w in row if len(w) >= shortest and w not in stopwords] for row in words]


def keyword_terms(keywords: Iterable[str],
                  config: Optional[TokenizerConfig] = None) -> dict[str, str]:
    """Each keyword, lowercased, mapped to the one token ``tokenize`` makes of
    it; a keyword that makes none or several is a ValueError naming it."""
    terms = {}
    for keyword in keywords:
        tokens = tokenize(keyword, config)
        if len(tokens) != 1:
            raise ValueError(f"keyword {keyword!r} makes {len(tokens)} tokens, not 1: {tokens}")
        terms[keyword.lower()] = tokens[0]
    return terms
