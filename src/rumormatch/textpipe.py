"""Text normalization: the one place where raw text becomes terms.

Every matcher and the keyword breakdown consume the same tokenizer output:
lowercase, drop URLs, then @-mentions, keep hashtag words without the '#',
strip punctuation, drop stopwords and too-short tokens, optional Porter
stemming. ``tokenize_block`` is the one implementation of these rules: it
runs them over a block of texts in one pass and, with stemming off, leaves
the stopword and length filters to the vocabulary its words are looked up
in, trimmed by ``trim_vocabulary``. ``tokenize_texts`` applies the filters
itself, and ``tokenize`` is it for one text. Stopword and lexicon files
share one list format, parsed here.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

from . import corpus, stemmer

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
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
    return frozenset(w.lower() for w in list_entries(corpus._text_lines(path)))


@dataclass(frozen=True)
class TokenizerConfig:
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    min_token_len: int = 2
    stemming: bool = False


def tokenize(text: str, config: Optional[TokenizerConfig] = None) -> list[str]:
    """Normalize raw text into a token sequence. Deterministic; may be empty."""
    return tokenize_texts([text], config)[0]


def tokenize_block(texts: list[str], config: Optional[TokenizerConfig] = None
                   ) -> list[list[str]]:
    """Each text's words, in order. Under stemming they are the text's
    terms; otherwise they also hold the stopwords and words shorter than
    ``min_token_len`` that its terms leave out, and looked up in a
    vocabulary trimmed by trim_vocabulary they find exactly its terms.

    The block is normalized as one string: its texts joined by a separator
    with whitespace on both sides (a NUL inside a text made U+0001 first:
    the character filter drops both, and a URL runs through both where a
    space would end it), lowercased once, URLs removed only if it holds
    "http" or "www." and then mentions only if it holds "@", every
    character outside [a-z0-9'] made a space, and apostrophes stripped at
    word edges only if it holds one. It is then split per text on the
    separator, and each part on whitespace. Under stemming, the stopwords
    and short words are dropped, the rest stemmed, and the stems shorter
    than ``min_token_len`` dropped.
    """
    if not texts:
        return []
    config = config or TokenizerConfig()
    block = _SEP.join(texts)
    if block.count("\x00") != len(texts) - 1:
        block = _SEP.join([text.replace("\x00", "\x01") for text in texts])
    block = block.lower()
    if "http" in block or "www." in block:
        block = _URL_RE.sub(" ", block)
    if "@" in block:  # after URLs: "@www.cnn.com" leaves no "cnn", "com"
        block = _MENTION_RE.sub(" ", block)
    block = block.encode("ascii", "replace").translate(_WORD_BYTES).decode("ascii")
    if "'" in block:
        block = _EDGE_APOSTROPHES.sub(" ", block)
    words = [part.split() for part in block.split("\x00")]
    if not config.stemming:
        return words
    stems = [[stemmer.stem(w) for w in row] for row in _kept(words, config)]
    return [[s for s in row if len(s) >= config.min_token_len] for row in stems]


def _kept(words: list[list[str]], config: TokenizerConfig) -> list[list[str]]:
    """The words that are neither stopwords nor shorter than ``min_token_len``."""
    shortest, stopwords = config.min_token_len, config.stopwords
    return [[w for w in row if len(w) >= shortest and w not in stopwords] for row in words]


def tokenize_texts(texts: list[str], config: Optional[TokenizerConfig] = None
                   ) -> list[list[str]]:
    """Each text's terms: tokenize_block's words without the stopwords and
    short words it leaves in."""
    config = config or TokenizerConfig()
    words = tokenize_block(texts, config)
    return words if config.stemming else _kept(words, config)  # stemmed words are the terms


def trim_vocabulary(vocab: dict, config: TokenizerConfig) -> None:
    """Drop from vocab, in place, the terms that tokenize_block's words may
    be and tokenize never makes: with stemming off, the stopwords and the
    terms shorter than ``min_token_len``. A word looked up in what is left
    finds only the terms of tokenize."""
    if config.stemming:
        return
    shortest, stopwords = config.min_token_len, config.stopwords
    for term in [t for t in vocab if len(t) < shortest or t in stopwords]:
        del vocab[term]


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
