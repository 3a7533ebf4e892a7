"""Text normalization: the one place where raw text becomes terms.

Every matcher and the keyword breakdown consume the same tokenizer output:
lowercase, drop URLs, then @-mentions, keep hashtag words without the '#',
strip punctuation, drop stopwords and too-short tokens, optional Porter
stemming. Stopword and lexicon files share one list format, parsed here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Optional

from . import stemmer

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9']*")


def list_entries(lines: Iterable[str]) -> list[str]:
    """A list file's entries: one per line, stripped; blanks and '#' comments skipped."""
    return [s for s in map(str.strip, lines) if s and not s.startswith("#")]


def packaged_list(name: str) -> list[str]:
    """The entries of a list file shipped in the package's data directory."""
    return list_entries(resources.files("rumormatch.data").joinpath(name)
                        .read_text("utf-8").splitlines())


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
