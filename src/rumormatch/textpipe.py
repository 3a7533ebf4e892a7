"""Text normalization.

Every matcher consumes the same tokenizer output, so the rules live in one
place: lowercase, drop URLs and @-mentions, keep hashtag words without the
'#', strip punctuation, drop stopwords and too-short tokens, optional
Porter stemming.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from . import stemmer

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9']*")


def default_stopwords() -> frozenset[str]:
    text = resources.files("rumormatch.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(_parse_wordlist(text))


def _parse_wordlist(text):
    words = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(line.lower())
    return words


def load_stopwords(path) -> frozenset[str]:
    """One lowercase word per line; '#' comments ignored."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(_parse_wordlist(fh.read()))


@dataclass(frozen=True)
class TokenizerConfig:
    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    min_token_len: int = 2
    strip_urls: bool = True
    strip_mentions: bool = True
    stemming: bool = False


def tokenize(text: str, config: Optional[TokenizerConfig] = None) -> list[str]:
    """Normalize raw text into a token sequence. Deterministic; may be empty."""
    if config is None:
        config = TokenizerConfig()
    text = text.lower()
    if config.strip_urls:
        text = _URL_RE.sub(" ", text)
    if config.strip_mentions:
        text = _MENTION_RE.sub(" ", text)
    # hashtags contribute their word form; _TOKEN_RE then drops the '#'
    tokens = []
    for tok in _TOKEN_RE.findall(text):
        tok = tok.strip("'")
        if len(tok) < config.min_token_len:
            continue
        if tok in config.stopwords:
            continue
        if config.stemming:
            tok = stemmer.stem(tok)
            if len(tok) < config.min_token_len:
                continue
        tokens.append(tok)
    return tokens
