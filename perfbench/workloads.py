"""Seeded generators for the benchmark workloads.

Each generator returns a `Workload`, its own model of the inputs (token
lists, vectors, labels) that the checker uses as ground truth, and the files
the program is given (name -> text).  The same seed gives the same bytes.

Words are drawn from Zipf distributions with precomputed `cum_weights`:
`random.choices(..., weights=w)` recomputes the cumulative sum on every call,
which made generation two orders of magnitude slower, and both forms give the
same draws.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

# The fixture of acceptance criteria 8/9 (tests/test_acceptance.py, big_run)
# is match-bm25-1723 at this seed; these are the sha256 of its two files.
FIXTURE_SEED = 0xB16
FIXTURE_SHA256 = {
    "articles.jsonl": "d59b6f37b5211a44d1170dd389e50d1689b505bd0c53709f7b8670bbd7de89b2",
    "tweets.jsonl": "ae583b82791185ecaa0a223174222965e06883603a49e5870112ecac5121dd9e",
}

# the CLI's default election window, [2016-04-01, 2016-10-01)
ELECTION_START, ELECTION_END = 1459468800, 1475280000
YEAR_START = 1451606400  # 2016-01-01
YEAR_END = 1483228800  # 2017-01-01

# Noise the tokenizer must drop: none of these yields a token.
STOPWORDS = ("the", "and", "is", "of", "to", "in", "that", "it", "this", "was", "for", "on")
SHORT = ("x", "y", "z")
GROUPS = ("CLINTON_FOLLOWER", "TRUMP_FOLLOWER", "OTHER")


@dataclass
class Workload:
    name: str
    command: str  # rumormatch subcommand
    matcher: str
    threshold: float
    article_tokens: list[list[int]]  # term ids, in body order
    tweet_tokens: list[list[int]]  # term ids the tokenizer must produce
    # extra config keys; file names are relative to the input directory
    config: dict[str, str] = field(default_factory=dict)
    tweet_groups: Optional[list[str]] = None
    tweet_times: Optional[list[int]] = None
    labels: Optional[list[tuple[str, bool]]] = None  # (tweet id, is rumor)
    table_terms: Optional[dict[int, int]] = None  # term id -> vector row
    vectors: Optional[np.ndarray] = None

    @property
    def n_tweets(self) -> int:
        return len(self.tweet_tokens)


def zipf_cum_weights(n: int) -> list[float]:
    return list(accumulate(1.0 / (i + 1) for i in range(n)))


def _jsonl(objs) -> str:
    return "".join(json.dumps(o) + "\n" for o in objs)


def match_bm25_1723(seed: int, n_tweets: int = 100_000) -> tuple[Workload, dict[str, str]]:
    """The criterion-8/9 shape: Zipf 5,000 terms, 1,723 x 60-token articles,
    10-token tweets.  At FIXTURE_SEED the files equal that fixture byte for byte."""
    rng = random.Random(seed)
    vocab = [f"w{i:04d}" for i in range(5000)]
    ids = range(len(vocab))
    cum = zipf_cum_weights(len(vocab))
    articles = [rng.choices(ids, cum_weights=cum, k=60) for _ in range(1723)]
    tweets = [rng.choices(ids, cum_weights=cum, k=10) for _ in range(n_tweets)]
    text = lambda toks: " ".join(vocab[t] for t in toks)
    files = {
        "articles.jsonl": _jsonl(
            {"id": f"a{i}", "title": "", "body": text(a)} for i, a in enumerate(articles)
        ),
        "tweets.jsonl": _jsonl(
            {"id": f"t{i}", "user_id": f"u{i % 500}", "group": "OTHER",
             "timestamp": 1462060800 + i, "text": text(t)}
            for i, t in enumerate(tweets)
        ),
    }
    # threshold near the median best score, so about half the lines name an article
    return Workload("match-bm25-1723", "match", "BM25", 10.0, articles, tweets), files


def _noisy_text(rng: random.Random, words: list[str], vocab: list[str]) -> str:
    """Wrap vocabulary words in tweet noise the tokenizer removes.  Mentions
    and URLs carry vocabulary words, so noise that is not removed scores."""
    out = []
    for w in words:
        r = rng.random()
        if r < 0.08:
            w = "#" + w
        elif r < 0.14:
            w = w.upper()
        elif r < 0.18:
            w += rng.choice("!?.,:")
        out.append(w)
        if rng.random() < 0.25:
            out.append(rng.choice(STOPWORDS))
    if rng.random() < 0.3:
        out.insert(0, "@" + rng.choice(vocab))
    if rng.random() < 0.1:
        out.insert(rng.randrange(len(out) + 1), rng.choice(SHORT + ("&", "-")))
    if rng.random() < 0.3:
        out.append("https://t.co/" + rng.choice(vocab))
    return " ".join(out)


def match_embedding_noisy(seed: int, n_tweets: int = 120_000) -> tuple[Workload, dict[str, str]]:
    """EMBEDDING over noisy tweets: 60k-term Zipf vocabulary, 50k of it in a
    100-dim word2vec file, 50 articles.  About 1 % of tweets hold no table
    term (URL/mention/stopword-only or out-of-vocabulary only)."""
    rng = random.Random(seed)
    words = [f"v{i:05d}" for i in range(60_000)]
    ids = range(len(words))
    cum = zipf_cum_weights(len(words))
    # the noise words have vectors too, as in a real word2vec file;
    # every sixth vocabulary term is missing from it
    vocab = words + list(STOPWORDS + SHORT)
    table_terms = {t: row for row, t in enumerate(
        t for t in range(len(vocab)) if t % 6 != 5 or t >= len(words))}
    oov = [t for t in ids if t % 6 == 5][:200]

    articles = [rng.choices(ids, cum_weights=cum, k=40) for _ in range(50)]
    tweets, texts = [], []
    for _ in range(n_tweets):
        r = rng.random()
        if r < 0.005:  # noise only: empty after tokenize
            toks = []
        elif r < 0.01:  # out-of-vocabulary terms only: undefined embedding
            toks = rng.choices(oov, k=rng.randint(1, 4))
        else:
            toks = rng.choices(ids, cum_weights=cum, k=rng.randint(4, 12))
        tweets.append(toks)
        texts.append(_noisy_text(rng, [vocab[t] for t in toks], words) or rng.choice(STOPWORDS))

    dim = 100
    vectors = np.random.default_rng(seed).integers(-128, 128, size=(len(table_terms), dim)) / 64.0
    row_fmt = " ".join(["%.6f"] * dim)  # k/64 prints exactly in six decimals
    by_row = sorted(table_terms, key=table_terms.get)
    vec_lines = [f"{len(by_row)} {dim}\n"]
    vec_lines += [vocab[t] + " " + row_fmt % tuple(v) + "\n"
                  for t, v in zip(by_row, vectors.tolist())]

    files = {
        "articles.jsonl": _jsonl(
            {"id": f"a{i}", "title": f"Article {i}",
             "body": _noisy_text(rng, [vocab[t] for t in a], words)}
            for i, a in enumerate(articles)
        ),
        "tweets.jsonl": _jsonl(
            {"id": f"t{i}", "user_id": f"u{rng.randrange(20_000)}",
             "group": GROUPS[i % 3], "timestamp": rng.randrange(YEAR_START, YEAR_END),
             "text": text}
            for i, text in enumerate(texts)
        ),
        "vectors.vec": "".join(vec_lines),
    }
    # threshold near the median best cosine
    return Workload(
        "match-embedding-noisy", "match", "EMBEDDING", 0.42, articles, tweets,
        config={"embeddings": "vectors.vec"}, table_terms=table_terms, vectors=vectors,
    ), files


def all_tfidf_labeled(seed: int, n_tweets: int = 100_000,
                      n_labels: int = 20_000) -> tuple[Workload, dict[str, str]]:
    """The paper's full pipeline: TF-IDF over 1,723 subject-tagged articles,
    30 % of tweets drawn from one article's words, 20k labels (half RUMOR),
    about 5k users in three groups, timestamps across 2016."""
    rng = random.Random(seed)
    vocab = [f"w{i:04d}" for i in range(5000)]
    ids = range(len(vocab))
    cum = zipf_cum_weights(len(vocab))
    n_articles = 1723
    articles = [rng.choices(ids, cum_weights=cum, k=60) for _ in range(n_articles)]
    subjects = []
    for _ in range(n_articles):
        r = rng.random()
        subjects.append(["CLINTON"] if r < 0.4 else ["TRUMP"] if r < 0.8
                        else ["CLINTON", "TRUMP"] if r < 0.85 else ["OTHER"])

    tweets, sources, users = [], [], []
    for _ in range(n_tweets):
        if rng.random() < 0.3:
            src = rng.randrange(n_articles)
            toks = rng.choices(articles[src], k=rng.randint(5, 9))
            toks += rng.choices(ids, cum_weights=cum, k=rng.randint(1, 3))
        else:
            src = None
            toks = rng.choices(ids, cum_weights=cum, k=10)
        tweets.append(toks)
        sources.append(src)
        users.append(rng.randrange(5000))
    groups = [GROUPS[u % 3] for u in users]
    times = [rng.randrange(YEAR_START, YEAR_END) for _ in range(n_tweets)]

    drawn = [i for i, s in enumerate(sources) if s is not None]
    plain = [i for i, s in enumerate(sources) if s is None]
    labeled = rng.sample(drawn, n_labels // 2) + rng.sample(plain, n_labels - n_labels // 2)
    rng.shuffle(labeled)
    labels = [(f"t{i}", sources[i] is not None) for i in labeled]

    text = lambda toks: " ".join(vocab[t] for t in toks)
    files = {
        "articles.jsonl": _jsonl(
            {"id": f"a{i}", "title": f"Article {i}", "body": text(a), "subjects": s}
            for i, (a, s) in enumerate(zip(articles, subjects))
        ),
        "tweets.jsonl": _jsonl(
            {"id": f"t{i}", "user_id": f"u{u}", "group": g, "timestamp": ts, "text": text(t)}
            for i, (t, u, g, ts) in enumerate(zip(tweets, users, groups, times))
        ),
        "labels.jsonl": _jsonl(
            {"tweet_id": tid, "label": "RUMOR", "article_id": f"a{sources[int(tid[1:])]}"}
            if rumor else {"tweet_id": tid, "label": "NONRUMOR"}
            for tid, rumor in labels
        ),
    }
    # at this threshold about 15 % of tweets are rumors, in every group
    return Workload(
        "all-tfidf-labeled", "all", "TFIDF", 0.3, articles, tweets,
        config={"labels": "labels.jsonl", "keywords": "w0001,w0007,w0030,w0120,w0500"},
        tweet_groups=groups, tweet_times=times, labels=labels,
    ), files


GENERATORS = {
    "match-bm25-1723": match_bm25_1723,
    "match-embedding-noisy": match_embedding_noisy,
    "all-tfidf-labeled": all_tfidf_labeled,
}
