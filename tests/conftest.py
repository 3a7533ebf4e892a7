import contextlib
import itertools
import math
import random
import signal

import pytest

from rumormatch.corpus import Group, RumorArticle, Subject, Tweet
from rumormatch.matchers import build_index
from rumormatch.textpipe import TokenizerConfig


NO_STOPWORDS = TokenizerConfig(stopwords=frozenset())


def make_article(aid, tokens, subjects=frozenset({Subject.OTHER})):
    return RumorArticle(id=aid, body=" ".join(tokens), subjects=subjects)


def make_tweet(tid, text, user="u1", group=Group.OTHER, ts=1462060800):
    return Tweet(id=tid, user_id=user, group=group, timestamp=ts, text=text)


def index_from_token_lists(token_lists):
    """Build an ArticleIndex whose tokenized bodies are exactly token_lists."""
    articles = [make_article(f"a{i}", toks) for i, toks in enumerate(token_lists)]
    return build_index(articles, NO_STOPWORDS)


ZIPF_VOCAB = [f"w{i:04d}" for i in range(5000)]
ZIPF_CUM = list(itertools.accumulate(1 / (r + 1) for r in range(len(ZIPF_VOCAB))))


def zipf_tokens(rng: random.Random, k: int) -> list[str]:
    """k tokens drawn from a Zipf law over 5,000 terms."""
    return rng.choices(ZIPF_VOCAB, cum_weights=ZIPF_CUM, k=k)


def zipf_articles():
    """1,723 articles of 60 Zipf tokens over 5,000 terms: the shape of the
    paper's reference set."""
    rng = random.Random(1723)
    return [make_article(f"a{j}", zipf_tokens(rng, 60)) for j in range(1723)]


def random_token_corpus(rng: random.Random, max_docs=100, max_vocab=50):
    """Random small corpus of token lists over a shared vocabulary."""
    vocab = [f"tt{i:02d}" for i in range(rng.randint(2, max_vocab))]
    n_docs = rng.randint(1, max_docs)
    docs = []
    for _ in range(n_docs):
        length = rng.randint(1, 30)
        docs.append([rng.choice(vocab) for _ in range(length)])
    # at least one doc must be nonempty for indexing; they all are
    query = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
    return docs, query


class Overran(Exception):
    """Raised in the main thread when a deadline block runs too long."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise Overran if the block is still running after `seconds`, so that a
    test of a loop that would never end fails instead of hanging."""
    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def mean_loop_reference(vectors):
    """The mean of a list of vectors as documented for mean_vectors: the first
    vector, then each next one added in order, divided by the count."""
    total = list(vectors[0])
    for vec in vectors[1:]:
        total = [s + x for s, x in zip(total, vec)]
    return [s / len(vectors) for s in total]


def cosine_loop_reference(q, article_vectors):
    """Loop version of cosine_block's documented order: every dot product and
    squared norm summed from 0.0 over dims in ascending order, then
    dot / (|a| * |q|); a zero-norm article scores 0."""
    def dot(u, v):
        total = 0.0
        for a, b in zip(u, v):
            total += a * b
        return total

    q = [float(x) for x in q]
    q_norm = math.sqrt(dot(q, q))
    scores = []
    for a in article_vectors:
        a = [float(x) for x in a]
        a_norm = math.sqrt(dot(a, a))
        scores.append(0.0 if a_norm == 0 else dot(q, a) / (a_norm * q_norm))
    return scores
