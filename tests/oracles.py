"""Independent reference implementations used to check the engine.

These deliberately avoid the inverted index, any sparse machinery and the
block tokenizer: dense vectors, double loops and per-text regexes only, so
a bug in the engine cannot hide in a shared code path.
"""

import math
import re
from collections import Counter
from fractions import Fraction

from rumormatch import stemmer
from rumormatch.corpus import Label
from rumormatch.textpipe import TokenizerConfig

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"[a-z0-9][a-z0-9']*")


def tokenize_oracle(text, config=None):
    """The tokenizer rules applied to one text by regexes, token by token:
    lowercase, drop URLs, then @-mentions, take [a-z0-9][a-z0-9']* runs
    (a hashtag's word without the '#'), strip their edge apostrophes, drop
    stopwords and short tokens, stem, and drop short stems."""
    config = config or TokenizerConfig()
    text = _URL_RE.sub(" ", text.lower())
    text = _MENTION_RE.sub(" ", text)  # after URLs: "@www.cnn.com" leaves no "cnn", "com"
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


def tfidf_cosine_oracle(doc_token_lists, query_tokens):
    """Dense TF-IDF cosine of the query against every document."""
    n = len(doc_token_lists)
    vocab = sorted({t for doc in doc_token_lists for t in doc})
    df = {t: sum(t in doc for doc in doc_token_lists) for t in vocab}
    idf = {t: math.log(n / df[t]) for t in vocab}

    def vector(tokens):
        counts = Counter(t for t in tokens if t in idf)
        return [counts[t] * idf[t] for t in vocab]

    def cosine(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        nu = math.sqrt(sum(a * a for a in u))
        nv = math.sqrt(sum(b * b for b in v))
        if nu == 0 or nv == 0:
            return 0.0
        return dot / (nu * nv)

    q = vector(query_tokens)
    return [cosine(q, vector(doc)) for doc in doc_token_lists]


def embedding_cosine_oracle(vectors, doc_token_lists, query_tokens):
    """Cosine of the query's mean vector against each document's mean vector.

    A mean runs over the in-vocabulary tokens (keys of ``vectors``); a
    document without one is the zero vector and scores 0. Returns None when
    the query has no in-vocabulary token or its mean is zero in every
    component. DOCVEC is the case of one token per document: its id.
    """
    def mean(tokens):
        vecs = [vectors[t] for t in tokens if t in vectors]
        if not vecs:
            return None
        return [sum(component) / len(vecs) for component in zip(*vecs)]

    def norm(u):
        return math.sqrt(sum(a * a for a in u))

    q = mean(query_tokens)
    if q is None or not any(q):
        return None
    scores = []
    for doc in doc_token_lists:
        d = mean(doc)
        if d is None or norm(d) == 0:
            scores.append(0.0)
        else:
            scores.append(sum(a * b for a, b in zip(q, d)) / (norm(q) * norm(d)))
    return scores


def bm25_oracle(doc_token_lists, query_tokens, k1=1.2, b=0.75):
    """Direct evaluation of the BM25 scoring formula, one doc at a time."""
    n = len(doc_token_lists)
    doc_counts = [Counter(doc) for doc in doc_token_lists]
    doc_lens = [len(doc) for doc in doc_token_lists]
    avgdl = sum(doc_lens) / n
    df = Counter()
    for counts in doc_counts:
        df.update(counts.keys())

    scores = []
    for counts, dl in zip(doc_counts, doc_lens):
        s = 0.0
        for q in set(query_tokens):
            f = counts.get(q, 0)
            if f == 0 or q not in df:
                continue
            idf = math.log(1.0 + (n - df[q] + 0.5) / (df[q] + 0.5))
            s += idf * f * (k1 + 1.0) / (f + k1 * (1.0 - b + b * dl / avgdl))
        scores.append(s)
    return scores


def sweep_oracle(scores, labels):
    """Re-classify every tweet from scratch at each candidate threshold.

    Candidates are the distinct observed scores but NaN, plus -inf (all
    positive but NaN: NaN > h is false, so a NaN score is never positive).
    Returns a list of (threshold, tp, fp, fn) in descending-threshold order.
    """
    n_rumor = sum(1 for l in labels if l.label is Label.RUMOR)
    observed = {s for s in scores.values() if not math.isnan(s)}
    thresholds = sorted(observed, reverse=True) + [float("-inf")]
    table = []
    for h in thresholds:
        tp = fp = 0
        for l in labels:
            if scores[l.tweet_id] > h:
                if l.label is Label.RUMOR:
                    tp += 1
                else:
                    fp += 1
        table.append((h, tp, fp, n_rumor - tp))
    return table


def analyses_oracle(tweets, detections, window, bin_width, keywords, articles, subjects,
                    config=None):
    """The five analyses recounted from scratch, tweet by tweet.

    ``detections`` holds one (rumor, article_id) per tweet. Keyword hits
    come from tokenize_oracle. A reading whose denominator is zero is None.
    Returns a dict of the group ratios per (group, windowed), the user
    concentration per top fraction (1/10, 1/2 and 1, each read as the
    decimal it prints as), the full user ranking, the keyword breakdown,
    the content attribution per group and the timeline.
    """
    rows = [(t, rumor, article_id, window.start <= t.timestamp < window.end)
            for t, (rumor, article_id) in zip(tweets, detections)]
    groups = sorted({t.group for t in tweets}, key=lambda g: g.value)

    ratio = {}
    for g in groups:
        for windowed in (False, True):
            scope = [r for t, r, _, inside in rows if t.group is g and (inside or not windowed)]
            ratio[g, windowed] = sum(scope) / len(scope) if scope else None

    users = sorted({t.user_id for t in tweets})
    user_rumors = {u: sum(r for t, r, _, _ in rows if t.user_id == u) for u in users}
    user_totals = {u: sum(1 for t in tweets if t.user_id == u) for u in users}
    ranked = sorted(users, key=lambda u: (-user_rumors[u], u))
    total = sum(user_rumors.values())
    concentration = {
        f: sum(user_rumors[u] for u in ranked[:math.ceil(Fraction(repr(f)) * len(users))]) / total
        if total else None
        for f in (0.1, 0.5, 1.0)
    }
    ranking = sorted(
        ((u, user_rumors[u], user_totals[u], user_rumors[u] / user_totals[u]) for u in users),
        key=lambda row: (-row[3], -row[1], row[0]))

    breakdown = {}
    for keyword in keywords:
        (term,) = tokenize_oracle(keyword, config)
        hit = [(r, term in tokenize_oracle(t.text, config)) for t, r, _, _ in rows]
        breakdown[keyword.lower()] = (sum(1 for r, h in hit if h and r),
                                      sum(1 for r, h in hit if h and not r))

    about = {a.id: a.subjects for a in articles}
    attribution = {
        g: {s: sum(1 for t, r, a, _ in rows if r and t.group is g and s in about.get(a, ()))
            / sum(1 for a in articles if s in a.subjects) for s in subjects}
        for g in groups
    }

    n_bins = -(-(window.end - window.start) // bin_width)  # a float quotient can round down
    timeline = [(window.start + i * bin_width,
                 sum(1 for t, r, _, inside in rows
                     if r and inside and (t.timestamp - window.start) // bin_width == i))
                for i in range(n_bins)]
    return {"ratio": ratio, "concentration": concentration, "ranking": ranking,
            "keywords": breakdown, "attribution": attribution, "timeline": timeline}
