"""Independent reference implementations used to check the engine.

These deliberately avoid the inverted index and any sparse machinery:
dense vectors and double loops only, so a bug in the engine cannot hide
in a shared code path.
"""

import math
from collections import Counter

from rumormatch.corpus import Label


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

    Candidates are the distinct observed scores plus -inf (all positive).
    Returns a list of (threshold, tp, fp, fn) in descending-threshold order.
    """
    n_rumor = sum(1 for l in labels if l.label is Label.RUMOR)
    thresholds = sorted(set(scores.values()), reverse=True) + [float("-inf")]
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
