"""Output checker: compares what the CLI wrote with the generator's model.

Every tweet is checked for a well-formed line in input order whose label
agrees with its score and the threshold.  A seeded sample of tweets is also
re-scored with a dense numpy reference (BM25, TF-IDF cosine, embedding
cosine) that shares no code with the program.  Scores must agree within
TOL, and a named article must be within TOL of the reference maximum, so a
change of summation order or of tie handling among equal scores passes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from workloads import ELECTION_END, ELECTION_START, Workload

TOL = 1e-9
SAMPLE = 2000
K1, B = 1.2, 0.75  # the CLI defaults, which no workload overrides
LINE_KEYS = {"tweet_id", "article_id", "score", "label"}
ALL_OUTPUTS = ("index.rmix", "pr_curve.csv", "max_f1.csv", "group_ratio.csv", "concentration.csv",
               "user_ranking.csv", "keywords.csv", "attribution.csv", "timeline.csv")


@dataclass
class Result:
    n_tweets: int
    failed: set = field(default_factory=set)  # ordinals of failed tweets
    errors: list = field(default_factory=list)  # first few reasons, for stderr
    undefined: int = 0  # lines that report an undefined embedding
    ties: int = 0  # sampled tweets whose maximum is shared by several articles

    def fail(self, i, reason):
        self.failed.add(i)
        if len(self.errors) < 5:
            self.errors.append(f"t{i}: {reason}")

    def fail_all(self, reason):
        self.failed = set(range(self.n_tweets))
        self.errors.append(reason)


def sample(wl: Workload, seed: int) -> list[int]:
    n = wl.n_tweets
    return sorted(random.Random(seed + 1_000_003).sample(range(n), min(SAMPLE, n)))


def reference_scores(wl: Workload, ordinals) -> dict:
    """Tweet ordinal -> per-article scores, or None for an undefined embedding."""
    queries = [wl.tweet_tokens[i] for i in ordinals]
    if wl.matcher == "EMBEDDING":
        art = [[wl.table_terms[t] for t in a if t in wl.table_terms] for a in wl.article_tokens]
        A = np.array([wl.vectors[r].mean(axis=0) if r else np.zeros(wl.vectors.shape[1])
                      for r in art])
        a_norm = np.linalg.norm(A, axis=1)
        out = {}
        for i, toks in zip(ordinals, queries):
            rows = [wl.table_terms[t] for t in toks if t in wl.table_terms]
            q = wl.vectors[rows].mean(axis=0) if rows else None
            if q is None or not q.any():
                out[i] = None
                continue
            with np.errstate(invalid="ignore", divide="ignore"):
                s = A @ q / (a_norm * np.linalg.norm(q))
            out[i] = np.where(a_norm > 0, s, 0.0)
        return out

    # dense articles x terms counts, over the terms the sampled tweets use
    art_counts = [Counter(a) for a in wl.article_tokens]
    n = len(art_counts)
    df = Counter(t for c in art_counts for t in c)
    col = {t: j for j, t in enumerate(sorted({t for q in queries for t in q if t in df}))}
    C = np.zeros((n, len(col)))
    for r, counts in enumerate(art_counts):
        for t, k in counts.items():
            if t in col:
                C[r, col[t]] = k
    terms = sorted(col, key=col.get)
    col_df = np.array([df[t] for t in terms], dtype=np.float64)
    if wl.matcher == "BM25":
        idf = np.log(1.0 + (n - col_df + 0.5) / (col_df + 0.5))
        dl = np.array([len(a) for a in wl.article_tokens], dtype=np.float64)
        norm = K1 * (1.0 - B + B * dl / dl.mean())
        W = idf * C * (K1 + 1.0) / (C + norm[:, None])
        return {i: W[:, sorted({col[t] for t in q if t in col})].sum(axis=1)
                for i, q in zip(ordinals, queries)}
    if wl.matcher == "TFIDF":
        idf_of = {t: math.log(n / d) for t, d in df.items()}
        d_norm = np.sqrt([sum((k * idf_of[t]) ** 2 for t, k in c.items()) for c in art_counts])
        D = C * np.array([idf_of[t] for t in terms]) / np.where(d_norm > 0, d_norm, 1.0)[:, None]
        out = {}
        for i, q in zip(ordinals, queries):
            qc = Counter(t for t in q if t in col)
            idx = [col[t] for t in qc]
            qw = np.array([k * idf_of[t] for t, k in qc.items()])
            q_norm = np.linalg.norm(qw)
            out[i] = D[:, idx] @ (qw / q_norm) if q_norm > 0 else np.zeros(n)
        return out
    raise ValueError(f"no reference for matcher {wl.matcher}")


def check_matches(wl: Workload, path, reference: dict) -> tuple[Result, list]:
    """Check matches.jsonl; returns the result and the parsed lines (None if bad)."""
    n = wl.n_tweets
    res = Result(n)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        res.fail_all(f"cannot read {path}: {exc}")
        return res, [None] * n
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) > n:
        res.fail_all(f"{len(lines)} lines for {n} tweets")
        return res, [None] * n

    parsed = []
    articles = {f"a{k}" for k in range(len(wl.article_tokens))}
    embedding = wl.matcher == "EMBEDDING"
    for i in range(n):
        obj = _parse_line(lines[i]) if i < len(lines) else None
        if obj is None:
            res.fail(i, "missing or malformed line")
            parsed.append(None)
            continue
        parsed.append(obj)
        aid, score, rumor = obj["article_id"], obj["score"], obj["label"] == "RUMOR"
        undefined = embedding and aid is None and score == 0.0
        res.undefined += undefined
        if obj["tweet_id"] != f"t{i}":
            res.fail(i, f"line holds {obj['tweet_id']!r}, out of order")
        elif rumor != (score > wl.threshold) or rumor != (aid is not None):
            res.fail(i, "label disagrees with score, threshold or article")
        elif aid is not None and aid not in articles:
            res.fail(i, f"unknown article {aid!r}")
        elif embedding and undefined != _model_undefined(wl, i):
            res.fail(i, "undefined embedding not reported as such")
        elif i in reference:
            reason = _against_reference(reference[i], aid, score, res)
            if reason:
                res.fail(i, reason)
    return res, parsed


def _parse_line(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not isinstance(obj, dict) or set(obj) != LINE_KEYS:
        return None
    score = obj["score"]
    if obj["label"] not in ("RUMOR", "NONRUMOR") or isinstance(score, bool) \
            or not isinstance(score, (int, float)) or not math.isfinite(score) \
            or not isinstance(obj["tweet_id"], str) \
            or not isinstance(obj["article_id"], (str, type(None))):
        return None
    return obj


def _model_undefined(wl, i):
    return not any(t in wl.table_terms for t in wl.tweet_tokens[i])


def _against_reference(ref, aid, score, res):
    if ref is None:
        return None if aid is None and score == 0.0 else "expected an undefined embedding"
    best = float(ref.max())
    near = np.flatnonzero(ref >= best - TOL)
    res.ties += len(near) > 1
    if abs(score - best) > TOL:
        return f"score {score!r}, reference {best!r}"
    if aid is not None and int(aid[1:]) not in near:
        return f"article {aid} scores {ref[int(aid[1:])]!r}, reference best {best!r}"
    return None


def check_all_outputs(wl: Workload, out_dir, parsed, res: Result):
    """Recompute max_f1.csv and group_ratio.csv from matches.jsonl and the labels."""
    paths = [os.path.join(out_dir, f) for f in ALL_OUTPUTS]
    missing = [p for p in paths if not os.path.isfile(p) or not os.path.getsize(p)]
    if missing:
        return res.fail_all(f"missing or empty outputs: {missing}")
    if any(parsed[int(tid[1:])] is None for tid, _ in wl.labels):
        return res.fail_all("a labeled tweet has no match line to re-score")

    want_f1 = _max_f1([(parsed[int(tid[1:])]["score"], rumor) for tid, rumor in wl.labels])
    got_f1 = _read_csv(os.path.join(out_dir, "max_f1.csv"))
    if got_f1[0] != ["threshold", "precision", "recall", "f1"] or len(got_f1) != 2 \
            or not _close(got_f1[1], want_f1):
        return res.fail_all(f"max_f1.csv {got_f1[1:]} differs from {want_f1}")

    rumor = Counter()
    total = Counter()
    for i, obj in enumerate(parsed):
        group = wl.tweet_groups[i]
        in_window = ELECTION_START <= wl.tweet_times[i] < ELECTION_END
        is_rumor = obj is not None and obj["label"] == "RUMOR"
        for key in ((group, "entire"), (group, "election")) if in_window else ((group, "entire"),):
            total[key] += 1
            rumor[key] += is_rumor
    want = [[g, w, rumor[g, w] / total[g, w]]
            for g in sorted(set(wl.tweet_groups)) for w in ("entire", "election")]
    got = _read_csv(os.path.join(out_dir, "group_ratio.csv"))
    if got[0] != ["group", "window", "ratio"] or len(got) != len(want) + 1 or not all(
            g[:2] == w[:2] and _close(g[2:], w[2:]) for g, w in zip(got[1:], want)):
        return res.fail_all(f"group_ratio.csv differs from {want}")


def _max_f1(pairs):
    """First maximum-F1 point of the descending threshold sweep, plus the -inf point."""
    pairs.sort(reverse=True)
    n_rumor = sum(r for _, r in pairs)
    points = []
    tp = fp = 0
    i = 0
    while i <= len(pairs):
        threshold = pairs[i][0] if i < len(pairs) else -math.inf
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / n_rumor
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        points.append([threshold, precision, recall, f1])
        if i == len(pairs):
            break
        while i < len(pairs) and pairs[i][0] == threshold:
            tp += pairs[i][1]
            fp += not pairs[i][1]
            i += 1
    return max(points, key=lambda p: p[3])


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _close(cells, values):
    try:
        return len(cells) == len(values) and all(
            math.isclose(float(c), v, rel_tol=0, abs_tol=TOL)
            for c, v in zip(cells, values))
    except ValueError:
        return False


def postings_per_tweet(wl: Workload) -> float:
    """Mean over tweets of the summed document frequency of their distinct terms:
    the posting entries a term-at-a-time scorer visits, from the generator's sets."""
    df = Counter(t for toks in wl.article_tokens for t in set(toks))
    return sum(sum(df[t] for t in set(toks)) for toks in wl.tweet_tokens) / wl.n_tweets
