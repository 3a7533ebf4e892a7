"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import json
import math
import os
import random
import time

import numpy as np
import pytest

from conftest import index_from_token_lists, random_token_corpus
from fixture_analysis import ARTICLES as FIXTURE_ARTICLES
from fixture_analysis import DAY, DETECTIONS, TWEETS as FIXTURE_TWEETS, WEEK_WINDOW
from oracles import bm25_oracle, sweep_oracle, tfidf_cosine_oracle
from planted import generate as generate_planted

from rumormatch import analysis, cli
from rumormatch.corpus import Group, Label, LabeledTweet, Subject
from rumormatch.evaluation import fixed_point_eval, identification_accuracy, sweep
from rumormatch.matchers import (
    BM25Params,
    EmbeddingTable,
    default_lexicon,
    match_lexicon,
    score_bm25,
    score_embedding,
    score_tfidf,
)


def report(criterion, name, ok):
    print(f"ACCEPTANCE {criterion:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


# -- criteria 1 & 2: oracle equivalence on random corpora --------------------

N_RANDOM_CORPORA = 1000


@pytest.fixture(scope="module")
def oracle_harness():
    """Runs both term matchers against their oracles on shared random corpora."""
    rng = random.Random(0x5EED)
    start = time.monotonic()
    bm25_max_err = 0.0
    tfidf_max_err = 0.0
    self_match_max_err = 0.0
    for _ in range(N_RANDOM_CORPORA):
        docs, query = random_token_corpus(rng, max_docs=100, max_vocab=50)
        k1 = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.0, 1.0)
        index = index_from_token_lists(docs)

        got_b = score_bm25(query, index, BM25Params(k1=k1, b=b))
        exp_b = bm25_oracle(docs, query, k1=k1, b=b)
        bm25_max_err = max(bm25_max_err, max(abs(g - e) for g, e in zip(got_b, exp_b)))

        got_t = score_tfidf(query, index)
        exp_t = tfidf_cosine_oracle(docs, query)
        tfidf_max_err = max(tfidf_max_err, max(abs(g - e) for g, e in zip(got_t, exp_t)))

        # self-match on a randomly chosen nonempty doc, only meaningful when
        # its tf-idf vector is nonzero (idf of every term can vanish)
        i = rng.randrange(len(docs))
        if docs[i] and tfidf_cosine_oracle(docs, docs[i])[i] > 0.5:
            self_match_max_err = max(
                self_match_max_err, abs(score_tfidf(docs[i], index)[i] - 1.0)
            )
    return {
        "elapsed": time.monotonic() - start,
        "bm25_max_err": bm25_max_err,
        "tfidf_max_err": tfidf_max_err,
        "self_match_max_err": self_match_max_err,
    }


def test_criterion_1_bm25_oracle_equivalence(oracle_harness):
    h = oracle_harness
    report(1, "BM25 oracle equivalence",
           h["bm25_max_err"] < 1e-9 and h["elapsed"] < 30.0)


def test_criterion_2_tfidf_oracle_equivalence(oracle_harness):
    h = oracle_harness
    report(2, "TF-IDF oracle equivalence",
           h["tfidf_max_err"] < 1e-9 and h["self_match_max_err"] < 1e-12)


# -- criterion 3: sweep correctness -------------------------------------------

def test_criterion_3_sweep_matches_reclassification_oracle():
    rng = random.Random(0xACE)
    ok = True
    for trial in range(500):
        n = rng.randint(2, 200)
        kinds = [True, False] + [rng.random() < 0.4 for _ in range(n - 2)]
        scores = {}
        labels = []
        gridded = trial % 2 == 0
        for i, is_rumor in enumerate(kinds):
            tid = f"t{i}"
            labels.append(LabeledTweet(
                tid, Label.RUMOR if is_rumor else Label.NONRUMOR,
                "a1" if is_rumor else None,
            ))
            scores[tid] = (
                rng.choice([0.0, 1.0, 2.0, 3.0, 5.0, 8.0]) if gridded else rng.random()
            )
        result = sweep([scores[l.tweet_id] for l in labels], labels)
        got = [(p.threshold, p.tp, p.fp, p.fn) for p in result.points]
        if got != sweep_oracle(scores, labels):
            ok = False
            break
        recalls = [p.recall for p in result.points]
        if any(b < a for a, b in zip(recalls, recalls[1:])):
            ok = False
            break
    report(3, "sweep correctness", ok)


# -- criteria 4 & 5: planted corpus ---------------------------------------------

@pytest.fixture(scope="module")
def planted():
    articles, rumor_tweets, negative_tweets = generate_planted()
    index = index_from_token_lists(articles)
    return articles, rumor_tweets, negative_tweets, index


def test_criterion_4_planted_identification(planted):
    _, rumor_tweets, _, index = planted
    labels = []
    best_bm25 = []
    best_tfidf = []
    for i, (tokens, ordinal) in enumerate(rumor_tweets):
        labels.append(LabeledTweet(f"r{i}", Label.RUMOR, index.article_ids[ordinal]))
        bm = score_bm25(tokens, index, BM25Params())
        tf = score_tfidf(tokens, index)
        best_bm25.append(index.article_ids[int(np.argmax(bm))])
        best_tfidf.append(index.article_ids[int(np.argmax(tf))])
    acc_bm25 = identification_accuracy(best_bm25, labels)
    acc_tfidf = identification_accuracy(best_tfidf, labels)
    report(4, f"planted identification (bm25={acc_bm25:.3f}, tfidf={acc_tfidf:.3f})",
           acc_bm25 >= 0.95 and acc_tfidf >= 0.90)


def test_criterion_5_planted_classification(planted):
    _, rumor_tweets, negative_tweets, index = planted
    scores = []
    labels = []
    for i, (tokens, ordinal) in enumerate(rumor_tweets):
        scores.append(float(np.max(score_bm25(tokens, index, BM25Params()))))
        labels.append(LabeledTweet(f"r{i}", Label.RUMOR, index.article_ids[ordinal]))
    for i, tokens in enumerate(negative_tweets):
        scores.append(float(np.max(score_bm25(tokens, index, BM25Params()))))
        labels.append(LabeledTweet(f"n{i}", Label.NONRUMOR))
    max_f1 = sweep(scores, labels).max_f1_point.f1
    report(5, f"planted classification (max F1={max_f1:.3f})", max_f1 >= 0.95)


# -- criterion 6: lexicon exactness ---------------------------------------------

LEXICON_CASES = [
    ("is it true that she collapsed?", True),
    ("Is It True this happened?", True),
    ("is that true or not", True),
    ("so... is it true?", True),
    ("IS THIS TRUE people??", True),
    ("unconfirmed reports from the rally", True),
    ("Unconfirmed: debate cancelled", True),
    ("totally UNCONFIRMED so far", True),
    ("this rumor is spreading fast", True),
    ("new rumour from across the pond", True),
    ("rumors everywhere tonight", True),
    ("RUMOR: tax returns leaked", True),
    ("snopes moved to debunk it", True),
    ("debunked years ago folks", True),
    ("Debunking thread below", True),
    ("that is not true at all", True),
    ("this is not true, stop sharing", True),
    ("it is not true whatsoever", True),
    ("lovely weather today", False),
    ("the debate starts at nine", False),
    ("confirmed: rally moved indoors", False),
    ("true story from my childhood", False),
    ("is the event still on?", False),
    ("that was not my intention", False),
    ("a real humdinger of a game", False),
    ("she told the truth", False),
    ("it is not a big deal", False),
    ("is it tuesday already", False),
    ("armour and armor are spellings", False),
    ("bunk beds for sale", False),
]


def test_criterion_6_lexicon_exactness():
    lexicon = default_lexicon()
    ok = all(match_lexicon(text, lexicon) == expected for text, expected in LEXICON_CASES)

    # 20-tweet fixed-point set: 10 rumors (4 with signal), 10 nonrumors (2 with)
    labels = []
    predictions = []
    signal = "is it true that this happened"
    plain = "just an ordinary tweet about sports"
    for i in range(10):
        labels.append(LabeledTweet(f"r{i}", Label.RUMOR, "a1"))
        predictions.append(match_lexicon(signal if i < 4 else plain, lexicon))
    for i in range(10):
        labels.append(LabeledTweet(f"n{i}", Label.NONRUMOR, None))
        predictions.append(match_lexicon(signal if i < 2 else plain, lexicon))
    point = fixed_point_eval(predictions, labels)
    # hand matrix: TP=4, FP=2, FN=6 -> P=2/3, R=2/5, F1=1/2
    ok = ok and (point.tp, point.fp, point.fn) == (4, 2, 6)
    ok = ok and point.precision == 2 / 3 and point.recall == 2 / 5 and point.f1 == 0.5
    report(6, "lexicon exactness", ok)


# -- criterion 7: analysis fixtures ---------------------------------------------

def test_criterion_7_analysis_fixture():
    t, d = FIXTURE_TWEETS, DETECTIONS
    election = analysis.ELECTION_WINDOW
    checks = [
        analysis.group_rumor_ratio(t, d, Group.CLINTON_FOLLOWER) == 3 / 10,
        analysis.group_rumor_ratio(t, d, Group.CLINTON_FOLLOWER, election) == 2 / 6,
        analysis.group_rumor_ratio(t, d, Group.TRUMP_FOLLOWER) == 4 / 14,
        analysis.group_rumor_ratio(t, d, Group.TRUMP_FOLLOWER, election) == 3 / 8,
        analysis.user_concentration(t, d, 0.1) == 4 / 7,
        analysis.user_concentration(t, d, 0.2) == 4 / 7,
        analysis.user_rumor_ratio_ranking(t, d, 10) == [
            ("u2", 4, 8, 0.5), ("u1", 3, 10, 0.3), ("u3", 0, 6, 0.0),
        ],
        analysis.keyword_breakdown(
            [x for x in t if x.user_id == "u1"], d, ["clinton", "email"]
        ) == {"clinton": (3, 2), "email": (1, 2)},
        analysis.content_attribution(t, d, FIXTURE_ARTICLES, Group.CLINTON_FOLLOWER)
        == {Subject.CLINTON: 1.0, Subject.TRUMP: 0.5},
        analysis.content_attribution(t, d, FIXTURE_ARTICLES, Group.TRUMP_FOLLOWER)
        == {Subject.CLINTON: 1 / 3, Subject.TRUMP: 1.0},
        [c for _, c in analysis.timeline(t, d, DAY, WEEK_WINDOW)]
        == [3, 2, 0, 0, 0, 0, 0],
        analysis.detect_peaks(
            [c for _, c in analysis.timeline(t, d, DAY, WEEK_WINDOW)], k=1.0
        ) == [0],
    ]
    report(7, "analysis fixtures", all(checks))


# -- criteria 8 & 9: determinism, parallelism, throughput ------------------------

@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """100k synthetic tweets scored against 1,723 synthetic articles."""
    tmp = tmp_path_factory.mktemp("big")
    rng = random.Random(0xB16)
    vocab = [f"w{i:04d}" for i in range(5000)]
    weights = [1.0 / (i + 1) for i in range(5000)]
    with open(tmp / "articles.jsonl", "w") as fh:
        for i in range(1723):
            body = " ".join(rng.choices(vocab, weights=weights, k=60))
            fh.write(json.dumps({"id": f"a{i}", "title": "", "body": body}) + "\n")
    with open(tmp / "tweets.jsonl", "w") as fh:
        for i in range(100_000):
            text = " ".join(rng.choices(vocab, weights=weights, k=10))
            fh.write(json.dumps({
                "id": f"t{i}", "user_id": f"u{i % 500}", "group": "OTHER",
                "timestamp": 1462060800 + i, "text": text,
            }) + "\n")

    from rumormatch import corpus

    config = cli.build_config({
        "tweets": str(tmp / "tweets.jsonl"),
        "articles": str(tmp / "articles.jsonl"),
        "out": str(tmp), "quiet": "true",
    }, {})
    tweets = corpus.load_tweets(config.tweets)

    results = {}
    for jobs in (1, 4, 8):
        config.jobs = jobs
        out = tmp / f"matches_j{jobs}.jsonl"
        start = time.monotonic()
        cli.run_match(config, tweets, out)
        results[jobs] = {"elapsed": time.monotonic() - start, "path": out}
    return results


def test_criterion_8_parallel_determinism(big_run):
    serial = big_run[1]["path"].read_bytes()
    parallel = big_run[8]["path"].read_bytes()
    report(8, "jobs=1 vs jobs=8 byte-identical output", serial == parallel)


def test_criterion_9_throughput(big_run):
    t1 = big_run[1]["elapsed"]
    t4 = big_run[4]["elapsed"]
    cores = len(os.sched_getaffinity(0))
    throughput_ok = t1 < 60.0
    if cores < 4:
        report(9, f"throughput ({t1:.1f}s single-threaded)", throughput_ok)
        pytest.skip(
            f"speedup half of criterion 9 needs >=4 cores, host exposes {cores}; "
            f"single-threaded throughput asserted above"
        )
    speedup = t1 / t4
    report(9, f"throughput ({t1:.1f}s, speedup x{speedup:.2f} at 4 workers)",
           throughput_ok and speedup >= 2.5)


# -- criterion 10: embedding matcher ---------------------------------------------

def test_criterion_10_embedding_matcher():
    table = EmbeddingTable(dim=3, vectors={
        "apple": np.array([1.0, 0.0, 0.0]),
        "banana": np.array([0.0, 1.0, 0.0]),
        "cherry": np.array([0.0, 0.0, 2.0]),
    })
    article_vectors = np.array([[1.0, 1.0, 1.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])

    # hand arithmetic: mean(apple,banana)=(.5,.5,0); cos against (1,1,1) is
    # 1/(sqrt(.5)*sqrt(3)); against (.5,.5,0) is 1; zero article scores 0
    scores, defined = score_embedding(["apple", "banana"], article_vectors, table)
    hand = 1.0 / (math.sqrt(0.5) * math.sqrt(3.0))
    ok = defined
    ok = ok and abs(scores[0] - hand) < 1e-12
    ok = ok and abs(scores[1] - 1.0) < 1e-12
    ok = ok and scores[2] == 0.0

    # positive rescaling of every table vector changes nothing
    for scale in (0.001, 3.7, 1e6):
        scaled = EmbeddingTable(
            dim=3, vectors={t: v * scale for t, v in table.vectors.items()}
        )
        s2, _ = score_embedding(["apple", "banana"], article_vectors, scaled)
        ok = ok and np.all(np.abs(s2 - scores) < 1e-9)
        ok = ok and int(np.argmax(s2)) == int(np.argmax(scores))

    # OOV / zero-vector tweets are flagged, never crash
    oov_scores, oov_defined = score_embedding(["zebra", "yak"], article_vectors, table)
    ok = ok and not oov_defined and not np.any(oov_scores)
    report(10, "embedding matcher", ok)
