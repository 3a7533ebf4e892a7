"""Properties of the block scoring kernels: the postings kernel shared by BM25
and TF-IDF, and the cosine kernel shared by EMBEDDING and DOCVEC."""

import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import (
    NO_STOPWORDS,
    cosine_loop_reference,
    index_from_token_lists,
    mean_loop_reference,
    random_token_corpus,
    zipf_articles,
    zipf_tokens,
)
from oracles import bm25_oracle, embedding_cosine_oracle, tfidf_cosine_oracle

from rumormatch.errors import DimMismatchError
from rumormatch.matchers import (
    ArticleIndex,
    BM25Params,
    EmbeddingTable,
    article_norms,
    build_index,
    cosine_block,
    mean_vectors,
    score_block,
)


def tables(index, rng):
    """(name, table, oracle) for BM25 at random parameters and for TF-IDF."""
    k1, b = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)
    return [
        ("BM25", index.bm25_table(BM25Params(k1=k1, b=b)),
         lambda docs, q: bm25_oracle(docs, q, k1=k1, b=b)),
        ("TFIDF", index.tfidf_table(), tfidf_cosine_oracle),
    ]


def assert_top1_matches_oracle(scores, expected):
    """The row argmax is the oracle's maximum to 1e-9, ties to the lowest ordinal."""
    ordinal = int(np.argmax(scores))
    top = max(expected)
    assert scores[ordinal] == pytest.approx(top, abs=1e-9)
    assert ordinal == min(j for j, e in enumerate(expected) if e >= top - 1e-9)


def assert_block_independent(queries, table):
    """One query per block and all queries in one block give the same bytes."""
    together = score_block(queries, table)
    for row, query in zip(together, queries):
        assert row.tobytes() == score_block([query], table)[0].tobytes()
    return together


def canonical_order_reference(query, index, table):
    """Loop version of the documented order: CSR terms, then dense rows, each
    in ascending term id; |q| of a TF-IDF query in ascending term id too."""
    term_ids = index.term_ids
    counts = Counter(term_ids[t] for t in query if t in term_ids)
    scale = {t: 1.0 for t in counts}
    if table.query_idf is not None:
        w = {t: counts[t] * table.query_idf[t] for t in counts}
        q_sq = 0.0
        for t in sorted(w):
            q_sq += w[t] * w[t]
        if q_sq == 0.0:
            return np.zeros(table.n_articles)
        scale = {t: w[t] / math.sqrt(q_sq) for t in w}
    scores = [0.0] * table.n_articles
    for t in sorted(counts):
        if table.dense_slot[t] < 0:
            for p in range(table.indptr[t], table.indptr[t + 1]):
                scores[table.indices[p]] += table.data[p] * scale[t]
    for t in sorted(counts):
        if table.dense_slot[t] >= 0:
            for j, impact in enumerate(table.dense_rows[table.dense_slot[t]]):
                scores[j] += impact * scale[t]
    return np.array(scores)


class TestRandomCorpora:
    def test_top1_and_block_independence(self):
        rng = random.Random(0xB10C)
        for _ in range(60):
            docs, _ = random_token_corpus(rng, max_docs=40, max_vocab=30)
            vocab = sorted({t for d in docs for t in d})
            index = index_from_token_lists(docs)
            queries = [[rng.choice(vocab) for _ in range(rng.randint(1, 12))]
                       for _ in range(rng.randint(1, 20))]
            queries += [[], ["oov1", "oov2"], [vocab[0], "oov3", vocab[0]]]
            rng.shuffle(queries)
            for name, table, oracle in tables(index, rng):
                scores = assert_block_independent(queries, table)
                for row, query in zip(scores, queries):
                    assert row == pytest.approx(oracle(docs, query), abs=1e-9), name
                    assert_top1_matches_oracle(row, oracle(docs, query))
                    reference = canonical_order_reference(query, index, table)
                    assert row.tobytes() == reference.tobytes(), name

    def test_empty_and_out_of_vocabulary_rows_are_zero(self):
        index = index_from_token_lists([["apple", "pie"], ["banana"], ["cherry"]])
        for _, table, _ in tables(index, random.Random(1)):
            scores = score_block([[], ["zebra", "yak"], ["apple"]], table)
            assert not scores[:2].any()
            assert list(np.argmax(scores[:2], axis=1)) == [0, 0]
            assert scores[2, 0] > 0


class TestDenseAndCsrTerms:
    # ten articles: "head" in every one (a dense row), "cN" in article N only (CSR)
    DOCS = [["head", f"c{i}", f"c{i}", "pad"] for i in range(10)]

    @pytest.fixture
    def index(self):
        return index_from_token_lists(self.DOCS)

    def test_layout(self, index):
        for _, table, _ in tables(index, random.Random(2)):
            ids = index.term_ids
            assert table.dense_slot[ids["head"]] >= 0
            assert table.dense_slot[ids["pad"]] >= 0
            assert all(table.dense_slot[ids[f"c{i}"]] == -1 for i in range(10))
            assert table.dense_rows.shape == (2, 10)

    @pytest.mark.parametrize("query", [
        ["head"],  # dense rows only
        ["head", "pad", "head"],
        ["c3"],  # CSR rows only
        ["c7", "c2", "c7"],
        ["c5", "head", "zebra"],  # both, plus an unknown term
    ])
    def test_against_oracles(self, index, query):
        for name, table, oracle in tables(index, random.Random(3)):
            scores = assert_block_independent([query, ["c1"], []], table)
            assert scores[0] == pytest.approx(oracle(self.DOCS, query), abs=1e-9), name
            assert_top1_matches_oracle(scores[0], oracle(self.DOCS, query))

    def test_no_term_reaches_the_dense_rule(self):
        # every term posts to one of six articles, below the 1/5 rule
        docs = [[f"u{i}", f"v{i}", f"v{i}"] for i in range(6)]
        index = index_from_token_lists(docs)
        queries = [["u1", "v1"], ["v4", "u4", "u2"], ["zebra"], []]
        for name, table, oracle in tables(index, random.Random(5)):
            assert table.dense_rows.shape == (0, 6)
            scores = assert_block_independent(queries, table)
            for row, query in zip(scores, queries):
                assert row == pytest.approx(oracle(docs, query), abs=1e-9), name
                assert_top1_matches_oracle(row, oracle(docs, query))


def traced_peak(call) -> int:
    """The peak of the bytes tracemalloc traces while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPostingTemporaries:
    """The postings kernel and the impact-table builds hold one posting-long
    temporary at a time, on the 1,723-article Zipf index (79,509 postings).
    Each bound counts 8-byte posting arrays."""

    @pytest.fixture(scope="class")
    def index(self):
        return build_index(zipf_articles(), NO_STOPWORDS)

    def test_block_holds_its_scores_and_three_posting_arrays(self, index):
        # 64 Zipf tweets gather 53,358 postings. The kernel peaks at the (B, n)
        # scores and 2.2 posting arrays; a new array per step peaked at 3.2.
        rng = random.Random(64)
        block = [zipf_tokens(rng, 20) for _ in range(64)]
        for table in (index.bm25_table(BM25Params()), index.tfidf_table()):
            ids = {(r, table.term_ids[t]) for r, tokens in enumerate(block)
                   for t in tokens if t in table.term_ids}
            postings = sum(int(table.indptr[t + 1] - table.indptr[t]) for _, t in ids)
            scores = len(block) * table.n_articles * 8
            assert traced_peak(lambda: score_block(block, table)) < scores + 3 * postings * 8

    @pytest.mark.parametrize("build", [lambda index: index.bm25_table(BM25Params()),
                                       ArticleIndex.tfidf_table], ids=["bm25", "tfidf"])
    def test_table_build_holds_under_four_posting_arrays(self, index, build):
        # 3.5 posting arrays here; gathers through a posting-term array took 4.6 and 5.6
        fresh = ArticleIndex(index.article_ids, index.terms, index.indptr, index.ordinals,
                             index.counts)  # with no table cached
        assert traced_peak(lambda: build(fresh)) < 4 * len(index.ordinals) * 8


class TestCosineBlock:
    """EMBEDDING and DOCVEC block scores against the pure-Python oracle, on a
    seeded 16-dim table."""

    DIM = 16

    @pytest.fixture
    def vectors(self):
        rng = random.Random(0xE3BED)
        vectors = {f"w{i}": [rng.gauss(0, 1) for _ in range(self.DIM)] for i in range(30)}
        vectors["zero"] = [0.0] * self.DIM
        vectors["neg1"] = [-x for x in vectors["w1"]]  # w1 + neg1 averages to zero
        return vectors

    def assert_matches_oracle(self, vectors, scores, defined, docs, queries):
        for row, ok, query in zip(scores, defined, queries):
            expected = embedding_cosine_oracle(vectors, docs, query)
            if expected is None:
                assert not ok and not row.any(), query
            else:
                assert ok and row == pytest.approx(expected, abs=1e-9), query

    def test_embedding_matches_the_oracle(self, vectors):
        rng = random.Random(7)
        words = sorted(vectors)
        docs = [[rng.choice(words) for _ in range(rng.randint(1, 25))] for _ in range(12)]
        docs += [["oov"], ["zero", "zero"], ["w1", "neg1"]]  # zero-norm articles
        queries = [[rng.choice(words + ["oov"]) for _ in range(rng.randint(1, 15))]
                   for _ in range(40)]
        queries += [[], ["oov", "yak"], ["w3", "w3", "w3"], ["w5", "oov", "w5", "w2"],
                    ["zero"], ["w1", "neg1"], ["w1", "oov", "neg1"]]
        table = EmbeddingTable(self.DIM, vectors)
        articles = np.asfortranarray(mean_vectors(docs, table))
        scores, defined = cosine_block(mean_vectors(queries, table), articles)
        assert scores.shape == (len(queries), len(docs))
        self.assert_matches_oracle(vectors, scores, defined, docs, queries)
        assert defined.tolist()[-7:] == [False, False, True, True, False, False, False]

    def test_docvec_matches_the_oracle(self, vectors):
        # DOCVEC: one vector per id; a missing or all-zero vector is undefined
        rng = random.Random(8)
        docvecs = {f"a{i}": [rng.gauss(0, 1) for _ in range(self.DIM)] for i in range(8)}
        docvecs.update({f"t{i}": [rng.gauss(0, 1) for _ in range(self.DIM)] for i in range(20)})
        docvecs["a3"] = docvecs["t4"] = [0.0] * self.DIM
        del docvecs["a5"], docvecs["t7"]
        table = EmbeddingTable(self.DIM, docvecs)
        article_ids = [f"a{i}" for i in range(8)]
        tweet_ids = [f"t{i}" for i in range(20)] + ["unknown"]
        articles = table.lookup(article_ids)
        scores, defined = cosine_block(table.lookup(tweet_ids), articles, article_norms(articles))
        self.assert_matches_oracle(docvecs, scores, defined, [[a] for a in article_ids],
                                   [[t] for t in tweet_ids])
        assert not defined[[4, 7, 20]].any() and defined.sum() == 18
        assert not scores[:, [3, 5]].any()

    @pytest.mark.parametrize("n_articles", [9, 2, 1])
    def test_ascending_dim_order_and_block_independence(self, vectors, n_articles):
        rng = random.Random(9)
        words = sorted(vectors)
        table = EmbeddingTable(self.DIM, vectors)
        queries = [[rng.choice(words + ["oov"]) for _ in range(rng.randint(0, 15))]
                   for _ in range(50)]
        means = mean_vectors(queries, table)
        articles = np.array([[rng.gauss(0, 1) for _ in range(self.DIM)]
                             for _ in range(n_articles)])
        articles[4:5] = 0.0  # a zero-norm article, where there are five
        together, defined = cosine_block(means, articles)
        fortran, _ = cosine_block(means, np.asfortranarray(articles))
        assert fortran.tobytes() == together.tobytes()
        for i, query in enumerate(queries):
            known = [vectors[t] for t in query if t in vectors]
            mean = mean_loop_reference(known) if known else [0.0] * self.DIM
            assert means[i].tobytes() == np.array(mean).tobytes()
            alone, ok = cosine_block(mean_vectors([query], table), articles)
            assert alone[0].tobytes() == together[i].tobytes() and ok[0] == defined[i]
            if defined[i]:
                expected = np.array(cosine_loop_reference(means[i], articles))
                assert together[i].tobytes() == expected.tobytes()

    def test_dims_must_agree(self):
        with pytest.raises(DimMismatchError, match="query vectors have dim 2, article vectors 3"):
            cosine_block(np.zeros((1, 2)), np.zeros((4, 3)))

    def test_underflowing_norm_is_still_defined(self):
        # |q|^2 underflows to 0, but q is not zero: defined, as when tested component-wise
        table = EmbeddingTable(2, {"tiny": [1e-200, 0.0]})
        _, defined = cosine_block(mean_vectors([["tiny"]], table), np.array([[1.0, 0.0]]))
        assert defined.tolist() == [True]
