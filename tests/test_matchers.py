import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (
    NO_STOPWORDS,
    cosine_loop_reference,
    index_from_token_lists,
    make_article,
    mean_loop_reference,
    random_token_corpus,
    zipf_articles,
)
from oracles import bm25_oracle, tfidf_cosine_oracle

from rumormatch import matchers
from rumormatch.corpus import Label
from rumormatch.errors import (
    AllEmptyAfterTokenizeError,
    DimMismatchError,
    EmptyCorpusError,
    EmptyScoresError,
    MalformedLineError,
)
from rumormatch.matchers import (
    BM25Params,
    EmbeddingTable,
    MatchResult,
    best_match,
    build_index,
    classify,
    default_lexicon,
    embed_articles,
    load_embeddings,
    match_lexicon,
    score_bm25,
    score_embedding,
    score_tfidf,
)


class TestBuildIndex:
    def test_disjoint_terms(self):
        index = index_from_token_lists([["apple", "banana"], ["cherry", "durian"]])
        assert np.diff(index.indptr).tolist() == [1, 1, 1, 1]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            build_index([])

    def test_empty_iterator(self):
        # no article at all is found only once the iterator ends
        with pytest.raises(EmptyCorpusError):
            build_index(iter([]))

    def test_all_empty_after_tokenize(self):
        with pytest.raises(AllEmptyAfterTokenizeError):
            build_index([make_article("a0", []) or make_article("a0", [])], NO_STOPWORDS)

    def test_empty_article_among_others(self):
        articles = [make_article("a0", ["apple", "pie"]), make_article("a1", [])]
        # an all-punctuation body tokenizes to empty but loads fine
        articles[1] = make_article("a1", ["..."])
        index = build_index(articles, NO_STOPWORDS)
        assert index.doc_len[1] == 0
        assert [a for a, n in zip(index.article_ids, index.doc_len) if n == 0] == ["a1"]
        assert score_tfidf(["apple"], index)[1] == 0.0

    def test_doc_len_shape(self):
        index = index_from_token_lists([["ww"]] * 173)
        assert index.n_articles == 173
        assert len(index.doc_len) == 173
        assert np.bincount(index.ordinals).tolist() == [1] * 173

    def test_arrays_must_be_flat(self):
        # a 2-d array, as numpy makes of a nested list, is refused
        with pytest.raises(ValueError, match="every array must be flat"):
            matchers.ArticleIndex(["a1"], ["x"], np.array([[0, 1]]), np.array([0]), [1])

    def test_memory_holds_one_article_at_a_time(self):
        # holding every article's token list at once peaked near 11 MB
        articles = zipf_articles()
        tracemalloc.start()
        try:
            index = build_index(articles, NO_STOPWORDS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.counts.sum() == 1723 * 60
        assert peak < 6e6


class TestTfidf:
    def test_self_match_is_one(self):
        index = index_from_token_lists(
            [["apple", "banana", "apple"], ["cherry", "durian"]]
        )
        scores = score_tfidf(["apple", "banana", "apple"], index)
        assert scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_no_overlap_all_zero(self):
        index = index_from_token_lists([["apple"], ["banana"]])
        assert list(score_tfidf(["zebra", "yak"], index)) == [0.0, 0.0]

    def test_against_dense_oracle(self):
        docs = [
            ["clinton", "parkinsons", "disease", "clinton"],
            ["trump", "tax", "returns"],
            ["clinton", "email", "server", "email"],
        ]
        query = ["clinton", "email", "parkinsons"]
        index = index_from_token_lists(docs)
        expected = tfidf_cosine_oracle(docs, query)
        got = score_tfidf(query, index)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_random_corpora_match_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            docs, query = random_token_corpus(rng, max_docs=20, max_vocab=12)
            index = index_from_token_lists(docs)
            expected = tfidf_cosine_oracle(docs, query)
            got = score_tfidf(query, index)
            assert got == pytest.approx(expected, abs=1e-9)
            assert all(-1e-12 <= s <= 1.0 + 1e-12 for s in got)

    def test_cosine_symmetry(self):
        docs = [["apple", "banana", "banana"], ["banana", "cherry"]]
        index = index_from_token_lists(docs)
        assert score_tfidf(docs[1], index)[0] == pytest.approx(
            score_tfidf(docs[0], index)[1], abs=1e-12
        )


class TestBM25:
    def test_no_overlap_is_zero(self):
        index = index_from_token_lists([["apple", "pie"], ["banana"]])
        assert score_bm25(["zebra"], index)[0] == 0.0

    def test_b_zero_ignores_length(self):
        # same query-term counts, one article padded with non-query terms
        docs = [["apple", "pie"], ["apple", "pie"] + ["filler"] * 40]
        index = index_from_token_lists(docs)
        scores = score_bm25(["apple", "pie"], index, BM25Params(k1=1.2, b=0.0))
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)

    def test_against_formula_oracle(self):
        docs = [
            ["clinton", "parkinsons", "disease"],
            ["trump", "tax", "returns", "tax"],
            ["clinton", "email", "server"],
            ["orlando", "shooting", "rumor", "rumor", "rumor"],
            ["debate", "nominee", "clinton", "trump"],
        ]
        query = ["clinton", "tax", "rumor"]
        index = index_from_token_lists(docs)
        expected = bm25_oracle(docs, query, k1=1.2, b=0.75)
        got = score_bm25(query, index, BM25Params(k1=1.2, b=0.75))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_random_corpora_match_oracle(self):
        rng = random.Random(23)
        for _ in range(50):
            docs, query = random_token_corpus(rng, max_docs=20, max_vocab=12)
            k1 = rng.uniform(0.5, 2.0)
            b = rng.uniform(0.0, 1.0)
            index = index_from_token_lists(docs)
            expected = bm25_oracle(docs, query, k1=k1, b=b)
            got = score_bm25(query, index, BM25Params(k1=k1, b=b))
            assert got == pytest.approx(expected, abs=1e-9)
            assert all(s >= 0.0 for s in got)

    def test_tf_monotonicity_at_b_zero(self):
        # one more occurrence of a query term never decreases the score
        base = [["apple"] * k + ["pad"] for k in range(1, 8)]
        index = index_from_token_lists(base)
        scores = score_bm25(["apple"], index, BM25Params(k1=1.2, b=0.0))
        assert all(scores[i + 1] >= scores[i] - 1e-12 for i in range(len(scores) - 1))

    def test_rarer_term_contributes_more(self):
        # 'rare' in 1 of 4 docs, 'common' in 3 of 4; equal tf in doc 0
        docs = [
            ["rare", "common"],
            ["common", "pad"],
            ["common", "pad"],
            ["pad", "pad"],
        ]
        index = index_from_token_lists(docs)
        params = BM25Params(k1=1.2, b=0.0)
        rare = score_bm25(["rare"], index, params)[0]
        common = score_bm25(["common"], index, params)[0]
        assert rare >= common

    def test_query_term_multiplicity_irrelevant(self):
        docs = [["apple", "pie"], ["banana"]]
        index = index_from_token_lists(docs)
        once = score_bm25(["apple"], index)
        thrice = score_bm25(["apple", "apple", "apple"], index)
        assert list(once) == list(thrice)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BM25Params(k1=-0.1)
        with pytest.raises(ValueError):
            BM25Params(b=1.5)


class TestEmbedding:
    @pytest.fixture
    def table(self):
        return EmbeddingTable(dim=3, vectors={
            "apple": np.array([1.0, 0.0, 0.0]),
            "banana": np.array([0.0, 1.0, 0.0]),
            "cherry": np.array([0.0, 0.0, 2.0]),
        })

    def test_identical_vector_scores_one(self, table):
        article_vectors = np.array([[0.5, 0.5, 0.0]])
        scores, defined = score_embedding(["apple", "banana"], article_vectors, table)
        assert defined
        assert scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_oov_tweet_flagged(self, table):
        article_vectors = np.array([[1.0, 0.0, 0.0]])
        scores, defined = score_embedding(["zebra"], article_vectors, table)
        assert not defined
        assert list(scores) == [0.0]

    def test_hand_computed_cosine(self, table):
        # tweet mean = ((1,0,0) + (0,1,0)) / 2 = (0.5, 0.5, 0)
        # article (1, 1, 1): cos = 1/sqrt(0.5)/sqrt(3) = sqrt(2/3)... by hand:
        # dot = 1.0, |q| = sqrt(0.5), |a| = sqrt(3) -> 1/(0.70710678*1.73205081)
        article_vectors = np.array([[1.0, 1.0, 1.0]])
        scores, _ = score_embedding(["apple", "banana"], article_vectors, table)
        expected = 1.0 / (math.sqrt(0.5) * math.sqrt(3.0))
        assert scores[0] == pytest.approx(expected, abs=1e-12)

    def test_scale_invariance(self, table):
        article_vectors = np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
        base, _ = score_embedding(["apple", "cherry"], article_vectors, table)
        scaled_table = EmbeddingTable(
            dim=3, vectors={t: v * 7.3 for t, v in table.vectors.items()}
        )
        scaled, _ = score_embedding(["apple", "cherry"], article_vectors, scaled_table)
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_dim_mismatch(self, table):
        with pytest.raises(DimMismatchError):
            score_embedding(["apple"], np.zeros((2, 5)), table)

    def test_zero_article_vector_scores_zero(self, table):
        scores, defined = score_embedding(["apple"], np.zeros((1, 3)), table)
        assert defined
        assert scores[0] == 0.0

    def test_cached_norms_give_the_per_call_bits(self, rng):
        dim = 8
        vocab = {f"w{i}": np.array([rng.gauss(0, 1) for _ in range(dim)]) for i in range(40)}
        table = EmbeddingTable(dim=dim, vectors=vocab)
        article_vectors = np.array([[rng.gauss(0, 1) for _ in range(dim)] for _ in range(30)])
        article_vectors[[3, 17]] = 0.0  # zero-norm articles score 0
        norms = matchers.article_norms(article_vectors)
        for _ in range(50):
            tokens = rng.sample(sorted(vocab), 5)
            cached, defined = score_embedding(tokens, article_vectors, table, norms)
            # the documented order, one loop per sum: tokens in order, dims ascending
            q = mean_loop_reference([vocab[t].tolist() for t in tokens])
            expected = np.array(cosine_loop_reference(q, article_vectors))
            assert expected[[3, 17]].tolist() == [0.0, 0.0]
            assert defined and cached.tobytes() == expected.tobytes()
            fresh, _ = score_embedding(tokens, article_vectors, table)
            assert fresh.tobytes() == expected.tobytes()

    def test_word2vec_file_round_trip(self, tmp_path, table):
        p = tmp_path / "vectors.txt"
        lines = ["3 3"]
        for term, vec in table.vectors.items():
            lines.append(term + " " + " ".join(repr(float(x)) for x in vec))
        p.write_text("\n".join(lines) + "\n")
        loaded = load_embeddings(p)
        assert loaded.dim == 3
        for term, vec in table.vectors.items():
            assert list(loaded.vectors[term]) == list(vec)

    def test_table_is_one_matrix(self, table):
        assert table.matrix.shape == (3, 3) and table.matrix.dtype == np.float64
        assert table.rows == {"apple": 0, "banana": 1, "cherry": 2}
        assert table.vectors["cherry"].tolist() == [0.0, 0.0, 2.0]
        assert "apple" in table and "zebra" not in table
        assert table.lookup(["cherry", "zebra"]).tolist() == [[0, 0, 2], [0, 0, 0]]
        assert EmbeddingTable(dim=3, vectors={}).lookup(["zebra"]).tolist() == [[0, 0, 0]]
        adopted = EmbeddingTable.from_matrix(table.matrix, table.rows)
        assert adopted.dim == 3 and adopted.matrix is table.matrix
        with pytest.raises(DimMismatchError):
            EmbeddingTable(dim=3, vectors={"short": [1.0, 2.0]})

    def test_embed_articles(self, table):
        articles = [make_article("a0", ["apple", "banana"]), make_article("a1", ["zzz"])]
        vecs = embed_articles(articles, table, NO_STOPWORDS)
        assert vecs[0] == pytest.approx([0.5, 0.5, 0.0])
        assert list(vecs[1]) == [0.0, 0.0, 0.0]

    def test_embed_articles_block_by_block(self, table, monkeypatch):
        rng = random.Random(4)
        docs = [[rng.choice(["apple", "banana", "cherry", "zzz"]) for _ in range(rng.randint(0, 6))]
                for _ in range(11)]
        articles = [make_article(f"a{i}", doc) for i, doc in enumerate(docs)]
        monkeypatch.setattr(matchers, "EMBED_BLOCK", 4)
        vecs = embed_articles(articles, table, NO_STOPWORDS)
        assert vecs.tobytes() == matchers.mean_vectors(docs, table).tobytes()


class TestLoadEmbeddings:
    def write(self, tmp_path, text):
        p = tmp_path / "vectors.vec"
        p.write_text(text, encoding="utf-8")
        return p

    def test_same_bits_as_parsing_each_component(self, tmp_path, rng, monkeypatch):
        # several batches, so that rows land in the right place across them
        monkeypatch.setattr(matchers, "VECTOR_BATCH_BYTES", 500)
        dim = 7
        rows = {f"t{i}": [repr(rng.gauss(0, 1) * 10 ** rng.randint(-30, 30))
                          for _ in range(dim)] for i in range(60)}
        rows["t5"][2], rows["t9"][0] = "%.6f" % 0.1, "-0"
        text = f"{len(rows)} {dim}\n" + "".join(f"{t} {' '.join(v)}\n" for t, v in rows.items())
        table = load_embeddings(self.write(tmp_path, text))
        assert table.matrix.shape == (60, dim) and list(table.rows) == list(rows)
        for term, values in rows.items():
            assert table.vectors[term].tobytes() == np.array(values, dtype=np.float64).tobytes()

    def test_row_may_end_in_one_space(self, tmp_path, rng, monkeypatch):
        # word2vec.c writes each component with "%lf " and fastText likewise: every row
        # ends in a space before its newline
        monkeypatch.setattr(matchers, "VECTOR_BATCH_BYTES", 100)
        rows = {f"t{i}": ["%lf" % rng.gauss(0, 1) for _ in range(3)] for i in range(20)}
        plain = "".join(f"{t} {' '.join(v)}\n" for t, v in rows.items())
        spaced = "".join(f"{t} {' '.join(v)} \n" for t, v in rows.items())
        want = load_embeddings(self.write(tmp_path, f"20 3\n{plain}"))
        got = load_embeddings(self.write(tmp_path, f"20 3\n{spaced}"))
        assert list(got.rows) == list(want.rows) == list(rows)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        for text in ("2 2\napple 1 0 \n", "2 2\r\napple 1 0 \r\n"):  # CRLF too
            assert load_embeddings(self.write(tmp_path, text)).vectors[
                "apple"].tolist() == [1.0, 0.0]
        for text, line, message in [
            ("2 2\na 1 0  \n", 2, "expected 2 components, got 4"),  # two end spaces
            ("2 2\na 1 0 \nb 1 0 1 \n", 3, "expected 2 components, got 4"),
            ("2 2\na 1 \n", 2, "expected 2 numbers"),  # the end space is no separator
            ("2 2\na 1 0 ", 2, "expected 2 components, got 3"),  # no newline after it
        ]:
            p = self.write(tmp_path, text)
            with pytest.raises(MalformedLineError) as info:
                load_embeddings(p)
            assert str(info.value).startswith(f"{p}:{line}: malformed line: {message}")

    def test_repeated_term_keeps_its_last_vector(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matchers, "VECTOR_BATCH_BYTES", 8)
        p = self.write(tmp_path, "4 2\na 1 2\nb 3 4\na 5 6\nc 7 8\n")
        table = load_embeddings(p)
        assert {t: v.tolist() for t, v in table.vectors.items()} == {
            "a": [5.0, 6.0], "b": [3.0, 4.0], "c": [7.0, 8.0]}

    @pytest.mark.parametrize("count", ["999999999999", "0", "1"])
    def test_header_count_is_only_a_hint(self, tmp_path, count):
        p = self.write(tmp_path, f"{count} 2\na 1 2\n\nno-space\nb 3 4\nc 5 6")
        table = load_embeddings(p)
        assert table.matrix.shape == (3, 2)
        assert table.vectors["c"].tolist() == [5.0, 6.0]

    @pytest.mark.parametrize("text,line,message", [
        ("2 three\na 1 2\n", 1, "'<count> <dim>' header"),
        ("2\n", 1, "'<count> <dim>' header"),
        ("", 1, "'<count> <dim>' header"),
        ("-1 2\n", 1, "'<count> <dim>' header"),
        ("2 2\na 1 2\nb 1 x\n", 3, "expected 2 numbers"),
        ("2 2\na 1 2\nb 1_0 2\n", 3, "expected 2 numbers"),
        ("2 2\na 1  2\n", 2, "expected 2 components, got 3"),
        ("2 2\na x 2\nb 1\n", 2, "expected 2 numbers"),  # the first bad line wins
        ("2 2\na 1 2\nb 1\nc x 2\n", 3, "expected 2 components, got 1"),
    ])
    def test_errors_name_path_and_line(self, tmp_path, text, line, message):
        p = self.write(tmp_path, text)
        with pytest.raises(MalformedLineError) as info:
            load_embeddings(p)
        assert str(info.value).startswith(f"{p}:{line}: malformed line: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("batch", [8, 1 << 18])
    @pytest.mark.parametrize("data,line,message", [
        (b"2 \xff\na 1 2\n", 1, "'utf-8' codec can't decode byte 0xff in position 2"),
        (b"2 2\na 1 2\nb \xff 2\n", 3, "'utf-8' codec can't decode byte 0xff in position 2"),
        (b"2 2\na \xff 2\nb 1\n", 2, "'utf-8' codec can't decode byte 0xff in position 2"),
        (b"2 2\na 1\nb \xff 2\n", 2, "expected 2 components, got 1"),  # the first bad line wins
        (b"2 2\na x 2\nb \xff 2\n", 2, "expected 2 numbers"),
    ])
    def test_bad_byte_names_its_line(self, tmp_path, monkeypatch, batch, data, line, message):
        monkeypatch.setattr(matchers, "VECTOR_BATCH_BYTES", batch)
        p = tmp_path / "vectors.vec"
        p.write_bytes(data)
        with pytest.raises(MalformedLineError) as info:
            load_embeddings(p)
        assert str(info.value).startswith(f"{p}:{line}: malformed line: {message}")

    def test_bad_number_in_a_later_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(matchers, "VECTOR_BATCH_BYTES", 20)
        lines = [f"w{i} {i} {i}.5" for i in range(40)]
        lines[27] = "w27 2 nan?"
        p = self.write(tmp_path, "40 2\n" + "\n".join(lines) + "\n")
        with pytest.raises(MalformedLineError) as info:
            load_embeddings(p)
        assert info.value.line_no == 29
        assert str(info.value) == f"{p}:29: malformed line: expected 2 numbers after the term"


class TestLexicon:
    def test_signal_phrases(self):
        lexicon = default_lexicon()
        assert match_lexicon("is it true that she collapsed?", lexicon)
        assert match_lexicon("this rumor is spreading", lexicon)
        assert match_lexicon("Totally UNCONFIRMED reports", lexicon)
        assert not match_lexicon("lovely weather today", lexicon)

    def test_case_insensitive(self, tmp_path):
        p = tmp_path / "lexicon.txt"
        p.write_text("debunk\n", encoding="utf-8")
        lexicon = matchers.load_lexicon(p)
        assert match_lexicon("DEBUNKED already", lexicon)

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "lexicon.txt"
        p.write_text("# comment\n\nfoo\nbar #1\n", encoding="utf-8")
        lexicon = matchers.load_lexicon(p)
        assert len(lexicon) == 2
        # a '#' after the start of a line is part of the pattern
        assert lexicon[1].pattern == "bar #1"

    def test_custom_lexicon_file(self, tmp_path):
        p = tmp_path / "lexicon.txt"
        p.write_text("# signal phrases\n\n  fake news  \nhoa+x\n", encoding="utf-8")
        lexicon = matchers.load_lexicon(p)
        assert [pat.pattern for pat in lexicon] == ["fake news", "hoa+x"]
        assert match_lexicon("total HOAAX", lexicon) and match_lexicon("Fake News!", lexicon)
        assert not match_lexicon("is it true that she collapsed?", lexicon)


class TestBestMatchAndClassify:
    def test_argmax(self):
        index = index_from_token_lists([["a1t"], ["b1t"], ["c1t"]])
        aid, score = best_match(np.array([0.1, 0.9, 0.3]), index)
        assert (aid, score) == ("a1", 0.9)

    def test_tie_breaks_to_lowest_ordinal(self):
        index = index_from_token_lists([["a1t"], ["b1t"]])
        aid, score = best_match(np.array([0.5, 0.5]), index)
        assert (aid, score) == ("a0", 0.5)

    def test_all_zero(self):
        index = index_from_token_lists([["a1t"], ["b1t"]])
        aid, score = best_match(np.zeros(2), index)
        assert (aid, score) == ("a0", 0.0)

    def test_empty_scores(self):
        index = index_from_token_lists([["a1t"]])
        with pytest.raises(EmptyScoresError):
            best_match(np.array([]), index)

    def test_scores_of_another_article_count(self):
        index = index_from_token_lists([["a1t"], ["b1t"]])
        with pytest.raises(ValueError, match="score list length does not match article count"):
            best_match(np.zeros(3), index)

    def test_classify_strict_inequality(self):
        assert classify(MatchResult("t", "a", 30.6), 30.5) is Label.RUMOR
        assert classify(MatchResult("t", "a", 30.5), 30.5) is Label.NONRUMOR
        assert classify(MatchResult("t", "a", 0.0), 0.0) is Label.NONRUMOR
