import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rumormatch import textpipe
from rumormatch.errors import EmptyCorpusError
from rumormatch.corpus import RumorArticle
from rumormatch.matchers import build_index
from rumormatch.textpipe import TokenizerConfig, tokenize


class TestTokenize:
    def test_stopwords_and_punctuation(self):
        assert tokenize("Hillary collapse at Ground Zero!") == [
            "hillary", "collapse", "ground", "zero",
        ]

    def test_urls_mentions_hashtags(self):
        assert tokenize("Check https://t.co/xyz @user #Parkinsons") == [
            "check", "parkinsons",
        ]

    def test_urls_go_before_mentions(self):
        assert tokenize("hi @www.cnn.com") == ["hi"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_min_token_len(self):
        config = TokenizerConfig(stopwords=frozenset(), min_token_len=4)
        assert tokenize("ab abc abcd abcde", config) == ["abcd", "abcde"]

    def test_empty_stopword_list(self):
        config = TokenizerConfig(stopwords=frozenset())
        assert tokenize("at the zoo", config) == ["at", "the", "zoo"]

    def test_stemming_toggle(self):
        config = TokenizerConfig(stopwords=frozenset(), stemming=True)
        assert tokenize("running caresses", config) == ["run", "caress"]

    def test_stem_shorter_than_min_token_len_is_dropped(self):
        config = TokenizerConfig(stopwords=frozenset(), min_token_len=3, stemming=True)
        assert tokenize("ties running", config) == ["run"]  # "ties" stems to "ti"
        assert tokenize("ties running", TokenizerConfig(stopwords=frozenset(),
                                                        min_token_len=3)) == ["ties", "running"]

    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, text):
        config = TokenizerConfig()
        once = tokenize(text, config)
        assert tokenize(" ".join(once), config) == once

    @given(st.text(max_size=200))
    def test_tokens_are_clean(self, text):
        for tok in tokenize(text):
            assert tok
            assert tok == tok.lower()
            assert not any(c.isspace() for c in tok)


def index_of(docs):
    """build_index over articles whose bodies tokenize to exactly docs."""
    articles = [RumorArticle(id=f"a{i}", title="", body=" ".join(d)) for i, d in enumerate(docs)]
    return build_index(articles, TokenizerConfig(stopwords=frozenset(), min_token_len=1))


def doc_freq(index):
    return dict(zip(index.terms, np.diff(index.indptr).tolist()))


class TestVocabulary:
    """The term statistics build_index derives from the tokenized articles."""

    def test_two_docs(self):
        index = index_of([["a", "b"], ["b", "c"]])
        assert len(index.terms) == 3
        assert doc_freq(index) == {"a": 1, "b": 2, "c": 1}
        assert index.n_articles == 2
        assert index.doc_len.mean() == 2.0
        assert index.term_ids == {"a": 0, "b": 1, "c": 2}

    def test_single_repeated_doc(self):
        index = index_of([["a", "a", "a"]])
        assert len(index.terms) == 1
        assert doc_freq(index) == {"a": 1}
        assert index.doc_len.mean() == 3.0

    def test_empty_doc_contributes_length_zero(self):
        index = index_of([[], ["a"]])
        assert len(index.terms) == 1
        assert index.doc_len.mean() == 0.5

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            index_of([])

    def test_doc_freq_sum_identity(self):
        rng = random.Random(7)
        docs = [
            [rng.choice("abcdefg") for _ in range(rng.randint(0, 12))]
            for _ in range(25)
        ]
        index = index_of(docs)
        assert sum(len(set(d)) for d in docs) == sum(doc_freq(index).values())

    def test_stats_order_independent(self):
        docs = [["a", "b"], ["b", "c"], ["c", "c", "d"]]
        v1 = index_of(docs)
        v2 = index_of(list(reversed(docs)))
        assert doc_freq(v1) == doc_freq(v2)
        assert v1.doc_len.mean() == v2.doc_len.mean()
        assert v1.n_articles == v2.n_articles


def test_default_stopwords_shape():
    stopwords = textpipe.default_stopwords()
    assert "at" in stopwords and "the" in stopwords
    assert len(stopwords) > 150


def test_packaged_stopwords_are_read_once(monkeypatch):
    read, calls = textpipe.packaged_list, []
    monkeypatch.setattr(textpipe, "packaged_list", lambda name: calls.append(name) or read(name))
    textpipe.default_stopwords.cache_clear()
    assert tokenize("the zoo") == tokenize("at the zoo") == ["zoo"]
    assert TokenizerConfig().stopwords is textpipe.default_stopwords()
    assert calls == ["stopwords.txt"]


def test_load_stopwords_ignores_comments(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("# comment\nfoo\n\nBar\n")
    assert textpipe.load_stopwords(p) == frozenset({"foo", "bar"})


def test_keyword_terms_follow_case_and_stemming():
    config = TokenizerConfig(stemming=True)
    assert textpipe.keyword_terms(["Hoaxes", "#Diagnosis"], config) == {
        "hoaxes": "hoax", "#diagnosis": "diagnosi"}
    assert textpipe.keyword_terms(["Hoaxes"]) == {"hoaxes": "hoaxes"}


def test_list_entries_skip_blanks_and_comments():
    assert textpipe.list_entries(["  # note", "", " Foo \n", "#x", "b.r"]) == ["Foo", "b.r"]
