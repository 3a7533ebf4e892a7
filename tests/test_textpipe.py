import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import tokenize_oracle

from rumormatch import matchers, stemmer, textpipe
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

    # Porter (1980)'s own examples of the rules no other test reaches, stemmed
    # through every step: "eed" with m > 0 and without, "+e" after at/bl/iz
    # in step 1b, step 3, and step 4's "-ion" after s or t
    @pytest.mark.parametrize("word,stem", [
        ("agreed", "agre"), ("feed", "feed"), ("conflated", "conflat"),
        ("troubled", "troubl"), ("sized", "size"), ("triplicate", "triplic"),
        ("formative", "form"), ("formalize", "formal"), ("electrical", "electr"),
        ("hopeful", "hope"), ("goodness", "good"), ("adoption", "adopt"),
    ])
    def test_porter_examples(self, word, stem):
        assert stemmer.stem(word) == stem

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
    assert list(textpipe.entries(["  # note", "", " Foo \n", "#x", "b.r", "a # b"])) == [
        (3, "Foo"), (5, "b.r"), (6, "a # b")]


# Pieces a text is run together from: each crosses a rule of tokenize (URLs
# and mentions at text ends, hashtags, apostrophe runs, separators, NUL,
# case, and non-ASCII that lowercases to ASCII: U+0130 to "i" and a
# combining dot, the Kelvin sign to "k").
PIECES = ["the", "it's", "don't", "a", "I", "x", "ab", "zoo", "Trump", "HILLARY", "rock'n'roll",
          "'", "''", "'''", "'quoted''", "a''b", "|", "\n", "\t", " ", "  ", "\x00", "!?", "-",
          "İ", "İstanbul", "Kelvin", "café", "日本", "ΣΑΣ",
          "@user", "@", "@café", "#Tag", "#", "http://t.co/x", "https://", "http", "www.",
          "www.cnn.com", "WWW.CNN.COM", "HTTPS://X.Y", "12", "3"]
TEXTS = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)
# Vocabulary terms: tokenize outputs, and stopwords, short, uppercase, empty
# and apostrophe-edged terms that it never makes.
TERMS = st.sampled_from(["zoo", "trump", "hillary", "rock'n'roll", "quoted", "a''b", "tag",
                         "stanbul", "kelvin", "caf", "12", "3", "x", "i", "a", "ab", "the",
                         "it's", "don't", "Trump", "", "'quoted", "user", "t", "co", "cnn", "http"])
TOKENIZER = st.builds(TokenizerConfig, stopwords=st.sampled_from([
    frozenset(), frozenset({"the", "it's", "ab", "zoo", "on"}), textpipe.default_stopwords()]),
    min_token_len=st.integers(1, 3), stemming=st.booleans())


class TestTokenizeBlock:
    """tokenize_block plus a vocabulary lookup finds, text by text, exactly
    the terms of the regex reference tokenize_oracle, and tokenize and
    tokenize_texts make them."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(TEXTS, max_size=6), st.lists(TERMS, unique=True), TOKENIZER)
    def test_lookup_equals_tokenize(self, texts, terms, config):
        full = {t: i for i, t in enumerate(terms)}
        vocab = dict(full)
        textpipe.trim_vocabulary(vocab, config)
        ids, lens = matchers.lookup_ids(vocab, textpipe.tokenize_block(texts, config))
        rows = np.split(ids, np.cumsum(lens)[:-1]) if texts else []
        for text, row in zip(texts, rows, strict=True):
            assert row[row >= 0].tolist() == [full[t] for t in tokenize_oracle(text, config)
                                              if t in full]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(TEXTS, max_size=6), TOKENIZER)
    def test_words_are_tokenize_with_the_dropped_words_left_in(self, texts, config):
        words = textpipe.tokenize_block(texts, config)
        assert len(words) == len(texts)
        for text, row in zip(texts, words):
            if not config.stemming:  # under stemming the words are the terms
                row = [w for w in row if len(w) >= config.min_token_len
                       and w not in config.stopwords]
            assert row == tokenize_oracle(text, config)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(TEXTS, max_size=6), TOKENIZER)
    def test_tokenize_texts_is_tokenize_per_text(self, texts, config):
        expected = [tokenize_oracle(t, config) for t in texts]
        assert textpipe.tokenize_texts(texts, config) == expected
        assert [tokenize(t, config) for t in texts] == expected

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.text(max_size=200), TOKENIZER)
    def test_tokenize_equals_the_oracle_on_any_text(self, text, config):
        assert tokenize(text, config) == tokenize_oracle(text, config)

    def test_separator_in_a_text_sends_the_block_per_text(self):
        texts = ["zoo keeper", "nul\x00 inside", "a\x00b \x00", "\x00"]
        config = TokenizerConfig(stopwords=frozenset(), min_token_len=1)
        assert textpipe.tokenize_block(texts, config) == [
            ["zoo", "keeper"], ["nul", "inside"], ["a", "b"], []]
        assert textpipe.tokenize_block(["zoo keeper", "no nul"], config) == [
            ["zoo", "keeper"], ["no", "nul"]]

    def test_nul_inside_a_url_is_part_of_it(self):
        config = TokenizerConfig(stopwords=frozenset())
        assert textpipe.tokenize_block(["http://x\x00word", "next"], config) == [[], ["next"]]
        assert tokenize("see http://x\x00word", config) == ["see"]
        assert tokenize("hi @us\x00er", config) == ["hi", "er"]

    def test_stemming_goes_per_text(self):
        config = TokenizerConfig(stopwords=frozenset({"the"}), min_token_len=3, stemming=True)
        assert textpipe.tokenize_block(["running the caresses", "ponies ties"], config) == [
            ["run", "caress"], ["poni"]]  # "ties" stems to "ti", shorter than 3

    def test_no_texts(self):
        assert textpipe.tokenize_block([], TokenizerConfig()) == []
        assert textpipe.tokenize_texts([], TokenizerConfig()) == []

    def test_rules_stop_at_text_ends(self):
        texts = ["see http://t.co/x", "www.a.com next", "hi @", "user there", "'', ''"]
        assert textpipe.tokenize_block(texts, TokenizerConfig(stopwords=frozenset())) == [
            ["see"], ["next"], ["hi"], ["user", "there"], []]

    def test_stemmed_stopword_keeps_its_id(self):
        # under stemming "ones" becomes "on", a stopword that tokenize keeps
        stemmed = TokenizerConfig(stopwords=frozenset({"on"}), stemming=True)
        assert tokenize("ones", stemmed) == ["on"]
        vocab = {"on": 0, "a": 1, "zoo": 2}
        textpipe.trim_vocabulary(vocab, stemmed)
        assert vocab == {"on": 0, "a": 1, "zoo": 2}
        textpipe.trim_vocabulary(vocab, TokenizerConfig(stopwords=frozenset({"on"})))
        assert vocab == {"zoo": 2}
