import csv
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import platform
import random
import stat
import subprocess
import sys
import tracemalloc
import typing
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import deadline, make_article, make_tweet, zipf_articles
from oracles import bm25_oracle

from rumormatch import analysis, cli, corpus, errors, evaluation, matchers, textpipe
from rumormatch.corpus import Label, LabeledTweet
from rumormatch.matchers import BM25Params, build_index
from rumormatch.textpipe import TokenizerConfig, tokenize


ARTICLES = [
    {"id": "a1", "title": "", "body": "clinton parkinsons diagnosis montage",
     "subjects": ["CLINTON"]},
    {"id": "a2", "title": "", "body": "trump tax returns hidden audit",
     "subjects": ["TRUMP"]},
    {"id": "a3", "title": "", "body": "orlando shooting reaction hoax",
     "subjects": ["OTHER"]},
]

TWEETS = [
    {"id": "t1", "user_id": "u1", "group": "CLINTON_FOLLOWER", "timestamp": 1462060800,
     "text": "clinton parkinsons diagnosis montage"},
    {"id": "t2", "user_id": "u2", "group": "TRUMP_FOLLOWER", "timestamp": 1462060801,
     "text": "trump tax returns hidden audit"},
    {"id": "t3", "user_id": "u3", "group": "TRUMP_FOLLOWER", "timestamp": 1462060802,
     "text": "qqqz wwwz eeez rrrz"},
    {"id": "t4", "user_id": "u1", "group": "CLINTON_FOLLOWER", "timestamp": 1462060803,
     "text": "is it true about the orlando shooting hoax?"},
]

LABELS = [
    {"tweet_id": "t1", "label": "RUMOR", "article_id": "a1"},
    {"tweet_id": "t2", "label": "RUMOR", "article_id": "a2"},
    {"tweet_id": "t3", "label": "NONRUMOR"},
    {"tweet_id": "t4", "label": "RUMOR", "article_id": "a3"},
]


def write_jsonl(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


def nonrumor_line(tweet_id):
    return json.dumps({"tweet_id": tweet_id, "article_id": None, "score": 0.0,
                       "label": "NONRUMOR"})


@pytest.fixture
def workspace(tmp_path):
    write_jsonl(tmp_path / "tweets.jsonl", TWEETS)
    write_jsonl(tmp_path / "articles.jsonl", ARTICLES)
    write_jsonl(tmp_path / "labels.jsonl", LABELS)
    out = tmp_path / "out"
    config = tmp_path / "run.conf"
    config.write_text(
        "# test run\n"
        f"tweets = {tmp_path / 'tweets.jsonl'}\n"
        f"articles = {tmp_path / 'articles.jsonl'}\n"
        f"labels = {tmp_path / 'labels.jsonl'}\n"
        f"out = {out}\n"
        "matcher = BM25\n"
        "threshold = 1.0\n"
        "jobs = 1\n"
        "quiet = true\n"
    )
    return tmp_path, config, out


@pytest.fixture
def vector_files(tmp_path):
    # word vectors spanning the article vocabulary, 3 dims
    terms = {
        "clinton": (1, 0, 0), "parkinsons": (1, 0, 0), "diagnosis": (1, 0, 0),
        "montage": (1, 0, 0),
        "trump": (0, 1, 0), "tax": (0, 1, 0), "returns": (0, 1, 0),
        "hidden": (0, 1, 0), "audit": (0, 1, 0),
        "orlando": (0, 0, 1), "shooting": (0, 0, 1), "reaction": (0, 0, 1),
        "hoax": (0, 0, 1), "true": (0, 0, 1),
    }
    emb = tmp_path / "words.vec"
    emb.write_text(
        f"{len(terms)} 3\n"
        + "".join(f"{t} {v[0]} {v[1]} {v[2]}\n" for t, v in terms.items())
    )
    # doc vectors keyed by tweet and article ids
    docs = {
        "a1": (1, 0, 0), "a2": (0, 1, 0), "a3": (0, 0, 1),
        "t1": (0.9, 0.1, 0), "t2": (0, 0.8, 0.1),
        "t3": (0.1, 0, 0.9), "t4": (0, 0.1, 0.9),
    }
    dv = tmp_path / "docs.vec"
    dv.write_text(
        f"{len(docs)} 3\n"
        + "".join(f"{k} {v[0]} {v[1]} {v[2]}\n" for k, v in docs.items())
    )
    return emb, dv



def readme_keys_block() -> str:
    """The example run.conf under README's "Keys:"."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    return text.split("Keys:\n\n```\n", 1)[1].split("```", 1)[0]


class TestConfig:
    def test_parse_and_types(self, workspace):
        tmp_path, config, out = workspace
        values = cli.parse_config_file(config)
        built = cli.build_config(values, {})
        assert built.matcher == "BM25"
        assert built.threshold == 1.0
        assert built.jobs == 1
        assert built.quiet is True

    def test_flag_overrides_config(self, workspace):
        _, config, _ = workspace
        values = cli.parse_config_file(config)
        built = cli.build_config(values, {"threshold": 7.5, "matcher": "TFIDF"})
        assert built.threshold == 7.5
        assert built.matcher == "TFIDF"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            cli.build_config({"bogus": "1"}, {})

    @pytest.mark.parametrize("key", ["strip_urls", "strip_mentions"])
    def test_removed_tokenizer_switch_is_unknown_key(self, workspace, capsys, key):
        _, config, out = workspace
        config.write_text(config.read_text() + f"{key} = false\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_words(self, workspace, capsys):
        for word in ("true", "TRUE", "1", "yes", "On"):
            assert cli.build_config({"stemming": word}, {}).stemming is True
        for word in ("false", "False", "0", "no", "OFF"):
            assert cli.build_config({"stemming": word}, {}).stemming is False
        with pytest.raises(ValueError, match="'stemming'"):
            cli.build_config({"stemming": "ture"}, {})
        _, config, out = workspace
        config.write_text(config.read_text() + "stemming = ture\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert "'stemming'" in capsys.readouterr().err
        assert not (out / "matches.jsonl").exists()

    @pytest.mark.parametrize("line,key", [
        ("top_n = -1", "'top_n'"),
        ("top_fractions = 0.1,1.5", "'top_fractions'"),
        ("top_fractions = 0", "'top_fractions'"),
        ("top_fractions = nan", "'top_fractions'"),
        ("window_start = 1475280000", "'window_start'"),
        ("window_end = 1", "'window_end'"),
        ("bin_width = 0", "'bin_width'"),
        ("k1 = -1", "'k1'"),
        ("b = 1.5", "'b'"),
        ("threshold = nan", "'threshold'"),
        ("peak_k = nan", "'peak_k'"),
        ("matcher = foo", "'matcher'"),
    ])
    def test_bad_analysis_parameter_exits_before_any_output(self, workspace, capsys, line, key):
        _, config, out = workspace
        config.write_text(config.read_text() + line + "\n")
        for command in (["all"], ["match"], ["index"]):
            assert cli.main(["--config", str(config), *command]) == cli.EXIT_INPUT
            assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seconds", [2**63, 10**17])
    @pytest.mark.parametrize("key", ["window_start", "window_end"])
    def test_window_bound_gmtime_cannot_convert_exits_before_any_output(
            self, workspace, capsys, key, seconds):
        # a start with its end a day later, or an end after the default start
        _, config, out = workspace
        bounds = {key: seconds, "window_end": seconds + 86400} if key == "window_start" else {
            key: seconds}
        config.write_text(config.read_text() + "".join(f"{k} = {v}\n" for k, v in bounds.items()))
        # `match` first: a window of centuries would make `all` build a bin per day
        for command in (["match"], ["index"], ["analyze", "timeline"], ["all"]):
            assert cli.main(["--config", str(config), *command]) == cli.EXIT_INPUT
            assert f"config key {key!r} must be a time gmtime can convert, got {seconds}" in (
                capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("lines,n_bins", [
        ("window_end = 1000000000000000\n", 11574057183),  # daily bins for 31.7M years
        ("bin_width = 1\n", 15811200),  # second bins over the default window
        ("window_start = 0\nwindow_end = 60000001\nbin_width = 60\n", 1000001),
    ])
    def test_window_of_too_many_bins_exits_before_any_output(self, workspace, capsys, lines,
                                                              n_bins):
        _, config, out = workspace
        config.write_text(config.read_text() + lines)
        for command in (["match"], ["analyze", "timeline"], ["all"]):
            assert cli.main(["--config", str(config), *command]) == cli.EXIT_INPUT
            assert ("config keys 'window_start', 'window_end' and 'bin_width' make "
                    f"{n_bins} timeline bins, more than 1000000") in capsys.readouterr().err
        assert not out.exists()
        assert cli.build_config({"window_start": "0", "window_end": "60000000",
                                 "bin_width": "60"}, {}).window_end == 60000000

    def test_matcher_all_only_for_eval_identify(self, workspace, capsys):
        _, config, out = workspace
        base = ["--config", str(config), "--matcher", "ALL"]
        for command in (["all"], ["index"], ["match"], ["eval", "classify"], ["analyze"]):
            assert cli.main(base + command) == cli.EXIT_INPUT
            assert "config key 'matcher' may be ALL only for eval identify" in (
                capsys.readouterr().err)
        assert not out.exists()

    def test_matcher_in_any_case(self, workspace):
        _, config, _ = workspace
        assert cli.build_config({"matcher": "tfidf"}, {}).matcher == "TFIDF"
        assert cli.build_config({"matcher": "tfidf"}, {"matcher": "Lexicon"}).matcher == "LEXICON"
        assert cli.main(["--config", str(config), "--matcher", "bm25", "match"]) == 0
        assert cli.main(["--config", str(config), "--matcher", "all", "eval", "identify"]) == 0

    def test_line_without_equals_exit_2(self, workspace, capsys):
        _, config, out = workspace
        config.write_text(config.read_text() + "stemming\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {config}:10: expected 'key = value'\n"
        assert not out.exists()

    def test_readme_lists_every_config_key(self):
        block = readme_keys_block()
        keys = [entry.partition("=")[0].strip()
                for _, entry in textpipe.entries(block.splitlines())]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(cli.RunConfig))

    def test_readme_example_parses_to_the_defaults(self, tmp_path, monkeypatch):
        (tmp_path / "run.conf").write_text(readme_keys_block(), encoding="utf-8")
        (tmp_path / "stopwords.txt").write_text("", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        built = cli.build_config(cli.parse_config_file("run.conf"), {})
        default = cli.RunConfig()
        for key, kind in typing.get_type_hints(cli.RunConfig).items():
            if kind in (int, float, bool) or key == "top_fractions":
                assert getattr(built, key) == getattr(default, key), key
        assert built.keywords == ["clinton", "trump"]
        assert (built.index_path, built.out) == ("out/index.rmix", "out/")

    def test_negative_jobs_exit_2(self, workspace, capsys):
        _, config, out = workspace
        assert cli.main(["--config", str(config), "--jobs", "-3", "match"]) == cli.EXIT_INPUT
        assert "'jobs'" in capsys.readouterr().err
        assert not (out / "matches.jsonl").exists()


class TestIndexCommand:
    def test_deterministic_bytes(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "index"]) == 0
        first = (out / "index.rmix").read_bytes()
        assert cli.main(["--config", str(config), "index"]) == 0
        assert (out / "index.rmix").read_bytes() == first
        assert first[:4] == cli.INDEX_MAGIC

    def test_saved_bytes_are_pinned(self, workspace):
        # the v5 layout and its little-endian arrays, the same on every host
        _, config, out = workspace
        assert cli.main(["--config", str(config), "index"]) == 0
        assert hashlib.sha256((out / "index.rmix").read_bytes()).hexdigest() == (
            "c35d9bb23e0dc22d774110b552dbf04f59434c3d29ab1e1de0432caa7683cdf2")

    def test_round_trip_via_load(self, workspace):
        tmp_path, config, out = workspace
        cli.main(["--config", str(config), "index"])
        index = cli.load_index(out / "index.rmix")
        assert index.article_ids == ["a1", "a2", "a3"]
        assert len(index.doc_len) == 3

    def test_load_gives_the_saved_arrays(self, tmp_path):
        # head terms (dense rows) and tail terms (CSR rows) both occur
        rng = random.Random(3)
        vocab = [f"w{i:02d}" for i in range(60)]
        weights = [1.0 / (i + 1) for i in range(60)]
        articles = [make_article(f"a{i}", rng.choices(vocab, weights, k=rng.randint(0, 30)))
                    for i in range(40)]
        tok = TokenizerConfig(stopwords=frozenset())
        built = build_index(articles, tok)
        cli.save_index(built, tmp_path / "index.rmix", cli.index_provenance(tok, None))
        loaded = cli.load_index(tmp_path / "index.rmix")
        assert loaded.article_ids == built.article_ids
        assert loaded.terms == built.terms
        for name in ("doc_len", "indptr", "ordinals", "counts"):
            a, b = getattr(loaded, name), getattr(built, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        params = BM25Params(k1=1.5, b=0.6)
        for a, b in [(loaded.bm25_table(params), built.bm25_table(params)),
                     (loaded.tfidf_table(), built.tfidf_table())]:
            assert 0 < len(a.data) and 0 < len(a.dense_rows)
            for f in dataclasses.fields(a):
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert (x.tobytes() == y.tobytes()) if isinstance(x, np.ndarray) else x == y

    def test_load_holds_no_python_int_per_posting(self, tmp_path):
        # 79,509 postings: as Python ints in lists they peaked at 5.4 times the arrays
        tok = TokenizerConfig(stopwords=frozenset())
        index = build_index(zipf_articles(), tok)
        cli.save_index(index, tmp_path / "index.rmix", cli.index_provenance(tok, None))
        tracemalloc.start()
        try:
            loaded = cli.load_index(tmp_path / "index.rmix")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.ordinals.tobytes() == index.ordinals.tobytes()
        assert peak < 4 * sum(a.nbytes for a in (index.indptr, index.ordinals, index.counts))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_save_and_load_round_trip(self, tmp_path_factory, data):
        # the header is canonical JSON on one line, whatever LFs, quotes or NULs the
        # strings hold, and the arrays follow it as little-endian int64; a lone
        # surrogate has no UTF-8 form and is refused by the encoder
        text = st.text(st.one_of(st.sampled_from('"\\é☃\x00\n\u2028'),
                                 st.characters(codec="utf-8")), max_size=5)
        n = data.draw(st.integers(1, 4), "articles")
        article_ids = data.draw(st.lists(text, min_size=n, max_size=n, unique=True))
        terms = data.draw(st.lists(text, max_size=6, unique=True))
        indptr, ordinals, counts = [0], [], []
        for _ in terms:
            rows = data.draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, 10**12)))
            ordinals += sorted(rows)
            counts += [rows[o] for o in sorted(rows)]
            indptr.append(len(ordinals))
        arrays = [np.array(a, dtype=np.int64) for a in (indptr, ordinals, counts)]
        index = matchers.ArticleIndex(article_ids, terms, *arrays)
        provenance = cli.index_provenance(TokenizerConfig(stopwords=frozenset({"é", "a"})), None)
        provenance["articles_sha256"] = data.draw(st.none() | st.text("0123456789abcdef"))
        path = tmp_path_factory.mktemp("index") / "index.rmix"
        cli.save_index(index, path, provenance)
        header = {"article_ids": article_ids, "terms": terms, **provenance}
        assert path.read_bytes() == (
            cli.INDEX_MAGIC + bytes([cli.INDEX_VERSION])
            + json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8") + b"\n"
            + b"".join(a.astype("<i8").tobytes() for a in arrays))
        loaded = cli.load_index(path)
        assert (loaded.article_ids, loaded.terms) == (article_ids, terms)
        for name, saved in zip(("indptr", "ordinals", "counts"), arrays):
            got = getattr(loaded, name)
            assert got.dtype == np.int64 and got.tobytes() == saved.tobytes()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["apple", "pear", "plum"]), max_size=40),
                    max_size=150),
           st.lists(st.integers(1, 2**43), min_size=1, max_size=1000))
    def test_mean_doc_len_is_the_same_on_every_host(self, tmp_path_factory, token_lists,
                                                    lengths):
        # doc_len holds whole token counts: every partial sum below 2**53 is exact in any
        # order, so BM25's mean is one correctly rounded division whatever numpy's
        # summation order (1,000 lengths below 2**43 sum below 2**53)
        tok = TokenizerConfig(stopwords=frozenset())
        built = build_index([make_article(f"a{i}", t)
                             for i, t in enumerate([["apple"], *token_lists])], tok)
        n = len(lengths)
        one_term = matchers.ArticleIndex([f"a{i}" for i in range(n)], ["w"], [0, n], range(n),
                                         lengths)
        path = tmp_path_factory.mktemp("index") / "index.rmix"
        for index in (built, one_term):
            cli.save_index(index, path, cli.index_provenance(tok, None))
            for each in (index, cli.load_index(path)):
                assert each.doc_len.mean() == math.fsum(each.doc_len) / each.n_articles

    @pytest.mark.parametrize("matcher", ["BM25", "TFIDF"])
    def test_saved_index_scores_like_built_index(self, workspace, matcher):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "--matcher", matcher, "match"]) == 0
        built = (out / "matches.jsonl").read_bytes()
        assert cli.main(["--config", str(config), "index"]) == 0
        config.write_text(config.read_text() + f"index_path = {out / 'index.rmix'}\n")
        assert cli.main(["--config", str(config), "--matcher", matcher, "match"]) == 0
        assert (out / "matches.jsonl").read_bytes() == built

    def test_version_mismatch_rejected(self, workspace, tmp_path):
        _, config, out = workspace
        cli.main(["--config", str(config), "index"])
        data = bytearray((out / "index.rmix").read_bytes())
        data[4] = 99
        bad = tmp_path / "bad.rmix"
        bad.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            cli.load_index(bad)

    def test_version_1_index_exit_2(self, workspace, tmp_path, capsys):
        _, config, _ = workspace
        olds = {1: b'{"article_ids": ["a1"], "empty_article_ids": [], "doc_len": [1], '
                   b'"avgdl": 1.0, "terms": ["x"], "postings": {"x": [[0], [1]]}}',
                2: index_payload(doc_len=[1, 1]),  # v2 also stored doc_len
                3: index_payload(),  # v3 may have been built with URLs or mentions kept
                4: b'{"article_ids": ["a1", "a2"], "articles_sha256": null, "counts": [1, 1], '
                   b'"indptr": [0, 1, 2], "ordinals": [0, 1], "terms": ["x", "y"], '
                   b'"tokenizer": {}}'}  # v4 held its arrays as JSON lists
        text = config.read_text()
        for version, payload in olds.items():
            old = tmp_path / f"v{version}.rmix"
            old.write_bytes(cli.INDEX_MAGIC + bytes([version]) + payload)
            config.write_text(text + f"index_path = {old}\n")
            assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
            assert (f"index version {version} not supported (want {cli.INDEX_VERSION})"
                    in capsys.readouterr().err)

    def test_missing_articles_file_exit_2(self, tmp_path):
        config = tmp_path / "c.conf"
        config.write_text(f"articles = {tmp_path / 'nope.jsonl'}\nquiet = true\n")
        assert cli.main(["--config", str(config), "index"]) == 2

    def test_empty_articles_exit_3(self, tmp_path):
        (tmp_path / "articles.jsonl").write_text("")
        config = tmp_path / "c.conf"
        config.write_text(
            f"articles = {tmp_path / 'articles.jsonl'}\nout = {tmp_path}\nquiet = true\n"
        )
        assert cli.main(["--config", str(config), "index"]) == 3

    def test_article_stream_gives_the_list_index(self, tmp_path):
        # a generator of the Zipf articles, read a block at a time, builds the arrays
        # and saves the index.rmix bytes of their list
        tok = TokenizerConfig(stopwords=frozenset())
        articles = zipf_articles()
        built = [build_index(source, tok) for source in (articles, (a for a in articles))]
        for name, index in zip(("list", "stream"), built):
            cli.save_index(index, tmp_path / f"{name}.rmix", cli.index_provenance(tok, None))
        listed, streamed = built
        assert (streamed.article_ids, streamed.terms) == (listed.article_ids, listed.terms)
        for name in ("indptr", "ordinals", "counts", "doc_len"):
            assert getattr(streamed, name).tobytes() == getattr(listed, name).tobytes()
        assert (tmp_path / "stream.rmix").read_bytes() == (tmp_path / "list.rmix").read_bytes()


STREAMING_COMMANDS = [["--matcher", "BM25", "match"], ["--matcher", "TFIDF", "match"], ["index"]]


class TestArticleStream:
    """`match` with BM25 or TF-IDF and `index` stream articles.jsonl into the index
    build: they hold no list of the articles, and still check every line."""

    @pytest.mark.parametrize("command", STREAMING_COMMANDS)
    @pytest.mark.parametrize("fault,reason", [
        ('{"id": "x", "body"', "malformed line: "),
        (json.dumps(ARTICLES[1]), "duplicate id 'a2'"),
        (json.dumps({"id": "a9", "body": " "}), "malformed line: article 'a9' has empty body"),
    ], ids=["malformed", "repeated-id", "empty-body"])
    def test_fault_after_good_articles_exit_2(self, workspace, capsys, command, fault, reason):
        # 70 good articles, so that the fault falls in the second block of the build
        tmp_path, config, out = workspace
        good = ARTICLES + [{"id": f"f{i}", "body": f"filler number{i}"} for i in range(67)]
        path = tmp_path / "articles.jsonl"
        path.write_text("".join(json.dumps(a) + "\n" for a in good) + fault + "\n"
                        + json.dumps({"id": "late", "body": "after the fault"}) + "\n")
        assert cli.main(["--config", str(config), *command]) == cli.EXIT_INPUT
        assert f"{path}:{len(good) + 1}: {reason}" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command", STREAMING_COMMANDS)
    def test_no_article_list_is_loaded(self, workspace, monkeypatch, command):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), *command]) == 0
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()

        def refuse(path):
            raise AssertionError(f"load_articles({path}) was called")

        monkeypatch.setattr(corpus, "load_articles", refuse)
        assert cli.main(["--config", str(config), *command]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written

    def test_scorer_from_the_path_peaks_below_one_given_the_list(self, tmp_path):
        # 1,723 Zipf articles: a BM25 set-up from the path traced 4.29 MB, one given
        # the loaded list 5.17 MB, of which the list of articles is about 0.9 MB
        path = tmp_path / "articles.jsonl"
        write_jsonl(path, [{"id": a.id, "body": a.body, "subjects": ["CLINTON"]}
                           for a in zipf_articles()])
        config = cli.RunConfig(articles=str(path), matcher="BM25", quiet=True)
        config.tokenizer_config()  # the stopword list is read before the trace
        peaks = {}
        for source in ("path", "list"):
            tracemalloc.start()
            try:
                articles = corpus.load_articles(path) if source == "list" else None
                scorer = cli.make_scorer(config, articles)
                _, peaks[source] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(scorer.article_ids) == 1723
            del articles, scorer
        assert peaks["path"] < 4.7e6
        assert peaks["path"] + 0.5e6 < peaks["list"]


class TestIndexProvenance:
    """A saved index is used only under the tokenizer config and the articles
    it was built from."""

    @pytest.fixture
    def saved(self, workspace):
        tmp_path, config, out = workspace
        config.write_text(config.read_text() + f"index_path = {tmp_path / 'saved.rmix'}\n")
        assert cli.main(["--config", str(config), "index"]) == 0
        return tmp_path, config, out

    @pytest.mark.parametrize("line,named", [
        ("stemming = true", "stemming"),
        ("stopwords = {tmp}/stop.txt", "stopwords"),
        ("min_token_len = 3", "min_token_len"),
    ])
    def test_other_tokenizer_exit_2(self, saved, line, named, capsys):
        tmp_path, config, out = saved
        (tmp_path / "stop.txt").write_text("the\nhoax\n")
        config.write_text(config.read_text() + line.format(tmp=tmp_path) + "\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert f"built with another {named} than configured" in capsys.readouterr().err
        assert not (out / "matches.jsonl").exists()

    def test_field_the_run_lacks_exit_2(self, saved, capsys):
        tmp_path, config, out = saved
        index = tmp_path / "saved.rmix"
        data = index.read_bytes()
        line, lf, arrays = data[5:].partition(b"\n")
        header = json.loads(line)
        header["tokenizer"]["strip_urls"] = True
        index.write_bytes(data[:5] + json.dumps(header).encode("utf-8") + lf + arrays)
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert "built with another strip_urls than configured" in capsys.readouterr().err
        assert not (out / "matches.jsonl").exists()

    def test_edited_article_exit_2(self, saved, capsys):
        tmp_path, config, out = saved
        articles = tmp_path / "articles.jsonl"
        write_jsonl(articles, [dict(ARTICLES[0], body="clinton montage"), *ARTICLES[1:]])
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert f"built from other articles than {articles}" in capsys.readouterr().err
        assert not (out / "matches.jsonl").exists()

    def test_articles_file_is_hashed_a_chunk_at_a_time(self, tmp_path):
        # 6 MB of articles: the digest is the whole file's, while a chunk or two is held
        path = tmp_path / "articles.jsonl"
        body = " ".join(["clinton parkinsons diagnosis montage"] * 25)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(6400):
                fh.write(json.dumps({"id": f"a{i}", "title": "", "body": body,
                                     "subjects": ["CLINTON"]}) + "\n")
        assert path.stat().st_size > 6e6
        tok = TokenizerConfig()
        tracemalloc.start()
        try:
            provenance = cli.index_provenance(tok, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert provenance["articles_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert peak < 3 * cli.HASH_CHUNK


class TestMatchCommand:
    def test_scores_match_bm25_oracle(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "match"]) == 0
        lines = [json.loads(l) for l in (out / "matches.jsonl").read_text().splitlines()]
        assert [l["tweet_id"] for l in lines] == ["t1", "t2", "t3", "t4"]

        tok = TokenizerConfig()
        docs = [tokenize(a["body"], tok) for a in ARTICLES]
        for line, tweet in zip(lines, TWEETS):
            expected = max(bm25_oracle(docs, tokenize(tweet["text"], tok)))
            assert line["score"] == pytest.approx(expected, abs=1e-9)

    def test_classification_at_threshold(self, workspace):
        tmp_path, config, out = workspace
        cli.main(["--config", str(config), "match"])
        lines = [json.loads(l) for l in (out / "matches.jsonl").read_text().splitlines()]
        by_id = {l["tweet_id"]: l for l in lines}
        assert by_id["t1"]["label"] == "RUMOR" and by_id["t1"]["article_id"] == "a1"
        assert by_id["t3"]["label"] == "NONRUMOR" and by_id["t3"]["article_id"] is None
        assert by_id["t3"]["score"] == 0.0

    @pytest.mark.parametrize("matcher", ["BM25", "TFIDF"])
    def test_zero_evidence_tweet_goes_to_first_article(self, workspace, matcher):
        # t3 has no indexed term: its all-zero row ties every article, and the
        # first maximum is ordinal 0, which any threshold below 0 attributes
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "--matcher", matcher,
                         "--threshold=-inf", "match"]) == 0
        lines = [json.loads(l) for l in (out / "matches.jsonl").read_text().splitlines()]
        assert lines[2] == {"tweet_id": "t3", "article_id": "a1", "score": 0.0,
                            "label": "RUMOR"}

    def test_lexicon_matcher_has_no_attribution(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "--matcher", "LEXICON", "match"]) == 0
        lines = [json.loads(l) for l in (out / "matches.jsonl").read_text().splitlines()]
        assert all(l["article_id"] is None for l in lines)
        by_id = {l["tweet_id"]: l for l in lines}
        assert by_id["t4"]["label"] == "RUMOR"  # "is it true"
        assert by_id["t2"]["label"] == "NONRUMOR"

    @pytest.mark.parametrize("matcher", cli.MATCHERS)
    def test_score_contract(self, workspace, vector_files, matcher):
        _, config, _ = workspace
        emb, dv = vector_files
        scorer = cli.make_scorer(cli.build_config(cli.parse_config_file(config), {
            "matcher": matcher, "embeddings": str(emb), "doc_vectors": str(dv)}))
        # t9 has no doc vector and no token with a word vector
        block = [(t["id"], t["text"]) for t in TWEETS] + [("t9", "qqqz wwwz")]
        scores, defined = scorer.score(block, [tokenize(text, scorer.tok) for _, text in block])
        assert scores.dtype == np.float64 and scores.shape == (5, len(scorer.article_ids))
        assert defined.dtype == np.bool_ and defined.shape == (5,)
        assert (scores[~defined] == 0.0).all()
        assert defined.all() == (matcher not in ("EMBEDDING", "DOCVEC"))

    @pytest.mark.parametrize("matcher", ["FOO", "ALL"])
    def test_no_scorer_for_an_unknown_matcher(self, matcher):
        # build_config refuses FOO, and ALL outside eval identify, before this
        with pytest.raises(ValueError, match=f"unknown matcher {matcher!r}"):
            cli.make_scorer(cli.RunConfig(matcher=matcher))

    def test_embedding_words_find_only_terms(self, workspace):
        tmp_path, config, _ = workspace
        emb = tmp_path / "stop.vec"
        emb.write_text("3 2\nthe 0 1\nx 0 1\nclinton 1 0\n")  # a stopword and a short term
        scorer = cli.make_scorer(cli.build_config(cli.parse_config_file(config), {
            "matcher": "EMBEDDING", "embeddings": str(emb)}))
        block = [("t1", "The clinton X"), ("t2", "the x")]
        words = cli.textpipe.tokenize_block([text for _, text in block], scorer.tok)
        assert words == [["the", "clinton", "x"], ["the", "x"]]
        scores, defined = scorer.score(block, words)
        assert scores.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert defined.tolist() == [True, False]

    def test_jobs_do_not_change_bytes(self, workspace):
        tmp_path, config, out = workspace
        cli.main(["--config", str(config), "--jobs", "1", "match"])
        serial = (out / "matches.jsonl").read_bytes()
        cli.main(["--config", str(config), "--jobs", "4", "match"])
        assert (out / "matches.jsonl").read_bytes() == serial

    @pytest.mark.parametrize("source", ["built", "loaded"])
    @pytest.mark.parametrize("matcher", cli.POSTINGS_MATCHERS)
    def test_scorer_holds_no_index(self, workspace, matcher, source):
        # the scorer keeps the impact table, so the index is freed with its
        # last outside reference, and the scorer still writes match's bytes
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "--matcher", matcher, "index"]) == 0
        assert cli.main(["--config", str(config), "--matcher", matcher, "match"]) == 0
        config = cli.build_config(cli.parse_config_file(config), {"matcher": matcher})
        articles = corpus.load_articles(config.articles)
        index = (build_index(articles, config.tokenizer_config()) if source == "built"
                 else cli.load_index(out / "index.rmix", config))
        scorer = cli.make_scorer(config, articles, index)
        ref = weakref.ref(index)
        del index
        gc.collect()
        assert ref() is None
        text, _, _ = cli._score_block(scorer, [(t["id"], t["text"]) for t in TWEETS])
        assert text.encode("utf-8") == (out / "matches.jsonl").read_bytes()

    def test_serial_match_does_not_import_the_pool(self, workspace):
        tmp_path, config, out = workspace
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys\nfrom rumormatch import cli\n"
                f"code = cli.main(['--config', {str(config)!r}, '--jobs', '1', 'match'])\n"
                "print(code, 'multiprocessing' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                              capture_output=True, text=True)
        assert done.stdout.split() == ["0", "False"]
        assert (out / "matches.jsonl").read_text().count("\n") == len(TWEETS)

    def test_jobs_zero_counts_the_cpus_this_process_may_run_on(self, workspace, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "--jobs", "1", "match"]) == 0
        serial = (out / "matches.jsonl").read_bytes()
        (out / "matches.jsonl").unlink()
        # one CPU of eight may run this process: tweets beyond one CHUNK start no pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli, "CHUNK", 1)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert cli.main(["--config", str(config), "--jobs", "0", "match"]) == 0
        assert (out / "matches.jsonl").read_bytes() == serial


class TestMatchLine:
    ids = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028é雪🙂')))
    scores = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e22, 1.0, float("nan"),
                                        float("inf"), float("-inf")]), st.floats())

    @given(ids, st.one_of(st.none(), ids), scores, st.booleans())
    def test_same_text_as_json_dumps(self, tweet_id, article_id, score, rumor):
        record = {"tweet_id": tweet_id, "article_id": article_id, "score": score,
                  "label": "RUMOR" if rumor else "NONRUMOR"}
        assert cli._match_line(tweet_id, article_id, score, rumor) == json.dumps(
            record, ensure_ascii=False)

    def test_nan_component_writes_a_nan_score(self, workspace, tmp_path):
        # a NaN in a tweet's mean vector makes every cosine NaN; the line keeps
        # json's NaN token, as json.dumps writes it
        _, config, out = workspace
        emb = tmp_path / "nan.vec"
        emb.write_text("3 2\nclinton 1 0\ntrump 0 1\nqqqz nan 0\n")
        config.write_text(config.read_text() + f"embeddings = {emb}\nmatcher = EMBEDDING\n")
        assert cli.main(["--config", str(config), "--threshold", "0.5", "match"]) == 0
        lines = (out / "matches.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines[2] == ('{"tweet_id": "t3", "article_id": null, "score": NaN, '
                            '"label": "NONRUMOR"}')
        assert lines[0] == '{"tweet_id": "t1", "article_id": "a1", "score": 1.0, "label": "RUMOR"}'


class TestEmbeddingMatchers:
    def test_embedding_matcher_end_to_end(self, workspace, vector_files):
        tmp_path, config, out = workspace
        emb, _ = vector_files
        config.write_text(config.read_text() + f"embeddings = {emb}\nmatcher = EMBEDDING\n"
                          "threshold = 0.9\n")
        assert cli.main(["--config", str(config), "match"]) == 0
        lines = [json.loads(l) for l in (out / "matches.jsonl").read_text().splitlines()]
        by_id = {l["tweet_id"]: l for l in lines}
        assert by_id["t1"]["article_id"] == "a1"
        assert by_id["t2"]["article_id"] == "a2"
        # t3 is fully out of vocabulary: flagged path, never matched
        assert by_id["t3"]["label"] == "NONRUMOR" and by_id["t3"]["score"] == 0.0

    def test_docvec_matcher_uses_tweet_id_vectors(self, workspace, vector_files):
        tmp_path, config, out = workspace
        _, dv = vector_files
        config.write_text(config.read_text() + f"doc_vectors = {dv}\nmatcher = DOCVEC\n"
                          "threshold = 0.5\n")
        assert cli.main(["--config", str(config), "match"]) == 0
        lines = [json.loads(l) for l in (out / "matches.jsonl").read_text().splitlines()]
        by_id = {l["tweet_id"]: l for l in lines}
        assert by_id["t1"]["article_id"] == "a1"
        assert by_id["t2"]["article_id"] == "a2"
        assert by_id["t3"]["article_id"] == "a3"
        assert by_id["t4"]["article_id"] == "a3"

    def test_saved_index_does_not_reorder_embedding_articles(self, workspace, vector_files):
        # article ids come from the articles embedded, not from a saved index
        tmp_path, config, out = workspace
        emb, _ = vector_files
        assert cli.main(["--config", str(config), "index"]) == 0
        write_jsonl(tmp_path / "articles.jsonl", ARTICLES[::-1])
        config.write_text(config.read_text() + f"embeddings = {emb}\nmatcher = EMBEDDING\n"
                          f"threshold = 0.5\nindex_path = {out / 'index.rmix'}\n")
        assert cli.main(["--config", str(config), "match"]) == 0
        lines = [json.loads(l) for l in (out / "matches.jsonl").read_text().splitlines()]
        by_id = {l["tweet_id"]: l for l in lines}
        assert by_id["t1"]["article_id"] == "a1"
        assert by_id["t4"]["article_id"] == "a3"

    def test_docvec_reads_its_vector_file_once(self, workspace, vector_files, monkeypatch):
        tmp_path, config, out = workspace
        _, dv = vector_files
        config.write_text(config.read_text() + f"doc_vectors = {dv}\nmatcher = DOCVEC\n")
        calls = []
        load = cli.matchers.load_embeddings
        monkeypatch.setattr(cli.matchers, "load_embeddings",
                            lambda path: calls.append(path) or load(path))
        assert cli.main(["--config", str(config), "match"]) == 0
        assert calls == [str(dv)]

    def test_docvec_tweet_without_a_vector_is_undefined(self, workspace, tmp_path):
        # t3 has no vector and t4 an all-zero one: neither is a rumor, even at -inf
        _, config, out = workspace
        dv = tmp_path / "docs.vec"
        dv.write_text("5 2\na1 1 0\na2 0 1\na3 1 1\nt1 1 0.1\nt4 0 0\n")
        config.write_text(config.read_text() + f"doc_vectors = {dv}\nmatcher = DOCVEC\n")
        assert cli.main(["--config", str(config), "--threshold=-inf", "match"]) == 0
        lines = [json.loads(l) for l in (out / "matches.jsonl").read_text().splitlines()]
        by_id = {l["tweet_id"]: l for l in lines}
        assert by_id["t1"]["article_id"] == "a1" and by_id["t1"]["label"] == "RUMOR"
        for tid in ("t3", "t4"):
            assert by_id[tid] == {"tweet_id": tid, "article_id": None, "score": 0.0,
                                  "label": "NONRUMOR"}

    @pytest.mark.parametrize("matcher", ["EMBEDDING", "DOCVEC"])
    def test_no_articles_exit_3(self, workspace, vector_files, matcher):
        tmp_path, config, out = workspace
        emb, dv = vector_files
        (tmp_path / "articles.jsonl").write_text("")
        config.write_text(config.read_text() + f"embeddings = {emb}\ndoc_vectors = {dv}\n")
        assert cli.main(["--config", str(config), "--matcher", matcher, "match"]) == cli.EXIT_EMPTY

    def test_identify_all_includes_embedding_matchers(self, workspace, vector_files):
        tmp_path, config, out = workspace
        emb, dv = vector_files
        config.write_text(config.read_text()
                          + f"embeddings = {emb}\ndoc_vectors = {dv}\n")
        assert cli.main(["--config", str(config), "--matcher", "ALL",
                         "eval", "identify"]) == 0
        with open(out / "identification.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["matcher"] for r in rows] == ["TFIDF", "BM25", "EMBEDDING", "DOCVEC"]

    def test_identify_all_gives_each_matcher_its_own_row(self, workspace, vector_files):
        # t5's label names a2, which BM25 does not rank first and DOCVEC cannot name (t5
        # has no vector), so the accuracies differ from one matcher to the next while ALL
        # scores every matcher into the same result set
        tmp_path, config, out = workspace
        emb, dv = vector_files
        write_jsonl(tmp_path / "tweets.jsonl", TWEETS + [
            {"id": "t5", "user_id": "u2", "group": "TRUMP_FOLLOWER", "timestamp": 1462060804,
             "text": "trump trump clinton hoax"}])
        write_jsonl(tmp_path / "labels.jsonl",
                    LABELS + [{"tweet_id": "t5", "label": "RUMOR", "article_id": "a2"}])
        config.write_text(config.read_text() + f"embeddings = {emb}\ndoc_vectors = {dv}\n")
        lines = {}
        for matcher in ("ALL", *cli.VECTOR_MATCHERS):
            assert cli.main(["--config", str(config), "--matcher", matcher,
                             "eval", "identify"]) == 0
            lines[matcher] = (out / "identification.csv").read_text().splitlines()
        assert lines["ALL"] == [lines["TFIDF"][0]] + [lines[m][1] for m in cli.VECTOR_MATCHERS]
        assert [line.split(",")[1:] for line in lines["ALL"][1:]] == [
            ["1.0", "4"], ["0.75", "4"], ["1.0", "4"], ["0.75", "4"]]

    @pytest.mark.parametrize("matcher,key",[("EMBEDDING", "embeddings"),
                                             ("DOCVEC", "doc_vectors")])
    def test_identify_named_matcher_without_its_file_exit_2(self, workspace, capsys, matcher,
                                                             key):
        # ALL skips a vector matcher without its file; a named one is an input error
        _, config, out = workspace
        assert cli.main(["--config", str(config), "--matcher", matcher,
                         "eval", "identify"]) == cli.EXIT_INPUT
        assert f"no {key} path configured" in capsys.readouterr().err
        assert not (out / "identification.csv").exists()


class TestEvalCommand:
    def test_classify_separable_fixture(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "eval", "classify"]) == 0
        with open(out / "max_f1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["f1"]) == 1.0
        assert (out / "pr_curve.csv").exists()

    def test_identify_accuracy_one(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "eval", "identify"]) == 0
        with open(out / "identification.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"matcher": "BM25", "accuracy": "1.0", "n_evaluated": "3"}]

    def test_identify_all_runs_both_term_matchers(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "--matcher", "ALL",
                         "eval", "identify"]) == 0
        with open(out / "identification.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["matcher"] for r in rows] == ["TFIDF", "BM25"]
        assert all(float(r["accuracy"]) == 1.0 for r in rows)

    def test_identify_lexicon_exit_2(self, workspace, capsys):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "--matcher", "LEXICON",
                         "eval", "identify"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert all(name in err for name in ("TFIDF", "BM25", "EMBEDDING", "DOCVEC", "ALL"))
        assert not (out / "identification.csv").exists()

    def test_classify_without_nonrumor_labels_exit_4(self, workspace, capsys):
        tmp_path, config, out = workspace
        write_jsonl(tmp_path / "labels.jsonl", [l for l in LABELS if l["label"] == "RUMOR"])
        assert cli.main(["--config", str(config), "eval", "classify"]) == cli.EXIT_EVAL
        assert capsys.readouterr().err.startswith("error: sweep needs at least one RUMOR")
        assert not (out / "pr_curve.csv").exists() and not (out / "max_f1.csv").exists()

    def test_classify_with_nan_scores_ends(self, workspace, vector_files):
        # a nan component makes t4's EMBEDDING score NaN: never a RUMOR, never a threshold
        tmp_path, config, out = workspace
        emb, _ = vector_files
        emb.write_text(emb.read_text().replace("true 0 0 1", "true nan 0 1"))
        config.write_text(config.read_text() + f"embeddings = {emb}\nthreshold = 0.5\n")
        assert cli.main(["--config", str(config), "--matcher", "EMBEDDING", "match"]) == 0
        assert '"tweet_id": "t4", "article_id": null, "score": NaN' in (
            out / "matches.jsonl").read_text()
        with deadline(2):
            assert cli.main(["--config", str(config), "--matcher", "EMBEDDING",
                             "eval", "classify"]) == 0
        rows = (out / "pr_curve.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["threshold", "1.0", "0.0", "-inf"]
        # t4, a RUMOR label, stays negative at -inf: recall 2/3
        assert rows[-1] == "-inf," + ",".join([repr(2 / 3)] * 3)

    def test_classify_lexicon_fixed_point(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "--matcher", "LEXICON",
                         "eval", "classify"]) == 0
        lines = (out / "pr_curve.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("fixed,")


# ids over a small alphabet share prefixes and differ only in case, a trailing
# space or a non-ASCII letter; streamed ids are label ids or others
LABEL_ID = st.text(alphabet="aAb é\U0001f600", max_size=4)


@st.composite
def labels_and_stream(draw):
    label_ids = draw(st.lists(LABEL_ID, unique=True, max_size=12))
    streamed = st.sampled_from(label_ids) | LABEL_ID if label_ids else LABEL_ID
    return label_ids, draw(st.lists(streamed, max_size=16))


def assert_positions_match_a_dict(label_ids, streamed):
    where = {tid: i for i, tid in enumerate(label_ids)}
    js, found = cli.LabeledResults(
        [LabeledTweet(tid, Label.NONRUMOR) for tid in label_ids]).positions(streamed)
    assert list(zip(js.tolist(), found.tolist())) == [
        (j, where[tid]) for j, tid in enumerate(streamed) if tid in where]


class TestLabeledResults:
    LABELS = [LabeledTweet("t2", Label.RUMOR, "a2"), LabeledTweet("t9", Label.NONRUMOR),
              LabeledTweet("t1", Label.RUMOR, "a1")]

    def test_results_go_to_their_label(self):
        results = cli.LabeledResults(self.LABELS)
        results.add_block(["t0", "t1", "t3"], [0, 1, 2], [0.5, 1.5, 2.5], [False, True, True])
        results.add_block(["t2"], [2], [3.5], [True])
        assert results.scores.tolist() == [3.5, 0.0, 1.5]
        assert results.ordinals.tolist() == [2, 0, 1]
        assert (results.rumor.tolist(), results.seen.tolist()) == (
            [True, False, True], [True, False, True])
        seen = {l.tweet_id: s for l, s, v in zip(self.LABELS, results.scores.tolist(),
                                                 results.seen.tolist()) if v}
        assert seen == {"t2": 3.5, "t1": 1.5}
        # the evaluations read the arrays in label order
        curve = evaluation.sweep(results.scores, self.LABELS).points
        assert list(curve) == list(evaluation.sweep([3.5, 0.0, 1.5], self.LABELS).points)
        best = cli._rumor_articles(["a0", "a1", "a2"], results.ordinals.tolist(),
                                   results.rumor.tolist())
        assert best == ["a2", None, "a1"]
        assert evaluation.identification_accuracy(best, self.LABELS) == 1.0
        with pytest.raises(errors.DanglingTweetRefError, match="t9"):
            results.check_seen()
        tweets = [make_tweet(f"t{i}", "x") for i in range(12)]
        assert [t.id for t in results.select(tweets)] == ["t1", "t2", "t9"]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(labels_and_stream())
    @example(([], ["a", ""]))
    def test_positions_match_a_dict(self, case):
        assert_positions_match_a_dict(*case)

    def test_labels_and_results_hold_numbers_per_label(self, tmp_path):
        # 20k labels, half RUMOR over 1,723 articles, and their results from a stream of
        # 40k tweets whose ids are made as it runs: about 0.87 MB of labels (the id bytes,
        # their offsets, sorted keys and positions, a bool and an int32 per label) and
        # 0.29 MB of results, 1.16 MB in all. A slotted LabeledTweet and an id string per
        # label, with a dict of label positions, held about 3.9 MB; LabeledTweets that each
        # held their own article id string, a set of the labeled ids and a dict of
        # (article_id, score, rumor) tuples keyed by the stream's ids held about 9.7 MB
        rng = random.Random(23)
        article_ids = [f"article-{i:04d}" for i in range(1723)]
        ids = rng.sample(range(10**17, 10**18), 40_000)
        write_jsonl(tmp_path / "labels.jsonl", [
            {"tweet_id": str(tid), "label": "RUMOR", "article_id": rng.choice(article_ids)}
            if i % 2 else {"tweet_id": str(tid), "label": "NONRUMOR"}
            for i, tid in enumerate(ids[:20_000])])
        rng.shuffle(ids)
        tracemalloc.start()
        try:
            labels = corpus.read_labels(tmp_path / "labels.jsonl", article_ids)
            results = cli.LabeledResults(labels)
            for start in range(0, len(ids), cli.BLOCK):
                block = [str(tid) for tid in ids[start:start + cli.BLOCK]]
                results.add_block(block, [3] * len(block), [0.25] * len(block),
                                  [True] * len(block))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert results.seen.all()
        assert len({id(l.article_id) for l in labels if l.article_id}) <= 1723
        assert retained < 1.45e6


class TestLabelKeyCollisions:
    """With every id key equal, a label is still found by its own id only: a
    streamed id that is not a label's finds none."""

    @pytest.fixture(autouse=True, scope="class")
    def one_key(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus, "_id_key", lambda tid: 7)
            yield

    LABELS = TestLabeledResults.LABELS
    test_results_go_to_their_label = TestLabeledResults.test_results_go_to_their_label

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(labels_and_stream())
    @example(([], ["a", ""]))
    def test_positions_match_a_dict(self, case):
        assert_positions_match_a_dict(*case)

    def test_keys_collide(self):
        labels = corpus.LabelSet.of(self.LABELS)
        assert labels._keys.tolist() == [7, 7, 7]
        js, found = labels.positions(["t0", "t1", "t9", "t2", "t1 "])
        assert (js.tolist(), found.tolist()) == ([1, 2, 3], [2, 1, 0])


class TestAnalyzeCommand:
    def test_requires_matches_file(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "analyze", "ratio"]) == 2

    def test_emits_selected_csvs(self, workspace):
        tmp_path, config, out = workspace
        cli.main(["--config", str(config), "match"])
        assert cli.main(["--config", str(config), "analyze",
                         "ratio", "users", "timeline"]) == 0
        assert (out / "group_ratio.csv").exists()
        assert (out / "concentration.csv").exists()
        assert (out / "user_ranking.csv").exists()
        assert (out / "timeline.csv").exists()

    def test_ratio_csv_shape(self, workspace):
        tmp_path, config, out = workspace
        cli.main(["--config", str(config), "match"])
        cli.main(["--config", str(config), "analyze", "ratio"])
        with open(out / "group_ratio.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 2 groups x {entire, election}
        assert len(rows) == 4
        assert {r["window"] for r in rows} == {"entire", "election"}

    def test_attribution_csv(self, workspace):
        tmp_path, config, out = workspace
        cli.main(["--config", str(config), "match"])
        assert cli.main(["--config", str(config), "analyze", "attribution"]) == 0
        with open(out / "attribution.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["subject"] for r in rows} == {"CLINTON", "TRUMP"}

    def test_no_names_runs_every_analysis(self, workspace, tmp_path):
        _, config, out = workspace
        config.write_text(config.read_text() + "keywords = clinton, hoax\n")
        assert cli.main(["--config", str(config), "match"]) == 0
        named = tmp_path / "named"
        named.mkdir()
        (named / "matches.jsonl").write_bytes((out / "matches.jsonl").read_bytes())
        assert cli.main(["--config", str(config), "--out", str(named),
                         "analyze", *cli.ANALYSES]) == 0
        assert cli.main(["--config", str(config), "analyze"]) == 0
        names = sorted(p.name for p in named.iterdir())
        assert names == sorted(p.name for p in out.iterdir())
        assert len(names) == 7  # matches.jsonl and six CSVs
        for name in names:
            assert (out / name).read_bytes() == (named / name).read_bytes(), name

    def test_unknown_analysis_exit_2(self, workspace, capsys):
        _, config, out = workspace
        assert cli.main(["--config", str(config), "match"]) == 0
        assert cli.main(["--config", str(config), "analyze", "ratio", "bogus"]) == cli.EXIT_INPUT
        assert "'bogus'" in capsys.readouterr().err
        assert not (out / "group_ratio.csv").exists()

    def test_bad_matches_line_exit_2(self, workspace, capsys):
        _, config, out = workspace
        out.mkdir()
        for line, named in [('{"tweet_id": "t1"}', "'label'"),
                            ('{"tweet_id": ["x"], "label": "RUMOR"}', "got ['x']"),
                            ('{"tweet_id": 1, "label": "RUMOR"}', "got 1"),
                            ('{"tweet_id": "t1", "label": "RUMOR", "article_id": ["a1"]}',
                             "article_id must be a string, got ['a1']"),
                            ('{"tweet_id": "t1", "label": "RUMOUR"}',
                             "label must be RUMOR or NONRUMOR, got 'RUMOUR'"),
                            ('{"tweet_id": "t1", "label": 5}',
                             "label must be RUMOR or NONRUMOR, got 5")]:
            (out / "matches.jsonl").write_text('{"tweet_id": "t1", "label": "NONRUMOR"}\n'
                                               + line + "\n")
            assert cli.main(["--config", str(config), "analyze", "ratio"]) == cli.EXIT_INPUT
            err = capsys.readouterr().err
            assert f"{out / 'matches.jsonl'}:2: malformed line:" in err and named in err

    def test_rumor_line_for_unknown_tweet_exit_2(self, workspace, capsys):
        _, config, out = workspace
        out.mkdir()
        (out / "matches.jsonl").write_text(
            '{"tweet_id": "t1", "label": "NONRUMOR"}\n'
            '{"tweet_id": "t9", "article_id": "a1", "score": 3.0, "label": "RUMOR"}\n')
        assert cli.main(["--config", str(config), "analyze", "ratio"]) == cli.EXIT_INPUT
        assert "'t9'" in capsys.readouterr().err
        assert not (out / "group_ratio.csv").exists()

    def test_negative_top_n_exit_2(self, workspace, capsys):
        _, config, out = workspace
        assert cli.main(["--config", str(config), "match"]) == 0
        config.write_text(config.read_text() + "top_n = -1\n")
        assert cli.main(["--config", str(config), "analyze", "users"]) == cli.EXIT_INPUT
        assert "top_n" in capsys.readouterr().err
        assert not (out / "user_ranking.csv").exists()

    @pytest.mark.parametrize("edit,line_no,named", [
        pytest.param(lambda lines: [nonrumor_line(f"s{i}") for i in range(1, 5)], 1, "'s1'",
                     id="stale-nonrumor-file"),
        pytest.param(lambda lines: [lines[0], lines[2], lines[1], lines[3]], 2, "'t3'",
                     id="two-lines-swapped"),
        pytest.param(lambda lines: lines[:3], 4, "'t4'", id="one-line-short"),
        pytest.param(lambda lines: lines + [nonrumor_line("t5")], 5, "'t5'",
                     id="one-line-long"),
    ])
    def test_matches_out_of_step_with_tweets_exit_2(self, workspace, capsys, edit, line_no,
                                                    named):
        _, config, out = workspace
        assert cli.main(["--config", str(config), "match"]) == 0
        path = out / "matches.jsonl"
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
        assert cli.main(["--config", str(config), "analyze"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}:{line_no}: malformed line:" in err and named in err
        assert [p.name for p in out.iterdir()] == ["matches.jsonl"]

    def test_memory_does_not_grow_with_matches_lines(self, tmp_path):
        # every line RUMOR from five users: only the 8-byte seen-id keys grow with the lines
        with open(tmp_path / "tweets.jsonl", "w") as tweets, \
                open(tmp_path / "matches.jsonl", "w") as matches:
            for i in range(30_000):
                tid = 700000000000000000 + i
                tweets.write(f'{{"id": "{tid}", "user_id": "u{i % 5}", "group": "OTHER", '
                             f'"timestamp": 1462060800, "text": "x"}}\n')
                matches.write(f'{{"tweet_id": "{tid}", "article_id": "a{i % 3}", '
                              f'"score": 2.5, "label": "RUMOR"}}\n')
        config = cli.RunConfig(tweets=str(tmp_path / "tweets.jsonl"), out=str(tmp_path),
                               quiet=True)
        tracemalloc.start()
        try:
            cli.cmd_analyze(config, lambda path: path, ["ratio", "users", "timeline"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_timeline_of_max_bins_holds_a_count_per_bin(self, tmp_path):
        # 10**6 minute bins and one rumor, in the last bin: the counts are one int64 array
        # (8 MB) and each row is made as it is written. A (start, count) tuple per bin,
        # then a row per bin and a list of counts for detect_peaks raised the max RSS
        # of the process by about 140 MB
        start = analysis.ELECTION_WINDOW.start
        config = cli.RunConfig(out=str(tmp_path), window_start=start,
                               window_end=start + 60 * analysis.MAX_BINS, bin_width=60)
        acc = cli._accumulator(config, ["timeline"])
        acc.add_block([make_tweet("t1", "x", ts=config.window_end - 1)], [True], [None])
        tracemalloc.start()
        try:
            cli._write_analyses(config, lambda path: path, acc, ["timeline"], None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * analysis.MAX_BINS
        with open(tmp_path / "timeline.csv", encoding="utf-8") as fh:
            rows = list(itertools.islice(csv.reader(fh), 3))
            *_, last = fh
        assert rows == [["bin_start_iso8601", "count", "is_peak"],
                        ["2016-04-01T00:00:00Z", "0", "false"],
                        ["2016-04-01T00:01:00Z", "0", "false"]]
        assert last == "2018-02-24T10:39:00Z,1,true\n"


class TestReproducibility:
    @pytest.fixture
    def zipf_workspace(self, tmp_path):
        """A corpus large enough that float summation order shows in the scores."""
        rng = random.Random(0x5EED5)
        vocab = [f"w{i:03d}" for i in range(400)]
        weights = [1.0 / (i + 1) for i in range(400)]
        write_jsonl(tmp_path / "articles.jsonl", [
            {"id": f"a{i}", "title": "", "body": " ".join(rng.choices(vocab, weights, k=60))}
            for i in range(300)
        ])
        write_jsonl(tmp_path / "tweets.jsonl", [
            {"id": f"t{i}", "user_id": "u", "group": "OTHER", "timestamp": 1462060800 + i,
             "text": " ".join(rng.choices(vocab, weights, k=10))}
            for i in range(3000)
        ])
        config = tmp_path / "run.conf"
        config.write_text(
            f"tweets = {tmp_path / 'tweets.jsonl'}\n"
            f"articles = {tmp_path / 'articles.jsonl'}\n"
            "threshold = 5.0\njobs = 1\nquiet = true\n"
        )
        return tmp_path, config

    @pytest.mark.parametrize("matcher", ["BM25", "TFIDF"])
    def test_hash_seed_does_not_change_bytes(self, zipf_workspace, matcher):
        tmp_path, config = zipf_workspace
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"out{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run(
                [sys.executable, "-m", "rumormatch.cli", "--config", str(config),
                 "--matcher", matcher, "--out", str(out), "match"],
                env=env, check=True, timeout=120,
            )
            outputs.append((out / "matches.jsonl").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 3000

    @pytest.fixture
    def zipf_vectors(self, zipf_workspace):
        """Seeded 64-dim word vectors and article/tweet doc vectors for the zipf
        corpus, added to its config; every eleventh key has no vector and every
        thirteenth an all-zero one."""
        tmp_path, config = zipf_workspace
        rng = random.Random(0x64D)

        def write(path, keys):
            rows = [key + " " + " ".join(
                        "0.0" if i % 13 == 12 else repr(rng.gauss(0, 1)) for _ in range(64))
                    for i, key in enumerate(keys) if i % 11 != 10]
            path.write_text(f"{len(rows)} 64\n" + "".join(row + "\n" for row in rows))

        write(tmp_path / "words.vec", [f"w{i:03d}" for i in range(400)])
        write(tmp_path / "docs.vec", [f"a{i}" for i in range(300)] + [f"t{i}" for i in range(3000)])
        config.write_text(config.read_text() + f"embeddings = {tmp_path / 'words.vec'}\n"
                          f"doc_vectors = {tmp_path / 'docs.vec'}\n")
        return tmp_path, config

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
    @pytest.mark.parametrize("matcher", ["EMBEDDING", "DOCVEC"])
    def test_blas_core_type_does_not_change_bytes(self, zipf_vectors, matcher):
        tmp_path, config = zipf_vectors
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text("".join(tweets.read_text().splitlines(keepends=True)[:300]))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for core in ("Prescott", None):
            out = tmp_path / f"out-{core}"
            env = dict(os.environ,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            env.pop("OPENBLAS_CORETYPE", None)
            if core:
                env["OPENBLAS_CORETYPE"] = core
            subprocess.run(
                [sys.executable, "-m", "rumormatch.cli", "--config", str(config),
                 "--matcher", matcher, "--threshold", "0.1", "--out", str(out), "match"],
                env=env, check=True, timeout=120,
            )
            outputs.append((out / "matches.jsonl").read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 300 and b'"RUMOR"' in outputs[0]

    @pytest.mark.parametrize("matcher", ["BM25", "TFIDF", "EMBEDDING", "DOCVEC", "LEXICON"])
    def test_block_size_does_not_change_bytes(self, zipf_vectors, matcher, monkeypatch):
        tmp_path, config = zipf_vectors
        results = []
        for block in (1, 7, cli.BLOCK):
            monkeypatch.setattr(cli, "BLOCK", block)
            out = tmp_path / f"block{block}"
            assert cli.main(["--config", str(config), "--matcher", matcher,
                             "--out", str(out), "match"]) == 0
            results.append((out / "matches.jsonl").read_bytes())
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_chunk_and_block_do_not_change_bytes(self, zipf_workspace, monkeypatch, jobs):
        tmp_path, config = zipf_workspace
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text("".join(tweets.read_text().splitlines(keepends=True)[:250]))
        results = {}
        for chunk in (1, 7, 100):
            for block in (1, 3, 64):
                monkeypatch.setattr(cli, "CHUNK", chunk)
                monkeypatch.setattr(cli, "BLOCK", block)
                out = tmp_path / f"c{chunk}b{block}j{jobs}"
                assert cli.main(["--config", str(config), "--jobs", str(jobs),
                                 "--out", str(out), "match"]) == 0
                results[chunk, block] = (out / "matches.jsonl").read_bytes()
        assert len(set(results.values())) == 1
        assert results[1, 1].count(b"\n") == 250


def index_payload(**changes) -> bytes:
    """A well-formed index file after its version byte (two articles, two
    terms): the header line, then the arrays as little-endian int64. A
    change to indptr, ordinals or counts replaces that array."""
    arrays = {"indptr": [0, 1, 2], "ordinals": [0, 1], "counts": [1, 1]}
    header = {"article_ids": ["a1", "a2"], "terms": ["x", "y"], "tokenizer": {},
              "articles_sha256": None}
    for key, value in changes.items():
        (arrays if key in arrays else header)[key] = value
    return json.dumps(header).encode() + b"\n" + b"".join(
        np.array(arrays[k], dtype="<i8").tobytes() for k in ("indptr", "ordinals", "counts"))


class TestInputErrors:
    @pytest.mark.parametrize("data", [b"", b"RM", b"RMIX"])
    def test_truncated_index_exit_2(self, workspace, data, capsys):
        tmp_path, config, out = workspace
        index = tmp_path / "short.rmix"
        index.write_bytes(data)
        config.write_text(config.read_text() + f"index_path = {index}\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert "not a rumormatch index file" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,reason", [
        pytest.param(b'{"terms": []}\n', "KeyError('article_ids')", id='{"terms": []}'),
        pytest.param(b"[]\n", "TypeError('list indices", id="[]"),
        pytest.param(index_payload(terms={"x": 0, "y": 1}),
                     "article_ids and terms must be lists", id="wrong-type-terms"),
        pytest.param(b"\xff\n", "UnicodeDecodeError", id="\xff"),
        pytest.param(index_payload().replace(b"\n", b" "), "no LF ends the header line",
                     id="no-header-end"),
        pytest.param(index_payload()[:-40], "2 array values, want 3", id="short-tail"),
        pytest.param(index_payload() + bytes(8), "8 array values, want 7", id="long-tail"),
        pytest.param(index_payload() + bytes(3), "59 bytes of arrays, not a multiple of 8",
                     id="tail-not-a-multiple-of-8"),
        pytest.param(index_payload(ordinals=[0, 2]), "ordinal out of range",
                     id="ordinal-past-last-article"),
        pytest.param(index_payload(indptr=[0, 2, 1], ordinals=[0], counts=[1]),
                     "indptr must start at 0 and rise", id="falling-indptr"),
        # len(terms) + 1 values are read as indptr, so one of another length leaves
        # the tail too long or too short
        pytest.param(index_payload(indptr=[0, 2]), "6 array values, want 3",
                     id="indptr-terms-lengths-differ"),
        pytest.param(index_payload(counts=[1]), "6 array values, want 7",
                     id="ordinals-counts-lengths-differ"),
        pytest.param(index_payload(terms=["x", "x"]), "duplicate term", id="duplicate-term"),
        pytest.param(index_payload(article_ids=["a1", "a1"]), "duplicate article id",
                     id="duplicate-article-id"),
        pytest.param(index_payload(indptr=[0, 2, 2], ordinals=[1, 0]),
                     "ordinals must rise within each term", id="falling-ordinals"),
        pytest.param(index_payload(article_ids=[1, 2]), "article ids and terms must be strings",
                     id="int-article-ids"),
        pytest.param(index_payload(terms=[1, 2]), "article ids and terms must be strings",
                     id="int-terms"),
        pytest.param(index_payload(counts=[0, 1]), "every count must be 1 or more",
                     id="zero-count"),
        pytest.param(index_payload(counts=[1, -5]), "every count must be 1 or more",
                     id="negative-count"),
        pytest.param(index_payload(article_ids=[], terms=[], indptr=[0], ordinals=[], counts=[]),
                     "no articles", id="no-articles"),
    ])
    def test_malformed_index_payload_exit_2(self, workspace, payload, reason, capsys):
        tmp_path, config, out = workspace
        index = tmp_path / "malformed.rmix"
        index.write_bytes(cli.INDEX_MAGIC + bytes([cli.INDEX_VERSION]) + payload)
        config.write_text(config.read_text() + f"index_path = {index}\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "malformed index payload" in err and reason in err

    def test_index_without_postings_loads(self, tmp_path):
        # no terms: the arrays are indptr [0] alone
        index = tmp_path / "empty.rmix"
        index.write_bytes(cli.INDEX_MAGIC + bytes([cli.INDEX_VERSION])
                          + index_payload(terms=[], indptr=[0], ordinals=[], counts=[]))
        loaded = cli.load_index(index)
        assert (loaded.n_articles, len(loaded.ordinals), loaded.doc_len.tolist()) == (2, 0, [0, 0])

    def test_short_vector_row_exit_2(self, workspace, capsys):
        tmp_path, config, out = workspace
        emb = tmp_path / "short.vec"
        emb.write_text("2 3\nclinton 1 0 0\ntrump 0 1\n")
        config.write_text(config.read_text() + f"embeddings = {emb}\nmatcher = EMBEDDING\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "expected 3 components, got 2" in err and "internal" not in err

    @pytest.mark.parametrize("matcher,key,text,where", [
        ("EMBEDDING", "embeddings", "2 3\nclinton 1 0 0\ntrump 0 one 0\n", 3),
        ("EMBEDDING", "embeddings", "2 three\nclinton 1 0 0\n", 1),
        ("DOCVEC", "doc_vectors", "2 2\na1 1 0\nt1 0 x\n", 3),
    ])
    def test_bad_vector_file_exit_2_naming_the_line(self, workspace, capsys, matcher, key, text,
                                                     where):
        tmp_path, config, out = workspace
        vec = tmp_path / "bad.vec"
        vec.write_text(text)
        config.write_text(config.read_text() + f"{key} = {vec}\nmatcher = {matcher}\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vec}:{where}: ") and "internal" not in err

    # input: (its file in the workspace, config lines that make the command read it, command)
    BAD_BYTE_INPUTS = {
        "tweets": ("tweets.jsonl", "", ["match"]),
        "articles": ("articles.jsonl", "", ["index"]),
        "labels": ("labels.jsonl", "", ["eval", "classify"]),
        "matches": ("out/matches.jsonl", "", ["analyze"]),
        "embeddings": ("words.vec", "embeddings = {}\nmatcher = EMBEDDING\n", ["match"]),
        "stopwords": ("stop.txt", "stopwords = {}\n", ["match"]),
        "lexicon": ("lexicon.txt", "lexicon = {}\nmatcher = LEXICON\n", ["match"]),
        "config": ("run.conf", "", ["match"]),
    }

    @pytest.mark.parametrize("kind", list(BAD_BYTE_INPUTS))
    def test_bad_byte_exit_2_naming_its_line(self, workspace, vector_files, capsys, kind):
        tmp_path, config, out = workspace
        name, lines, command = self.BAD_BYTE_INPUTS[kind]
        bad = tmp_path / name
        (tmp_path / "stop.txt").write_text("# words\nthe\nof\n")
        (tmp_path / "lexicon.txt").write_text("# phrases\nis it true\nhoax\n")
        config.write_text(config.read_text() + lines.format(bad))
        if kind == "matches":
            assert cli.main(["--config", str(config), "match"]) == 0
        first, second, rest = bad.read_bytes().split(b"\n", 2)
        bad.write_bytes(b"\n".join([first, second[:1] + b"\xff" + second[1:], rest]))
        capsys.readouterr()
        assert cli.main(["--config", str(config), *command]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {bad}:2: malformed line: 'utf-8' codec can't decode byte 0xff in "
            "position 1: invalid start byte\n")

    def test_bad_lexicon_pattern_exit_2_naming_its_line(self, workspace, capsys):
        tmp_path, config, out = workspace
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("# phrases\nhoax\n  is it (true\n")
        config.write_text(config.read_text() + f"lexicon = {lexicon}\nmatcher = LEXICON\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {lexicon}:3: malformed line: missing ), unterminated subpattern at "
            "position 6\n")

    def test_out_under_a_regular_file_exit_2(self, workspace, capsys):
        tmp_path, config, out = workspace
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert cli.main(["--config", str(config), "--out", str(blocker / "out"),
                         "match"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")


# one instance of each concrete error class, with the exit code README.md gives it
EXIT_CODES = [
    (errors.MalformedLineError("tweets.jsonl", 3, "empty id"), 2),
    (errors.DuplicateIdError("tweets.jsonl", 3, "t1"), 2),
    (errors.DanglingTweetRefError("t9"), 2),
    (errors.IndexFormatError("index.rmix: bad header"), 2),
    (errors.IndexMismatchError("index.rmix: other articles"), 2),
    (errors.DimMismatchError("query vectors have dim 2"), 2),
    (errors.EmptyCorpusError("no articles"), 3),
    (errors.AllEmptyAfterTokenizeError("every article is empty"), 3),
    (errors.EmptyDenominatorError("no tweets in the window"), 3),
    (errors.NoRumorsError("no rumor tweets"), 3),
    (errors.ZeroArticlesForSubjectError("TRUMP"), 3),
    (errors.DegenerateLabelsError("one label class"), 4),
    (errors.NoRumorLabelsError("no RUMOR labels"), 4),
    (errors.EmptyScoresError("no scores"), 1),
]


class TestExitCodes:
    def test_table_covers_every_concrete_error(self):
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.RumorMatchError)]
        concrete = {c for c in classes if not any(c in d.__bases__ for d in classes)}
        assert {type(exc) for exc, _ in EXIT_CODES} == concrete

    @pytest.mark.parametrize("exc,code", EXIT_CODES,
                             ids=[type(exc).__name__ for exc, _ in EXIT_CODES])
    def test_main_maps_each_error_to_its_code(self, workspace, monkeypatch, capsys, exc, code):
        _, config, _ = workspace

        def fail(config, stage):
            raise exc
        monkeypatch.setattr(cli, "cmd_index", fail)
        assert cli.main(["--config", str(config), "index"]) == code
        prefix = "internal error: " if code == cli.EXIT_INTERNAL else "error: "
        assert capsys.readouterr().err == f"{prefix}{exc}\n"


class TestAllCommand:
    @pytest.mark.parametrize("matcher,jobs", [("BM25", 1), ("BM25", 2), ("TFIDF", 2),
                                              ("LEXICON", 1), ("EMBEDDING", 1), ("DOCVEC", 2)])
    def test_same_bytes_as_the_commands_in_sequence(self, workspace, vector_files, monkeypatch,
                                                    matcher, jobs):
        tmp_path, config, out = workspace
        emb, dv = vector_files
        config.write_text(config.read_text() + "keywords = clinton, Hoax, trump\n"
                          f"embeddings = {emb}\ndoc_vectors = {dv}\n")
        monkeypatch.setattr(cli, "CHUNK", 1)  # several chunks, so that jobs 2 forks workers
        base = ["--config", str(config), "--matcher", matcher, "--threshold", "0.5",
                "--jobs", str(jobs)]
        seq = tmp_path / "seq"
        commands = (["index"], ["match"], ["eval", "classify"], ["analyze"])
        for command in commands:
            assert cli.main(base + ["--out", str(seq)] + command) == 0
        assert cli.main(base + ["all"]) == 0
        names = sorted(p.name for p in seq.iterdir())
        assert names == sorted(p.name for p in out.iterdir())
        assert {"index.rmix", "matches.jsonl", "max_f1.csv", "keywords.csv",
                "timeline.csv"} <= set(names)
        for name in names:
            assert (out / name).read_bytes() == (seq / name).read_bytes(), name

    def test_stemmed_keywords_count_their_stems(self, workspace):
        tmp_path, config, out = workspace
        config.write_text(config.read_text() + "stemming = true\nkeywords = diagnosis, hoaxes\n")
        assert cli.main(["--config", str(config), "all"]) == 0
        assert (out / "keywords.csv").read_text().splitlines() == [
            "keyword,rumor_count,nonrumor_count", "diagnosis,1,0", "hoaxes,1,0"]

    @pytest.mark.parametrize("keyword", ["the", "@cnn", "hillary clinton"])
    def test_keyword_of_no_single_term_exit_2(self, workspace, capsys, keyword):
        tmp_path, config, out = workspace
        config.write_text(config.read_text() + f"keywords = clinton, {keyword}\n")
        assert cli.main(["--config", str(config), "all"]) == cli.EXIT_INPUT
        assert repr(keyword) in capsys.readouterr().err
        assert not (out / "index.rmix").exists() and not (out / "matches.jsonl").exists()

    def test_duplicate_tweet_id_exit_2(self, workspace, capsys):
        tmp_path, config, out = workspace
        write_jsonl(tmp_path / "tweets.jsonl", TWEETS + [TWEETS[1]])
        assert cli.main(["--config", str(config), "all"]) == cli.EXIT_INPUT
        assert "'t2'" in capsys.readouterr().err

    def test_tweet_labeled_twice_exit_2(self, workspace, capsys):
        tmp_path, config, out = workspace
        write_jsonl(tmp_path / "labels.jsonl",
                    LABELS + [{"tweet_id": "t1", "label": "NONRUMOR"}])
        for command in (["all"], ["eval", "classify"]):
            assert cli.main(["--config", str(config), *command]) == cli.EXIT_INPUT
            assert capsys.readouterr().err == (
                f"error: {tmp_path / 'labels.jsonl'}:5: duplicate id 't1'\n")
        assert not out.exists()  # `all` reads the labels before it indexes

    @pytest.mark.parametrize("command", [["all"], ["eval", "classify"], ["eval", "identify"]],
                             ids="-".join)
    def test_dangling_label_exit_2(self, workspace, capsys, command):
        # the first dangling label in file order is named
        tmp_path, config, out = workspace
        write_jsonl(tmp_path / "labels.jsonl", LABELS + [{"tweet_id": "t9", "label": "NONRUMOR"},
                                                         {"tweet_id": "t8", "label": "NONRUMOR"}])
        assert cli.main(["--config", str(config), *command]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "'t9'" in err and "'t8'" not in err


class TestTracedPath:
    """The benchmark's traced run (perfbench/inproc.py) reports build_index and sweep by
    wrapping the module attributes; a command that stopped calling them there would
    leave those metrics at 0 without failing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for module, name in ((cli.matchers, "build_index"), (cli.evaluation, "sweep")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("command,expected", [
        (["all"], ["build_index", "sweep"]),
        (["match"], ["build_index"]),
    ])
    def test_commands_call_the_traced_functions(self, workspace, calls, command, expected):
        _, config, _ = workspace
        assert cli.main(["--config", str(config), "--matcher", "BM25", *command]) == 0
        assert calls == expected


class TestProgress:
    @pytest.mark.parametrize("quiet", [False, True])
    def test_progress_lines_on_stderr(self, workspace, monkeypatch, capsys, quiet):
        tmp_path, config, out = workspace
        config.write_text(config.read_text().replace("quiet = true", f"quiet = {quiet}"))
        monkeypatch.setattr(cli, "PROGRESS_S", 0.0)
        monkeypatch.setattr(cli, "BLOCK", 2)  # the serial stream advances one block at a time
        assert cli.main(["--config", str(config), "match"]) == 0
        lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("matched")]
        assert lines == ([] if quiet else ["matched 2 tweets", "matched 4 tweets"])


class TestAtomicWrites:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_mode_follows_umask(self, workspace, umask, mode):
        tmp_path, config, out = workspace
        old = os.umask(umask)
        try:
            assert cli.main(["--config", str(config), "all"]) == 0
        finally:
            os.umask(old)
        for p in out.iterdir():
            assert stat.S_IMODE(p.stat().st_mode) == mode, p.name


    def test_failure_leaves_nothing_behind(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with cli.atomic_write_text(target) as tmp:
                with open(tmp, "w") as fh:
                    fh.write("partial")
                raise RuntimeError("writer failed")
        assert list(tmp_path.iterdir()) == []

    def test_failed_match_keeps_previous_output(self, workspace, monkeypatch):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "match"]) == 0
        before = (out / "matches.jsonl").read_bytes()

        def fail(scorer, block):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(cli, "_score_block", fail)
        with pytest.raises(RuntimeError):
            cli.main(["--config", str(config), "match"])
        assert (out / "matches.jsonl").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["matches.jsonl"]

    def test_failed_analysis_leaves_no_partial_csv(self, workspace, monkeypatch):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "match"]) == 0

        def fail(fh):
            fh.write("group,window")
            raise OSError("disk full")

        monkeypatch.setattr(cli.csv, "writer", fail)  # fails inside write_csv
        assert cli.main(["--config", str(config), "analyze", "ratio"]) == cli.EXIT_INPUT
        assert sorted(p.name for p in out.iterdir()) == ["matches.jsonl"]

    @pytest.mark.parametrize("command,jobs", [("match", 1), ("match", 2), ("all", 1)])
    def test_duplicate_on_the_last_line_publishes_no_output(self, workspace, monkeypatch, capsys,
                                                            command, jobs):
        # the tweet ids are checked once the file ends, after every tweet was scored
        tmp_path, config, out = workspace
        tweets = tmp_path / "tweets.jsonl"
        monkeypatch.setattr(cli, "CHUNK", 1)  # several chunks, so that jobs 2 forks workers
        args = ["--config", str(config), "--jobs", str(jobs), command]
        write_jsonl(tweets, TWEETS + [dict(TWEETS[2], text="a tweet on the last line")])
        assert cli.main(args) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {tweets}:5: duplicate id 't3'\n"
        indexed = []  # `all` renames index.rmix last, so it is not published either
        assert sorted(p.name for p in out.iterdir()) == indexed

        write_jsonl(tweets, TWEETS)
        assert cli.main(["--config", str(config), "match"]) == 0
        before = (out / "matches.jsonl").read_bytes()
        write_jsonl(tweets, TWEETS + [TWEETS[0]])
        assert cli.main(args) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {tweets}:5: duplicate id 't1'\n"
        assert (out / "matches.jsonl").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == sorted(indexed + ["matches.jsonl"])


def snapshot(out):
    """Each file in ``out`` by name: its bytes and its inode, which a rename into place
    changes even when the bytes are the same."""
    return {p.name: (p.read_bytes(), p.stat().st_ino) for p in out.iterdir()}


def march_tweets(tmp_path, base):
    # every tweet in March 2016, before the election window: no windowed group ratio
    write_jsonl(tmp_path / "tweets.jsonl",
                [dict(t, timestamp=t["timestamp"] - 60 * 86400) for t in TWEETS])
    return base + ["all"]


def duplicate_on_the_last_line(tmp_path, base):
    write_jsonl(tmp_path / "tweets.jsonl", TWEETS + [TWEETS[0]])
    return base + ["all"]


def no_rumor_matched(tmp_path, base):
    assert cli.main(base + ["--threshold", "1000", "match"]) == 0
    return base + ["analyze", "ratio", "users"]


class TestOutputsPublishedTogether:
    """A command's outputs are renamed into place together when it returns, so a
    fault found late in a run publishes none of them."""

    @pytest.mark.parametrize("prepare,code", [
        (march_tweets, cli.EXIT_EMPTY),
        (lambda tmp_path, base: base + ["--threshold", "1000", "all"], cli.EXIT_EMPTY),
        (duplicate_on_the_last_line, cli.EXIT_INPUT),
        (no_rumor_matched, cli.EXIT_EMPTY),
    ], ids=["all-march-tweets", "all-no-rumor", "all-duplicate-id", "analyze-no-rumor"])
    def test_late_fault_keeps_every_byte_of_out(self, workspace, prepare, code):
        tmp_path, config, out = workspace
        base = ["--config", str(config)]
        assert cli.main(base + ["all"]) == 0
        args = prepare(tmp_path, base)
        before = snapshot(out)
        assert cli.main(args) == code
        assert snapshot(out) == before
        assert list(out.glob("*.tmp")) == []

    def test_match_set_up_fault_makes_no_out_directory(self, workspace, capsys):
        # the scorer is set up before matches.jsonl is staged
        _, config, out = workspace
        args = ["--config", str(config), "--matcher", "EMBEDDING", "match"]
        assert cli.main(args) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: no embeddings path configured\n"
        assert not out.exists()

    @staticmethod
    def record_renames(monkeypatch, fail_at=None):
        """The names that os.replace renames into place, in order; rename number
        ``fail_at`` (from 1) raises OSError instead."""
        names, replace = [], os.replace

        def recorded(src, dst):
            if len(names) + 1 == fail_at:
                raise OSError("rename failed")
            replace(src, dst)
            names.append(os.path.basename(dst))

        monkeypatch.setattr(os, "replace", recorded)
        return names

    def test_all_renames_the_index_last(self, workspace, monkeypatch):
        _, config, out = workspace
        renamed = self.record_renames(monkeypatch)
        assert cli.main(["--config", str(config), "all"]) == 0
        assert renamed == ["timeline.csv", "attribution.csv", "user_ranking.csv",
                           "concentration.csv", "group_ratio.csv", "max_f1.csv", "pr_curve.csv",
                           "matches.jsonl", "index.rmix"]
        assert sorted(p.name for p in out.iterdir()) == sorted(renamed)

    def test_fault_while_renaming_keeps_what_was_renamed(self, workspace, monkeypatch, capsys):
        # the outputs renamed before the fault stay published; the others' temp files go
        _, config, out = workspace
        renamed = self.record_renames(monkeypatch, fail_at=2)
        assert cli.main(["--config", str(config), "all"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: rename failed\n"
        assert [p.name for p in out.iterdir()] == renamed == ["timeline.csv"]


class TestStopwordsFile:
    @pytest.fixture
    def loads(self, workspace, monkeypatch):
        tmp_path, config, _ = workspace
        (tmp_path / "stop.txt").write_text("the\nis\nit\nabout\n")
        config.write_text(config.read_text() + f"stopwords = {tmp_path / 'stop.txt'}\n"
                          "keywords = clinton,trump\n")
        calls = []
        load = cli.textpipe.load_stopwords
        monkeypatch.setattr(cli.textpipe, "load_stopwords",
                            lambda path: calls.append(path) or load(path))
        return calls

    @pytest.mark.parametrize("command", [["all"], ["eval", "identify"], ["match"]])
    def test_read_once_per_run(self, workspace, vector_files, loads, command):
        _, config, out = workspace
        emb, dv = vector_files
        config.write_text(config.read_text() + f"embeddings = {emb}\ndoc_vectors = {dv}\n"
                          f"index_path = {out / 'index.rmix'}\n")
        assert cli.main(["--config", str(config), "index"]) == 0  # match loads the saved index
        loads.clear()
        matcher = ["--matcher", "ALL"] if command[0] == "eval" else []
        assert cli.main(["--config", str(config), *matcher, *command]) == 0
        assert len(loads) == 1

    def test_built_anew_when_its_fields_change(self, workspace, loads):
        tmp_path, config, _ = workspace
        (tmp_path / "other.txt").write_text("clinton\n")
        run = cli.build_config(cli.parse_config_file(config), {})
        tok = run.tokenizer_config()
        assert run.tokenizer_config() is tok and len(loads) == 1
        other = dataclasses.replace(run, stopwords=str(tmp_path / "other.txt"))
        assert other.tokenizer_config().stopwords == frozenset({"clinton"})
        assert dataclasses.replace(run).tokenizer_config() == tok
        run.min_token_len = 3
        assert run.tokenizer_config().min_token_len == 3
        assert run.tokenizer_config().stopwords == tok.stopwords


class TestLabelClassesBeforeThePass:
    """A label-class fault needs no tweet: it is raised before any is read or scored."""

    @pytest.fixture
    def unscored(self, monkeypatch):
        def run_match(*args, **kwargs):
            raise AssertionError("run_match called")

        monkeypatch.setattr(cli, "run_match", run_match)

    @pytest.mark.parametrize("matcher,kept,message", [
        ("BM25", "RUMOR", "sweep needs at least one RUMOR and one NONRUMOR label"),
        ("TFIDF", "NONRUMOR", "sweep needs at least one RUMOR and one NONRUMOR label"),
        ("LEXICON", "NONRUMOR", "no RUMOR labels to evaluate against"),
    ])
    @pytest.mark.parametrize("command", [["all"], ["eval", "classify"]])
    def test_exit_4_with_nothing_written(self, workspace, capsys, unscored, matcher, kept,
                                         message, command):
        tmp_path, config, out = workspace
        write_jsonl(tmp_path / "labels.jsonl", [l for l in LABELS if l["label"] == kept])
        assert cli.main(["--config", str(config), "--matcher", matcher,
                         *command]) == cli.EXIT_EVAL
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_lexicon_needs_no_nonrumor_label(self, workspace):
        tmp_path, config, out = workspace
        write_jsonl(tmp_path / "labels.jsonl", [l for l in LABELS if l["label"] == "RUMOR"])
        assert cli.main(["--config", str(config), "--matcher", "LEXICON", "all"]) == 0
        assert (out / "max_f1.csv").exists()


class TestInputFaultsBeforeThePass:
    """A fault that the articles or the labels show is raised before any
    tweet is read: out/ keeps the bytes it had, and no temp file is left."""

    @staticmethod
    def files(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    @staticmethod
    def unread(monkeypatch):
        def iter_tweets(*args, **kwargs):
            raise AssertionError("tweets read")

        monkeypatch.setattr(cli.corpus, "iter_tweets", iter_tweets)

    @pytest.mark.parametrize("command", ["all", "analyze"])
    def test_no_trump_article_exit_3(self, workspace, monkeypatch, capsys, command):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "all"]) == 0
        before = self.files(out)
        write_jsonl(tmp_path / "articles.jsonl", [
            dict(a, subjects=["OTHER"]) if a["subjects"] == ["TRUMP"] else a for a in ARTICLES])
        self.unread(monkeypatch)
        assert cli.main(["--config", str(config), command]) == cli.EXIT_EMPTY
        assert capsys.readouterr().err == (
            "error: no reference articles tagged with subject TRUMP\n")
        assert self.files(out) == before

    def test_identify_without_a_rumor_label_exit_4(self, workspace, monkeypatch, capsys):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "eval", "identify"]) == 0
        before = self.files(out)
        write_jsonl(tmp_path / "labels.jsonl", [l for l in LABELS if l["label"] == "NONRUMOR"])
        self.unread(monkeypatch)
        assert cli.main(["--config", str(config), "eval", "identify"]) == cli.EXIT_EVAL
        assert capsys.readouterr().err == "error: no RUMOR labels to evaluate against\n"
        assert self.files(out) == before

    def test_attribution_of_an_unknown_article_exit_2(self, workspace, capsys):
        _, config, out = workspace
        assert cli.main(["--config", str(config), "match"]) == 0
        path = out / "matches.jsonl"
        lines = path.read_text().splitlines()
        rumor = json.dumps({"tweet_id": "t2", "article_id": "zzz", "score": 9.0,
                            "label": "RUMOR"})
        path.write_text("\n".join([lines[0], rumor, *lines[2:]]) + "\n")
        assert cli.main(["--config", str(config), "analyze", "attribution"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {path}:2: malformed line: article_id 'zzz' is not the id of an article\n")
        assert [p.name for p in out.iterdir()] == ["matches.jsonl"]
        path.write_text("\n".join([lines[0], rumor.replace('"zzz"', "null"), *lines[2:]]) + "\n")
        assert cli.main(["--config", str(config), "analyze", "attribution"]) == 0  # a LEXICON rumor


class TestTweetsAreNotTokenizedOneByOne:
    """Every command turns tweets into words a block at a time, under any
    tokenizer config: no text is tokenized on its own (by tokenize, or by
    tokenize_block as a block of one) but an article body or a keyword."""

    @pytest.fixture
    def texts(self, workspace, monkeypatch):
        tmp_path, config, _ = workspace
        rng = random.Random(5)
        words = "clinton parkinsons trump tax orlando hoax true it's the @user #Tax".split()
        write_jsonl(tmp_path / "tweets.jsonl", [
            dict(TWEETS[i % 4], id=f"t{i}", text=" ".join(rng.choices(words, k=6)) + f" n{i}")
            for i in range(300)])
        config.write_text(config.read_text() + "keywords = clinton,hoax\n")
        texts = []
        original, block = tokenize, cli.textpipe.tokenize_block
        wrappers = {
            original: lambda text, *a, **k: texts.append(text) or original(text, *a, **k),
            block: lambda block_texts, *a, **k: (
                texts.extend(block_texts if len(block_texts) == 1 else ())
                or block(block_texts, *a, **k)),
        }
        # every module that holds either function, by import or by attribute
        for module in (cli, cli.corpus, cli.textpipe, cli.matchers, cli.analysis,
                       cli.evaluation):
            for name, value in list(vars(module).items()):
                for function, wrapper in wrappers.items():
                    if value is function:
                        monkeypatch.setattr(module, name, wrapper)
        return texts

    COMMANDS = [["match"], ["--matcher", "TFIDF", "match"], ["--matcher", "EMBEDDING", "match"],
                ["all"], ["eval", "classify"], ["--matcher", "ALL", "eval", "identify"]]

    def run(self, workspace, vector_files, texts, commands, extra=""):
        _, config, _ = workspace
        config.write_text(config.read_text() + f"embeddings = {vector_files[0]}\n" + extra)
        for command in commands:
            assert cli.main(["--config", str(config), *command]) == 0
        assert texts and set(texts) <= {a["body"] for a in ARTICLES} | {"clinton", "hoax"}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_only_articles_and_keywords(self, workspace, vector_files, texts, command):
        self.run(workspace, vector_files, texts, [command])

    def test_analyze_with_keywords(self, workspace, vector_files, texts):
        self.run(workspace, vector_files, texts, [["match"], ["analyze"]])

    def test_stemming(self, workspace, vector_files, texts):
        self.run(workspace, vector_files, texts, [*self.COMMANDS, ["analyze"]],
                 "stemming = true\n")

    @pytest.mark.parametrize("stemming", [False, True])
    def test_library_keyword_breakdown(self, workspace, texts, stemming):
        tmp_path, _, _ = workspace
        tweets = list(cli.corpus.iter_tweets(tmp_path / "tweets.jsonl"))
        counts = cli.analysis.keyword_breakdown(tweets, {}, ["clinton", "hoax"],
                                                TokenizerConfig(stemming=stemming))
        assert counts["clinton"][1] > 0 and counts["hoax"][1] > 0
        assert set(texts) <= {"clinton", "hoax"}


class TestFaultyTweetBytes:
    def test_bad_byte_exit_2_naming_the_line(self, workspace, capsys):
        tmp_path, config, out = workspace
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_bytes(tweets.read_bytes().replace(b"tax", b"t\xffx"))  # in line 2
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {tweets}:2: malformed line: 'utf-8' codec can't decode byte 0xff in "
            "position 98: invalid start byte\n")
        assert list(out.iterdir()) == []

    def test_bool_ids_exit_2(self, workspace, capsys):
        tmp_path, config, out = workspace
        tweets = tmp_path / "tweets.jsonl"
        write_jsonl(tweets, [dict(TWEETS[0], id=True, user_id=False)])
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {tweets}:1: malformed line: field 'id' is true, not an id\n")
        assert list(out.iterdir()) == []


class TestLoneSurrogateIds:
    """A JSON escape of a lone surrogate (\\ud800) gives a str that UTF-8
    cannot encode: in an id it is refused at its line, before any output is
    written; in a tweet's text it does no harm."""

    @pytest.mark.parametrize("name, field, line, command", [
        ("tweets.jsonl", "id", TWEETS[0], ["match"]),
        ("tweets.jsonl", "user_id", TWEETS[0], ["match"]),
        ("articles.jsonl", "id", ARTICLES[0], ["match"]),
        ("labels.jsonl", "tweet_id", LABELS[0], ["eval", "classify"]),
    ], ids=["tweet-id", "user-id", "article-id", "label-tweet-id"])
    def test_id_exit_2_naming_the_line(self, workspace, capsys, name, field, line, command):
        tmp_path, config, out = workspace
        path = tmp_path / name
        write_jsonl(path, [dict(line, **{field: line[field] + "\ud800"})])
        assert cli.main(["--config", str(config), *command]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {path}:1: malformed line: field {field!r} holds a lone surrogate, "
            "which UTF-8 cannot encode\n")
        assert list(out.glob("*")) == []  # nothing written; out/ may not exist

    @pytest.mark.parametrize("name, field, command", [
        ("labels.jsonl", "article_id", ["eval", "classify"]),
        ("matches.jsonl", "tweet_id", ["analyze"]),
        ("matches.jsonl", "article_id", ["analyze"]),
        ("labels.jsonl", "article_id", ["eval", "identify"]),
        ("labels.jsonl", "article_id", ["all"]),
        ("matches.jsonl", "article_id", ["analyze", "ratio"]),
    ], ids=["label-article-id", "match-tweet-id", "match-article-id", "label-article-id-identify",
            "label-article-id-all", "match-article-id-unchecked"])
    def test_reference_exit_2_naming_the_line(self, workspace, capsys, name, field, command):
        # a reference is refused at its line by its field, before it is compared with the
        # ids it names, also where no id is compared (analyze ratio reads no article)
        tmp_path, config, out = workspace
        if name == "matches.jsonl":
            assert cli.main(["--config", str(config), "match"]) == 0
        path = (out if name == "matches.jsonl" else tmp_path) / name
        first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        line = json.loads(first)
        assert line[field] in ("t1", "a1")
        path.write_text(json.dumps(dict(line, **{field: line[field] + "\ud800"})) + "\n"
                        + "".join(rest), encoding="utf-8")
        before = {p: p.read_bytes() for p in out.glob("*")}
        capsys.readouterr()
        assert cli.main(["--config", str(config), *command]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {path}:1: malformed line: field {field!r} holds a lone surrogate, "
            "which UTF-8 cannot encode\n")
        assert {p: p.read_bytes() for p in out.glob("*")} == before  # nothing written

    def test_surrogate_pair_in_references_loads(self, workspace):
        tmp_path, config, out = workspace
        tid, aid = "t1\U0001F600", "a1\U0001F600"
        write_jsonl(tmp_path / "tweets.jsonl", [dict(TWEETS[0], id=tid), *TWEETS[1:]])
        write_jsonl(tmp_path / "articles.jsonl", [dict(ARTICLES[0], id=aid), *ARTICLES[1:]])
        write_jsonl(tmp_path / "labels.jsonl",
                    [dict(LABELS[0], tweet_id=tid, article_id=aid), *LABELS[1:]])
        assert "\\ud83d\\ude00" in (tmp_path / "labels.jsonl").read_text()
        assert cli.main(["--config", str(config), "match"]) == 0
        matches = out / "matches.jsonl"
        lines = [json.loads(line) for line in matches.read_text(encoding="utf-8").splitlines()]
        assert (lines[0]["tweet_id"], lines[0]["article_id"]) == (tid, aid)
        write_jsonl(matches, lines)  # the ids as JSON escape pairs
        assert "\\ud83d\\ude00" in matches.read_text()
        assert cli.main(["--config", str(config), "eval", "classify"]) == 0
        assert cli.main(["--config", str(config), "analyze"]) == 0

    def test_surrogate_pair_is_one_character(self, workspace):
        tmp_path, config, out = workspace
        write_jsonl(tmp_path / "tweets.jsonl",
                    [dict(TWEETS[0], id="t\U0001F600", user_id="u\U0001F600"), *TWEETS[1:]])
        assert "\\ud83d\\ude00" in (tmp_path / "tweets.jsonl").read_text()
        assert cli.main(["--config", str(config), "match"]) == 0
        assert cli.main(["--config", str(config), "analyze", "users"]) == 0
        first = json.loads((out / "matches.jsonl").read_text(encoding="utf-8").splitlines()[0])
        assert first["tweet_id"] == "t\U0001F600"
        ranking = (out / "user_ranking.csv").read_text(encoding="utf-8")
        assert "u\U0001F600," in ranking

    def test_surrogate_in_text_loads(self, workspace):
        tmp_path, config, out = workspace
        write_jsonl(tmp_path / "tweets.jsonl",
                    [dict(TWEETS[0], text=TWEETS[0]["text"] + " \ud800"), *TWEETS[1:]])
        assert cli.main(["--config", str(config), "match"]) == 0
        assert len((out / "matches.jsonl").read_text().splitlines()) == len(TWEETS)
