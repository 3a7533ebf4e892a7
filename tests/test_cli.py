import csv
import json
import os
import random
import subprocess
import sys

import pytest

from oracles import bm25_oracle

from rumormatch import cli
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


class TestIndexCommand:
    def test_deterministic_bytes(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "index"]) == 0
        first = (out / "index.rmix").read_bytes()
        assert cli.main(["--config", str(config), "index"]) == 0
        assert (out / "index.rmix").read_bytes() == first
        assert first[:4] == cli.INDEX_MAGIC

    def test_round_trip_via_load(self, workspace):
        tmp_path, config, out = workspace
        cli.main(["--config", str(config), "index"])
        index = cli.load_index(out / "index.rmix")
        assert index.article_ids == ["a1", "a2", "a3"]
        assert index.vocabulary.n_docs == 3

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

    def test_jobs_do_not_change_bytes(self, workspace):
        tmp_path, config, out = workspace
        cli.main(["--config", str(config), "--jobs", "1", "match"])
        serial = (out / "matches.jsonl").read_bytes()
        cli.main(["--config", str(config), "--jobs", "4", "match"])
        assert (out / "matches.jsonl").read_bytes() == serial


class TestEmbeddingMatchers:
    @pytest.fixture
    def vector_files(self, tmp_path):
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

    def test_classify_lexicon_fixed_point(self, workspace):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "--matcher", "LEXICON",
                         "eval", "classify"]) == 0
        lines = (out / "pr_curve.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("fixed,")


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

    @pytest.mark.parametrize("matcher", ["BM25", "TFIDF"])
    def test_block_size_does_not_change_bytes(self, zipf_workspace, matcher, monkeypatch):
        tmp_path, config = zipf_workspace
        results = []
        for block in (1, 7, cli.BLOCK):
            monkeypatch.setattr(cli, "BLOCK", block)
            out = tmp_path / f"block{block}"
            assert cli.main(["--config", str(config), "--matcher", matcher,
                             "--out", str(out), "match"]) == 0
            results.append((out / "matches.jsonl").read_bytes())
        assert results[0] == results[1] == results[2]


class TestInputErrors:
    @pytest.mark.parametrize("data", [b"", b"RM", b"RMIX"])
    def test_truncated_index_exit_2(self, workspace, data, capsys):
        tmp_path, config, out = workspace
        index = tmp_path / "short.rmix"
        index.write_bytes(data)
        config.write_text(config.read_text() + f"index_path = {index}\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert "not a rumormatch index file" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        b'{"terms": []}',  # missing keys
        b"[]",
        b'{"article_ids": ["a1"], "empty_article_ids": [], "doc_len": [1], "avgdl": 1.0,'
        b' "terms": ["x"], "postings": []}',
        b"\xff",
    ])
    def test_malformed_index_payload_exit_2(self, workspace, payload, capsys):
        tmp_path, config, out = workspace
        index = tmp_path / "malformed.rmix"
        index.write_bytes(cli.INDEX_MAGIC + bytes([cli.INDEX_VERSION]) + payload)
        config.write_text(config.read_text() + f"index_path = {index}\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        assert "malformed index payload" in capsys.readouterr().err

    def test_short_vector_row_exit_2(self, workspace, capsys):
        tmp_path, config, out = workspace
        emb = tmp_path / "short.vec"
        emb.write_text("2 3\nclinton 1 0 0\ntrump 0 1\n")
        config.write_text(config.read_text() + f"embeddings = {emb}\nmatcher = EMBEDDING\n")
        assert cli.main(["--config", str(config), "match"]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "expected 3 components, got 2" in err and "internal" not in err


class TestAtomicWrites:
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

        def fail(chunk):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(cli, "_score_chunk", fail)
        with pytest.raises(RuntimeError):
            cli.main(["--config", str(config), "match"])
        assert (out / "matches.jsonl").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["matches.jsonl"]

    def test_failed_analysis_leaves_no_partial_csv(self, workspace, monkeypatch):
        tmp_path, config, out = workspace
        assert cli.main(["--config", str(config), "match"]) == 0

        def fail(rows, path):
            with open(path, "w") as fh:
                fh.write("group,window")
            raise OSError("disk full")

        monkeypatch.setattr(cli.analysis, "write_group_ratios", fail)
        with pytest.raises(OSError):
            cli.main(["--config", str(config), "analyze", "ratio"])
        assert sorted(p.name for p in out.iterdir()) == ["matches.jsonl"]
