"""Command-line entry point: index, match, eval, analyze, all.

Runs are driven by a flat key=value config file; a handful of flags override
config keys one-for-one. All outputs are written atomically (temp file +
rename) so a failed run never leaves a truncated artifact.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analysis, corpus, evaluation, matchers, textpipe
from .analysis import Detection, TimeWindow
from .corpus import Group, Label, Subject
from .errors import (
    AllEmptyAfterTokenizeError,
    CorpusError,
    DegenerateLabelsError,
    EmptyCorpusError,
    EmptyDenominatorError,
    IndexFormatError,
    InputFormatError,
    NoRumorLabelsError,
    NoRumorsError,
    RumorMatchError,
    UnreachablePrecisionError,
    ZeroArticlesForSubjectError,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_EVAL = 4

INDEX_MAGIC = b"RMIX"
INDEX_VERSION = 1

MATCHERS = ("TFIDF", "BM25", "EMBEDDING", "DOCVEC", "LEXICON")
VECTOR_MATCHERS = ("TFIDF", "BM25", "EMBEDDING", "DOCVEC")


@dataclass
class RunConfig:
    tweets: Optional[str] = None
    articles: Optional[str] = None
    labels: Optional[str] = None
    embeddings: Optional[str] = None
    doc_vectors: Optional[str] = None
    lexicon: Optional[str] = None
    stopwords: Optional[str] = None
    index_path: Optional[str] = None
    out: str = "."
    matcher: str = "BM25"
    threshold: float = 30.5
    k1: float = 1.2
    b: float = 0.75
    min_token_len: int = 2
    strip_urls: bool = True
    strip_mentions: bool = True
    stemming: bool = False
    window_start: int = analysis.ELECTION_WINDOW.start
    window_end: int = analysis.ELECTION_WINDOW.end
    peak_k: float = 2.0
    bin_width: int = 86400
    top_n: int = 1000
    top_fractions: list[float] = field(default_factory=lambda: [0.1, 0.2])
    keywords: list[str] = field(default_factory=list)
    jobs: int = 0  # 0 -> all available cores
    quiet: bool = False

    def tokenizer_config(self) -> textpipe.TokenizerConfig:
        stopwords = (
            textpipe.load_stopwords(self.stopwords)
            if self.stopwords
            else textpipe.default_stopwords()
        )
        return textpipe.TokenizerConfig(
            stopwords=stopwords,
            min_token_len=self.min_token_len,
            strip_urls=self.strip_urls,
            strip_mentions=self.strip_mentions,
            stemming=self.stemming,
        )

    def bm25_params(self) -> matchers.BM25Params:
        return matchers.BM25Params(k1=self.k1, b=self.b)

    def window(self) -> TimeWindow:
        return TimeWindow(start=self.window_start, end=self.window_end)


_BOOL_KEYS = {"strip_urls", "strip_mentions", "stemming", "quiet"}
_INT_KEYS = {"min_token_len", "window_start", "window_end", "bin_width", "top_n", "jobs"}
_FLOAT_KEYS = {"threshold", "k1", "b", "peak_k"}
_LIST_KEYS = {"top_fractions", "keywords"}


def parse_config_file(path) -> dict:
    """Flat 'key = value' lines; '#' comments and blank lines ignored."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    return values


def build_config(file_values: dict, overrides: dict) -> RunConfig:
    config = RunConfig()
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, raw in merged.items():
        if not hasattr(config, key):
            raise ValueError(f"unknown config key {key!r}")
        if key in _BOOL_KEYS and isinstance(raw, str):
            raw = raw.lower() in ("1", "true", "yes", "on")
        elif key in _INT_KEYS and isinstance(raw, str):
            raw = int(raw)
        elif key in _FLOAT_KEYS and isinstance(raw, str):
            raw = float(raw)
        elif key in _LIST_KEYS and isinstance(raw, str):
            items = [x.strip() for x in raw.split(",") if x.strip()]
            raw = [float(x) for x in items] if key == "top_fractions" else items
        setattr(config, key, raw)
    return config


@contextlib.contextmanager
def atomic_write_text(path):
    """Yield a temp path beside `path` to write the output to.

    On success the temp file replaces `path` in one rename; on failure it is
    removed, so a failed run never leaves a truncated or partial artifact.
    Every output file of the CLI, text or binary, is written through here;
    the name is kept because the benchmark's traced run reports it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_index(index: matchers.ArticleIndex, path):
    """Versioned binary: magic + version byte + canonical JSON payload."""
    terms = [None] * index.vocabulary.size
    for t, i in index.vocabulary.term_ids.items():
        terms[i] = t
    payload = {
        "article_ids": index.article_ids,
        "empty_article_ids": index.empty_article_ids,
        "doc_len": [int(x) for x in index.doc_len],
        "avgdl": index.vocabulary.avgdl,
        "terms": terms,
        "postings": {
            t: [ords.tolist(), counts.astype(np.int64).tolist()]
            for t, (ords, counts) in index.postings.items()
        },
    }
    body = json.dumps(payload, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with atomic_write_text(path) as tmp, open(tmp, "wb") as fh:
        fh.write(INDEX_MAGIC + bytes([INDEX_VERSION]) + body)


def load_index(path) -> matchers.ArticleIndex:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 5 or data[:4] != INDEX_MAGIC:
        raise IndexFormatError(f"{path}: not a rumormatch index file (bad or truncated header)")
    if data[4] != INDEX_VERSION:
        raise IndexFormatError(
            f"{path}: index version {data[4]} not supported (want {INDEX_VERSION})"
        )
    try:
        payload = json.loads(data[5:].decode("utf-8"))
        return matchers.ArticleIndex.from_parts(
            article_ids=payload["article_ids"],
            empty_article_ids=payload["empty_article_ids"],
            doc_len=payload["doc_len"],
            avgdl=payload["avgdl"],
            terms=payload["terms"],
            postings={t: (o, c) for t, (o, c) in payload["postings"].items()},
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise IndexFormatError(f"{path}: malformed index payload: {exc!r}") from exc


def _require_file(path, what):
    if path is None:
        raise FileNotFoundError(f"no {what} path configured")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} file not found: {path}")
    return path


def _get_index(config: RunConfig) -> matchers.ArticleIndex:
    if config.index_path and os.path.exists(config.index_path):
        return load_index(config.index_path)
    articles = corpus.load_articles(_require_file(config.articles, "articles"))
    return matchers.build_index(articles, config.tokenizer_config())


# ---------------------------------------------------------------------------
# batch matching (worker globals set up via fork)

_WORKER = {}
CHUNK = 2000  # tweets per worker task
BLOCK = 64  # tweets per score_block call


def _init_worker(index, tok, matcher, table, threshold, emb_table, art_vecs, lexicon):
    _WORKER.update(
        index=index, tok=tok, matcher=matcher, table=table, threshold=threshold,
        emb_table=emb_table, art_vecs=art_vecs, lexicon=lexicon,
    )


def _match_line(tweet_id, article_id, score, label) -> str:
    return json.dumps(
        {"tweet_id": tweet_id, "article_id": article_id, "score": score,
         "label": label.value},
        ensure_ascii=False,
    )


def _score_chunk(chunk) -> str:
    """chunk: list of (tweet_id, text). Returns its output lines in input order."""
    index = _WORKER["index"]
    tok = _WORKER["tok"]
    matcher = _WORKER["matcher"]
    if matcher == "LEXICON":
        hits = [matchers.match_lexicon(text, _WORKER["lexicon"]) for _, text in chunk]
        return "".join(
            _match_line(tweet_id, None, 1.0 if hit else 0.0,
                        Label.RUMOR if hit else Label.NONRUMOR) + "\n"
            for (tweet_id, _), hit in zip(chunk, hits)
        )

    best = []  # per tweet: (best article id or None if undefined, best score)
    if matcher in ("BM25", "TFIDF"):
        for start in range(0, len(chunk), BLOCK):
            tokens = [textpipe.tokenize(text, tok) for _, text in chunk[start:start + BLOCK]]
            scores = matchers.score_block(tokens, index, _WORKER["table"])
            ordinals = scores.argmax(axis=1)  # the first maximum: lowest ordinal wins ties
            top = scores[np.arange(len(tokens)), ordinals]
            best.extend((index.article_ids[o], s)
                        for o, s in zip(ordinals.tolist(), top.tolist()))
    else:  # EMBEDDING / DOCVEC
        for tweet_id, text in chunk:
            # document-vector file carries per-tweet vectors keyed by tweet id;
            # a single-id "token" list reuses the embedding degenerate handling
            tokens = [tweet_id] if matcher == "DOCVEC" else textpipe.tokenize(text, tok)
            scores, defined = matchers.score_embedding(
                tokens, _WORKER["art_vecs"], _WORKER["emb_table"]
            )
            best.append(matchers.best_match(scores, index) if defined else (None, 0.0))

    threshold = _WORKER["threshold"]
    lines = []
    for (tweet_id, _), (article_id, score) in zip(chunk, best):
        rumor = article_id is not None and score > threshold  # strictly above h
        lines.append(_match_line(tweet_id, article_id if rumor else None, score,
                                 Label.RUMOR if rumor else Label.NONRUMOR) + "\n")
    return "".join(lines)


def _chunks(items, size):
    for i in range(0, len(items), size):
        yield items[i : i + size]


def run_match(config: RunConfig, tweets: list[corpus.Tweet], out_path) -> None:
    """Score every tweet, classify at the configured threshold, write JSONL.

    Output order equals input order regardless of worker count, so parallel
    and serial runs produce identical bytes. Lines are streamed to the
    output's temp file one chunk at a time.
    """
    matcher = config.matcher.upper()
    if matcher not in MATCHERS:
        raise ValueError(f"unknown matcher {config.matcher!r}")
    tok = config.tokenizer_config()
    index = table = emb_table = art_vecs = lexicon = None
    if matcher == "LEXICON":
        lexicon = (
            matchers.load_lexicon(config.lexicon) if config.lexicon
            else matchers.default_lexicon()
        )
    else:
        index = _get_index(config)
        if matcher == "BM25":
            table = index.bm25_table(config.bm25_params())
        elif matcher == "TFIDF":
            table = index.tfidf_table()
        elif matcher == "EMBEDDING":
            emb_table = matchers.load_embeddings(_require_file(config.embeddings, "embeddings"))
            articles = corpus.load_articles(_require_file(config.articles, "articles"))
            art_vecs = matchers.embed_articles(articles, emb_table, tok)
        else:  # DOCVEC
            emb_table = matchers.load_embeddings(_require_file(config.doc_vectors, "doc_vectors"))
            art_vecs = matchers.article_vectors_from_file(
                index.article_ids, _require_file(config.doc_vectors, "doc_vectors")
            )

    items = [(t.id, t.text) for t in tweets]
    jobs = config.jobs or (os.cpu_count() or 1)
    init_args = (index, tok, matcher, table, config.threshold, emb_table, art_vecs, lexicon)

    done = 0
    with contextlib.ExitStack() as stack:
        tmp = stack.enter_context(atomic_write_text(out_path))
        fh = stack.enter_context(open(tmp, "w", encoding="utf-8", newline=""))
        if jobs <= 1 or len(items) <= CHUNK:
            _init_worker(*init_args)
            texts = map(_score_chunk, _chunks(items, CHUNK))
        else:
            ctx = multiprocessing.get_context("fork")
            pool = stack.enter_context(
                ctx.Pool(jobs, initializer=_init_worker, initargs=init_args))
            texts = pool.imap(_score_chunk, _chunks(items, CHUNK))
        for chunk, text in zip(_chunks(items, CHUNK), texts):
            fh.write(text)
            done += len(chunk)
            _progress(config, done)


def _progress(config, done):
    if not config.quiet and done % 1_000_000 == 0:
        print(f"matched {done:,} tweets", file=sys.stderr)


def load_detections(path) -> dict[str, Detection]:
    detections = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            is_rumor = obj["label"] == "RUMOR"
            detections[obj["tweet_id"]] = Detection(
                tweet_id=obj["tweet_id"],
                is_rumor=is_rumor,
                article_id=obj.get("article_id") if is_rumor else None,
            )
    return detections


# ---------------------------------------------------------------------------
# subcommands


def cmd_index(config: RunConfig) -> None:
    articles = corpus.load_articles(_require_file(config.articles, "articles"))
    index = matchers.build_index(articles, config.tokenizer_config())
    out = config.index_path or os.path.join(config.out, "index.rmix")
    save_index(index, out)
    if not config.quiet:
        print(f"indexed {index.n_articles} articles -> {out}", file=sys.stderr)


def cmd_match(config: RunConfig) -> None:
    tweets = corpus.load_tweets(_require_file(config.tweets, "tweets"))
    run_match(config, tweets, os.path.join(config.out, "matches.jsonl"))


def _scores_for_labeled(config, tweets_by_id, labels):
    """Per-tweet best score and best article for the labeled set."""
    tweets = [tweets_by_id[l.tweet_id] for l in labels]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "matches.jsonl")
        run_match(config, tweets, out)
        scores = {}
        best_articles = {}
        with open(out, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                scores[obj["tweet_id"]] = obj["score"]
                best_articles[obj["tweet_id"]] = obj["article_id"]
    return scores, best_articles


def cmd_eval(config: RunConfig, task: str) -> None:
    loaded = corpus.load_corpus(
        _require_file(config.tweets, "tweets"),
        _require_file(config.articles, "articles"),
        _require_file(config.labels, "labels"),
    )
    labels = loaded.labels
    os.makedirs(config.out, exist_ok=True)
    matcher = config.matcher.upper()

    if task == "CLASSIFY":
        if matcher == "LEXICON":
            lexicon = (
                matchers.load_lexicon(config.lexicon) if config.lexicon
                else matchers.default_lexicon()
            )
            predictions = {
                l.tweet_id: matchers.match_lexicon(
                    loaded.tweets_by_id[l.tweet_id].text, lexicon
                )
                for l in labels
            }
            point = evaluation.fixed_point_eval(predictions, labels)
            with atomic_write_text(os.path.join(config.out, "pr_curve.csv")) as tmp:
                evaluation.write_pr_curve([point], tmp)
            with atomic_write_text(os.path.join(config.out, "max_f1.csv")) as tmp:
                evaluation.write_pr_curve([point], tmp)
            return
        scores, _ = _scores_for_labeled(config, loaded.tweets_by_id, labels)
        result = evaluation.sweep(scores, labels)
        with atomic_write_text(os.path.join(config.out, "pr_curve.csv")) as tmp:
            evaluation.write_pr_curve(result.points, tmp)
        with atomic_write_text(os.path.join(config.out, "max_f1.csv")) as tmp:
            evaluation.write_pr_curve([result.max_f1_point], tmp)
        return

    # IDENTIFY
    rumor_labels = [l for l in labels if l.label is Label.RUMOR]
    names = list(VECTOR_MATCHERS) if matcher == "ALL" else [matcher]
    rows = []
    for name in names:
        if name == "EMBEDDING" and not config.embeddings:
            continue
        if name == "DOCVEC" and not config.doc_vectors:
            continue
        # threshold -inf: identification needs the argmax article on every line
        sub = _clone_config(config, matcher=name, threshold=float("-inf"))
        _, best_articles = _scores_for_labeled(sub, loaded.tweets_by_id, rumor_labels)
        matches = {
            tid: matchers.MatchResult(tid, aid, 0.0)
            for tid, aid in best_articles.items()
        }
        accuracy = evaluation.identification_accuracy(matches, rumor_labels)
        rows.append((name, accuracy, len(rumor_labels)))
    with atomic_write_text(os.path.join(config.out, "identification.csv")) as tmp:
        evaluation.write_identification_report(rows, tmp)


def _clone_config(config: RunConfig, **changes) -> RunConfig:
    import copy

    clone = copy.copy(config)
    for k, v in changes.items():
        setattr(clone, k, v)
    return clone


ANALYSES = ("ratio", "users", "keywords", "attribution", "timeline")


def cmd_analyze(config: RunConfig, which: list[str]) -> None:
    matches_path = os.path.join(config.out, "matches.jsonl")
    _require_file(matches_path, "matches")
    tweets = corpus.load_tweets(_require_file(config.tweets, "tweets"))
    detections = load_detections(matches_path)
    window = config.window()
    os.makedirs(config.out, exist_ok=True)
    groups = sorted({t.group for t in tweets}, key=lambda g: g.value)

    if "ratio" in which:
        rows = []
        for group in groups:
            rows.append((group, "entire", analysis.group_rumor_ratio(
                tweets, detections, group)))
            rows.append((group, "election", analysis.group_rumor_ratio(
                tweets, detections, group, window)))
        with atomic_write_text(os.path.join(config.out, "group_ratio.csv")) as tmp:
            analysis.write_group_ratios(rows, tmp)

    if "users" in which:
        conc = [
            (f, analysis.user_concentration(tweets, detections, f))
            for f in config.top_fractions
        ]
        with atomic_write_text(os.path.join(config.out, "concentration.csv")) as tmp:
            analysis.write_concentration(conc, tmp)
        ranking = analysis.user_rumor_ratio_ranking(tweets, detections, config.top_n)
        with atomic_write_text(os.path.join(config.out, "user_ranking.csv")) as tmp:
            analysis.write_user_ranking(ranking, tmp)

    if "keywords" in which and config.keywords:
        breakdown = analysis.keyword_breakdown(
            tweets, detections, config.keywords, config.tokenizer_config()
        )
        with atomic_write_text(os.path.join(config.out, "keywords.csv")) as tmp:
            analysis.write_keywords(breakdown, tmp)

    if "attribution" in which:
        articles = corpus.load_articles(_require_file(config.articles, "articles"))
        rows = []
        for group in groups:
            values = analysis.content_attribution(tweets, detections, articles, group)
            for subject, value in sorted(values.items(), key=lambda kv: kv[0].value):
                rows.append((group, subject, value))
        with atomic_write_text(os.path.join(config.out, "attribution.csv")) as tmp:
            analysis.write_attribution(rows, tmp)

    if "timeline" in which:
        bins = analysis.timeline(tweets, detections, config.bin_width, window)
        peaks = analysis.detect_peaks([c for _, c in bins], config.peak_k) if bins else []
        with atomic_write_text(os.path.join(config.out, "timeline.csv")) as tmp:
            analysis.write_timeline(bins, peaks, tmp)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumormatch",
        description="Detect rumor tweets by matching them against verified rumor articles.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--matcher", choices=[*MATCHERS, "ALL"], help="matching algorithm")
    parser.add_argument("--threshold", type=float, help="classification threshold h")
    parser.add_argument("--jobs", type=int, help="parallel workers for match (0 = all cores)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--quiet", action="store_true", default=None)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("index", help="build and serialize the article index")
    sub.add_parser("match", help="score and classify every tweet")
    eval_p = sub.add_parser("eval", help="run an evaluation protocol")
    eval_p.add_argument("task", choices=["classify", "identify"])
    analyze_p = sub.add_parser("analyze", help="corpus analyses over match output")
    analyze_p.add_argument("which", nargs="*", choices=ANALYSES, default=list(ANALYSES))
    sub.add_parser("all", help="index + match + classify eval + all analyses")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        overrides = {
            "matcher": args.matcher,
            "threshold": args.threshold,
            "jobs": args.jobs,
            "out": args.out,
            "quiet": args.quiet,
        }
        config = build_config(file_values, overrides)

        if args.command == "index":
            cmd_index(config)
        elif args.command == "match":
            cmd_match(config)
        elif args.command == "eval":
            cmd_eval(config, args.task.upper())
        elif args.command == "analyze":
            cmd_analyze(config, args.which or list(ANALYSES))
        elif args.command == "all":
            cmd_index(config)
            cmd_match(config)
            if config.labels:
                cmd_eval(config, "CLASSIFY")
            cmd_analyze(config, list(ANALYSES))
    except (FileNotFoundError, CorpusError, InputFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EmptyCorpusError, AllEmptyAfterTokenizeError,
            EmptyDenominatorError, NoRumorsError, ZeroArticlesForSubjectError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (DegenerateLabelsError, NoRumorLabelsError, UnreachablePrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except RumorMatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
