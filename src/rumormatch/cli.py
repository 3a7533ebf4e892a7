"""Command-line entry point: index, match, eval, analyze, all.

Runs are driven by a flat key=value config file; a handful of flags override
config keys one-for-one. Every command that scores tweets does so through one
in-order stream (run_match) whose results feed matches.jsonl, the evaluation
and the analysis accumulator; `all` reads, tokenizes and scores each tweet
once. Each output goes to a temp file beside it, and `main` renames them all
when the command returns, so a failed command publishes none of its outputs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import copy
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
import tempfile
import time
import typing
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

import numpy as np

try:  # CPython's builtin digest: importing hashlib would also map OpenSSL, ~3.5 MB resident
    from _sha256 import sha256  # Python < 3.12
except ImportError:
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        from hashlib import sha256

from . import analysis, corpus, evaluation, matchers, textpipe
from .analysis import TimeWindow
from .corpus import Label, LabeledTweet
from .errors import (
    AllEmptyAfterTokenizeError,
    CorpusError,
    DanglingTweetRefError,
    DegenerateLabelsError,
    EmptyCorpusError,
    EmptyDenominatorError,
    IndexFormatError,
    IndexMismatchError,
    InputFormatError,
    MalformedLineError,
    NoRumorLabelsError,
    NoRumorsError,
    RumorMatchError,
    ZeroArticlesForSubjectError,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_EVAL = 4

INDEX_MAGIC = b"RMIX"
INDEX_VERSION = 5
HASH_CHUNK = 1 << 16  # bytes of the articles file hashed at a time

MATCHERS = ("TFIDF", "BM25", "EMBEDDING", "DOCVEC", "LEXICON")
VECTOR_MATCHERS = ("TFIDF", "BM25", "EMBEDDING", "DOCVEC")
POSTINGS_MATCHERS = ("TFIDF", "BM25")  # the matchers that score through an ArticleIndex


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
    stemming: bool = False
    window_start: int = analysis.ELECTION_WINDOW.start
    window_end: int = analysis.ELECTION_WINDOW.end
    peak_k: float = 2.0
    bin_width: int = 86400
    top_n: int = 1000
    top_fractions: list[float] = field(default_factory=lambda: [0.1, 0.2])
    keywords: list[str] = field(default_factory=list)
    jobs: int = 0  # 0 -> every CPU this process may run on
    quiet: bool = False

    def tokenizer_config(self) -> textpipe.TokenizerConfig:
        """The tokenizer config of stopwords, min_token_len and stemming.

        Built once, reading a stopwords file once, and kept with the three
        values it was built from: a change to any of them builds it anew. A
        copy.copy of the config keeps it; dataclasses.replace builds it anew.
        """
        key = (self.stopwords, self.min_token_len, self.stemming)
        built = self.__dict__.get("_tokenizer")
        if built is None or built[0] != key:
            stopwords = (
                textpipe.load_stopwords(self.stopwords)
                if self.stopwords
                else textpipe.default_stopwords()
            )
            built = self._tokenizer = key, textpipe.TokenizerConfig(
                stopwords=stopwords,
                min_token_len=self.min_token_len,
                stemming=self.stemming,
            )
        return built[1]

    def bm25_params(self) -> matchers.BM25Params:
        return matchers.BM25Params(k1=self.k1, b=self.b)

    def window(self) -> TimeWindow:
        return TimeWindow(start=self.window_start, end=self.window_end)


def parse_config_file(path) -> dict:
    """Flat 'key = value' entries, in the line grammar of textpipe.entries."""
    values = {}
    for line_no, entry in textpipe.entries(corpus._text_lines(path)):
        if "=" not in entry:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, _, raw = entry.partition("=")
        values[key.strip()] = raw.strip()
    return values


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def _parse_value(kind, raw: str):
    """A config value of the type `kind` RunConfig gives its key."""
    if kind is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected one of {'/'.join(_BOOL_WORDS)}, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    if kind in (int, float):
        return kind(raw)
    if typing.get_origin(kind) is list:
        (item,) = typing.get_args(kind)
        return [item(x.strip()) for x in raw.split(",") if x.strip()]
    return raw


def build_config(file_values: dict, overrides: dict) -> RunConfig:
    config = RunConfig()
    kinds = typing.get_type_hints(RunConfig)
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, raw in merged.items():
        if key not in kinds:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(raw, str):
            try:
                raw = _parse_value(kinds[key], raw)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        setattr(config, key, raw)
    # checked here so that a bad value exits before any output is written
    matcher = config.matcher.upper()
    if matcher not in (*MATCHERS, "ALL"):
        raise ValueError(f"config key 'matcher' must be one of {', '.join(MATCHERS)} or ALL, "
                         f"got {config.matcher!r}")
    config.matcher = matcher
    if config.jobs < 0:
        raise ValueError(f"config key 'jobs' must be 0 (every CPU) or more, got {config.jobs}")
    if config.top_n < 0:
        raise ValueError(f"config key 'top_n' must be 0 or more, got {config.top_n}")
    for f in config.top_fractions:
        if not 0 < f <= 1:
            raise ValueError(f"config key 'top_fractions' values must be in (0, 1], got {f}")
    for key in ("window_start", "window_end"):  # the timeline writes its bins as UTC dates
        try:
            time.gmtime(getattr(config, key))
        except (OverflowError, OSError, ValueError) as exc:
            raise ValueError(f"config key {key!r} must be a time gmtime can convert, "
                             f"got {getattr(config, key)} ({exc})") from None
    if config.window_start >= config.window_end:
        raise ValueError(f"config key 'window_start' ({config.window_start}) must be before "
                         f"'window_end' ({config.window_end})")
    if config.bin_width <= 0:
        raise ValueError(f"config key 'bin_width' must be positive, got {config.bin_width}")
    n_bins = analysis.bin_count(config.window(), config.bin_width)
    if n_bins > analysis.MAX_BINS:
        raise ValueError(f"config keys 'window_start', 'window_end' and 'bin_width' make "
                         f"{n_bins} timeline bins, more than {analysis.MAX_BINS}")
    for key in ("threshold", "peak_k"):  # every comparison with NaN is false
        if math.isnan(getattr(config, key)):
            raise ValueError(f"config key {key!r} must be a number or +-inf, got nan")
    try:
        config.bm25_params()
    except ValueError as exc:
        raise ValueError(f"config key {exc}") from None
    if config.keywords:  # a keyword that makes no single term exits before any output
        textpipe.keyword_terms(config.keywords, config.tokenizer_config())
    return config


@contextlib.contextmanager
def atomic_write_text(path):
    """Yield a temp path beside `path` to write the output to.

    On success the temp file replaces `path` in one rename; on failure it is
    removed, so a failed run never leaves a truncated or partial artifact.
    `main` stages every output of a command here, in one ExitStack that renames
    them when the command returns; the name is kept for the benchmark's tracer.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        # mkstemp creates 0600; give the output the mode open() would have
        mask = os.umask(0o077)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Write a CSV file, such as a staged output: the header, then one line per row.

    csv.writer writes a float as its repr, an int as its digits and a
    str-Enum as its value, so rows hold raw values.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def index_provenance(tok: textpipe.TokenizerConfig, articles_path) -> dict:
    """What an index is built from: the tokenizer config and, if known, the
    sha256 of the articles file. Saved with the index, checked on load."""
    digest = None
    if articles_path is not None:
        h = sha256()
        with open(_require_file(articles_path, "articles"), "rb") as fh:
            while chunk := fh.read(HASH_CHUNK):  # a chunk at a time, not the whole file
                h.update(chunk)
        digest = h.hexdigest()
    tokenizer = {**dataclasses.asdict(tok), "stopwords": sorted(tok.stopwords)}
    return {"tokenizer": tokenizer, "articles_sha256": digest}


def save_index(index: matchers.ArticleIndex, path, provenance: dict):
    """Versioned binary: magic + version byte, one line of canonical JSON
    (json.dumps(..., ensure_ascii=False, sort_keys=True) of the article ids,
    the terms and the provenance, ended by LF), then indptr, ordinals and
    counts as little-endian int64, back to back, up to the end of the file.

    json.dumps escapes every LF inside a string, so the header ends at the
    file's first LF. The header's bytes, its LF and each array's buffer are
    written one by one: a joined copy of the 60 kB header of the benchmark's
    1,723 articles raised the peak RSS of `all` by about 0.2 MB.
    """
    header = {"article_ids": index.article_ids, "terms": index.terms, **provenance}
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC + bytes([INDEX_VERSION]))
        fh.write(json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for values in (index.indptr, index.ordinals, index.counts):
            fh.write(np.ascontiguousarray(values, dtype="<i8"))


def load_index(path, config: Optional[RunConfig] = None) -> matchers.ArticleIndex:
    """Read a saved index. Given a config, refuse an index built under another
    tokenizer config or, when config.articles is set, from other articles.

    The arrays are views of the file's bytes after the header line: no
    Python int is made per posting.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 5 or data[:4] != INDEX_MAGIC:
        raise IndexFormatError(f"{path}: not a rumormatch index file (bad or truncated header)")
    if data[4] != INDEX_VERSION:
        raise IndexFormatError(
            f"{path}: index version {data[4]} not supported (want {INDEX_VERSION})"
        )
    try:
        end = data.find(b"\n", 5)
        if end < 0:
            raise ValueError("no LF ends the header line")
        header = json.loads(data[5:end].decode("utf-8"))
        article_ids, terms = header["article_ids"], header["terms"]
        if not isinstance(article_ids, list) or not isinstance(terms, list):
            raise TypeError("article_ids and terms must be lists")
        n_bytes = len(data) - end - 1
        if n_bytes % 8:
            raise ValueError(f"{n_bytes} bytes of arrays, not a multiple of 8")
        values = np.frombuffer(data, dtype="<i8", offset=end + 1)
        nnz = int(values[len(terms)]) if len(values) > len(terms) else 0  # indptr's last
        n_values = len(terms) + 1 + 2 * nnz
        if len(values) != n_values:
            raise ValueError(f"{len(values)} array values, want {n_values} for {len(terms)} "
                             f"terms and {nnz} postings")
        indptr, ordinals, counts = np.split(values, [len(terms) + 1, len(terms) + 1 + nnz])
        index = matchers.ArticleIndex(article_ids, terms, indptr, ordinals, counts)
        built_with, built_from = dict(header["tokenizer"]), header["articles_sha256"]
    except (ValueError, KeyError, TypeError) as exc:
        raise IndexFormatError(f"{path}: malformed index payload: {exc!r}") from exc
    if config is not None:
        want = index_provenance(config.tokenizer_config(), config.articles)
        for key in {**want["tokenizer"], **built_with}:  # a field either record lacks differs
            if built_with.get(key) != want["tokenizer"].get(key):
                raise IndexMismatchError(
                    f"{path}: index was built with another {key} than configured; re-run index")
        if want["articles_sha256"] not in (None, built_from):
            raise IndexMismatchError(
                f"{path}: index was built from other articles than {config.articles}; "
                "re-run index")
    return index


def _require_file(path, what):
    if path is None:
        raise FileNotFoundError(f"no {what} path configured")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} file not found: {path}")
    return path


def _load_articles(config: RunConfig) -> list[corpus.RumorArticle]:
    return corpus.load_articles(_require_file(config.articles, "articles"))


def _get_index(config: RunConfig, articles=None) -> matchers.ArticleIndex:
    """The saved index at index_path if there is one, else one built from
    ``articles`` or, when the caller holds none, from the articles file
    streamed into the build, so that no list of them is made."""
    if config.index_path and os.path.exists(config.index_path):
        return load_index(config.index_path, config)
    if articles is None:
        articles = corpus.iter_articles(_require_file(config.articles, "articles"))
    return matchers.build_index(articles, config.tokenizer_config())


# ---------------------------------------------------------------------------
# the scoring stream (worker state set up via fork)

CHUNK = 2000  # tweets per worker task
BLOCK = 64  # tweets per score_block call
PROGRESS_S = 10.0  # seconds between progress lines on stderr


@dataclass
class Scorer:
    """Everything a worker needs to score tweets with one matcher.

    ``score(block, words)`` maps B (tweet_id, text) and, if ``reads_tokens``,
    their words (``textpipe.tokenize_block``) to float64 scores
    (B, len(article_ids)) and the (B,) bool mask of defined rows; an
    undefined row scores 0 and is never a rumor. The words may hold
    stopwords and short words, which no matcher's vocabulary holds: the
    impact table's terms are tokenize's, and the vector file's are trimmed
    by ``textpipe.trim_vocabulary``. A BM25 or TF-IDF scorer holds its
    ImpactTable, not the ArticleIndex it was built from.
    """

    tok: textpipe.TokenizerConfig
    threshold: float
    article_ids: list[Optional[str]]  # one per score column
    score: Callable[[list, Optional[list]], tuple[np.ndarray, np.ndarray]]
    reads_tokens: bool
    wanted: frozenset[str] = frozenset()  # keyword terms whose hits the stream reports


def make_scorer(config: RunConfig, articles=None, index=None,
                wanted: frozenset[str] = frozenset()) -> Scorer:
    """Set up config.matcher, reusing the articles and index when given.

    Only BM25 and TF-IDF use the index (the saved one at index_path, if any),
    and keep only its impact table and article ids: an index that the caller
    does not hold is freed when this returns. EMBEDDING and DOCVEC score the
    articles they embed, in file order.
    LEXICON scores 1.0 on a pattern match, else 0.0, in one column against
    no article, at a fixed threshold of 0.
    """
    matcher = config.matcher
    if matcher not in MATCHERS:
        raise ValueError(f"unknown matcher {config.matcher!r}")
    tok = config.tokenizer_config()
    if matcher == "LEXICON":
        lexicon = (matchers.load_lexicon(config.lexicon) if config.lexicon
                   else matchers.default_lexicon())

        def score(block, words):
            hits = [matchers.match_lexicon(text, lexicon) for _, text in block]
            return np.array(hits, dtype=np.float64)[:, None], np.ones(len(block), dtype=bool)
        return Scorer(tok, 0.0, [None], score, False, wanted)
    if matcher in POSTINGS_MATCHERS:
        index = index or _get_index(config, articles)
        table = (index.bm25_table(config.bm25_params()) if matcher == "BM25"
                 else index.tfidf_table())

        # every table term is a term of tokenize: a stopword or short word has no id
        def score(block, words):
            return matchers.score_block(words, table), np.ones(len(block), dtype=bool)
        return Scorer(tok, config.threshold, index.article_ids, score, True, wanted)
    if articles is None:
        articles = _load_articles(config)
    if not articles:
        raise EmptyCorpusError("no articles to match against")
    article_ids = [a.id for a in articles]
    if matcher == "EMBEDDING":
        table = matchers.load_embeddings(_require_file(config.embeddings, "embeddings"))
        textpipe.trim_vocabulary(table.rows, tok)  # a stopword or short word has no row
        art_vecs = matchers.embed_articles(articles, table, tok)

        def score(block, words):
            return matchers.cosine_block(matchers.mean_vectors(words, table), art_vecs, norms)
    else:  # DOCVEC: one file holds the article and the tweet vectors, keyed by id
        table = matchers.load_embeddings(_require_file(config.doc_vectors, "doc_vectors"))
        art_vecs = table.lookup(article_ids)

        def score(block, words):
            return matchers.cosine_block(table.lookup([tid for tid, _ in block]), art_vecs, norms)
    norms = matchers.article_norms(art_vecs)
    return Scorer(tok, config.threshold, article_ids, score, matcher == "EMBEDDING", wanted)


_SCORER: Optional[Scorer] = None


def _init_worker(scorer: Scorer) -> None:
    global _SCORER
    _SCORER = scorer


_encode_str = json.encoder.encode_basestring  # the string encoder of json.dumps(ensure_ascii=False)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json.dumps' tokens


def _match_line(tweet_id: str, article_id: Optional[str], score: float, rumor) -> str:
    """One matches.jsonl line, without its newline: the text json.dumps gives
    the record with ensure_ascii=False, built directly."""
    aid = "null" if article_id is None else _encode_str(article_id)
    label = "RUMOR" if rumor else "NONRUMOR"
    text = repr(score)
    return (f'{{"tweet_id": {_encode_str(tweet_id)}, "article_id": {aid}, '
            f'"score": {_NON_FINITE.get(text, text)}, "label": "{label}"}}')


def _score_block(s: Scorer, block):
    """block: list of (tweet_id, text).

    Returns, in input order: the block's matches.jsonl lines; each tweet's
    argmax article ordinal, its score and whether it is a rumor, as three
    lists; and the wanted keyword terms among each tweet's tokens (None when
    no keyword is wanted).
    """
    words = None
    if s.reads_tokens or s.wanted:
        words = textpipe.tokenize_block([text for _, text in block], s.tok)
    scores, defined = s.score(block, words)
    ordinals = scores.argmax(axis=1)  # the first maximum: lowest ordinal wins ties
    top = scores[np.arange(len(block)), ordinals]
    rumor = (top > s.threshold) & defined  # strictly above h; undefined is never a rumor
    ordinals, top, rumor = ordinals.tolist(), top.tolist(), rumor.tolist()
    text = "\n".join([_match_line(tweet_id, a, v, r) for (tweet_id, _), a, v, r
                      in zip(block, _rumor_articles(s.article_ids, ordinals, rumor), top, rumor)])
    hits = [s.wanted.intersection(w) for w in words] if s.wanted else None  # keywords are terms
    return text + "\n", (ordinals, top, rumor), hits


def _rumor_articles(article_ids, ordinals, rumor) -> list[Optional[str]]:
    """Each tweet's article as matches.jsonl names it: its argmax article if
    it is a rumor, else None."""
    return [article_ids[o] if r else None for o, r in zip(ordinals, rumor)]


def _score_chunk(chunk):
    """chunk: list of (tweet_id, text). Scores it BLOCK tweets at a time and
    returns each block's _score_block result, in input order."""
    return [_score_block(_SCORER, chunk[start:start + BLOCK])
            for start in range(0, len(chunk), BLOCK)]


def _batches(items, size):
    it = iter(items)
    while batch := list(itertools.islice(it, size)):
        yield batch


def _scored_blocks(jobs: int, scorer: Scorer, tweets):
    """Yield (block of tweets, its _score_block result) in input order.

    Serially, each block of BLOCK tweets is read, scored and encoded before
    the next is read. With more than one job and more than CHUNK tweets,
    forked workers score tasks of CHUNK tweets block by block, at most
    2 * jobs tasks ahead of the consumer, so tweets are read only as fast as
    their results are used.
    """
    tweets = iter(tweets)
    first = list(itertools.islice(tweets, CHUNK + 1)) if jobs > 1 else []
    if len(first) <= CHUNK:
        for block in _batches(itertools.chain(first, tweets), BLOCK):
            yield block, _score_block(scorer, [(t.id, t.text) for t in block])
        return
    import multiprocessing  # here, so that a serial run never imports it

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(jobs, initializer=_init_worker, initargs=(scorer,)) as pool:
        pending = collections.deque()
        for chunk in _batches(itertools.chain(first, tweets), CHUNK):
            items = [(t.id, t.text) for t in chunk]
            pending.append((chunk, pool.apply_async(_score_chunk, (items,))))
            if len(pending) > 2 * jobs:
                done, result = pending.popleft()
                yield from zip(_batches(done, BLOCK), result.get())
        while pending:
            done, result = pending.popleft()
            yield from zip(_batches(done, BLOCK), result.get())


class LabeledResults:
    """The result of each labeled tweet, as numbers by label position.

    ``labels`` is the corpus.LabelSet of the labels given. ``scores``
    (float64), ``ordinals`` (int32 argmax article ordinal), ``rumor`` and
    ``seen`` (bool) hold one entry per label; a label is seen once ``select``
    passes its tweet on or the stream reaches it, and its results are filled
    then. A block of tweets finds its labels by ``LabelSet.positions``. The
    evaluations read the arrays, which are in label order, as they are.
    """

    def __init__(self, labels: Sequence[LabeledTweet]):
        self.labels = corpus.LabelSet.of(labels)
        n = len(self.labels)
        self.scores = np.zeros(n)
        self.ordinals = np.zeros(n, dtype=np.int32)
        self.rumor = np.zeros(n, dtype=bool)
        self.seen = np.zeros(n, dtype=bool)

    def positions(self, tweet_ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(js, label positions): each tweet_ids[j] of js, in order, is labeled,
        at the position alongside."""
        return self.labels.positions(tweet_ids)

    def select(self, tweets: Iterable[corpus.Tweet]) -> Iterator[corpus.Tweet]:
        """The labeled tweets among ``tweets``, in order, read BLOCK at a time;
        their labels are marked seen."""
        for block in _batches(tweets, BLOCK):
            js, found = self.positions([t.id for t in block])
            self.seen[found] = True
            yield from map(block.__getitem__, js.tolist())

    def add_block(self, tweet_ids, ordinals, scores, rumor) -> None:
        """Keep the results, as _score_block gives them, of the labeled tweets among tweet_ids."""
        js, found = self.positions(tweet_ids)
        js = js.tolist()
        self.ordinals[found] = [ordinals[j] for j in js]
        self.scores[found] = [scores[j] for j in js]
        self.rumor[found] = [rumor[j] for j in js]
        self.seen[found] = True

    def check_seen(self) -> None:
        """Raise DanglingTweetRefError for the first label whose tweet was not seen."""
        unseen = np.flatnonzero(~self.seen)
        if len(unseen):
            raise DanglingTweetRefError(self.labels[unseen[0]].tweet_id)


def run_match(config: RunConfig, tweets, out_path=None, *, scorer: Optional[Scorer] = None,
              labeled: Optional[LabeledResults] = None,
              acc: Optional[analysis.Accumulator] = None) -> None:
    """Score every tweet once, in input order, and hand each result on.

    Each tweet's matches.jsonl line goes to the file ``out_path`` (if given), each
    block's detections and keyword hits to ``acc`` (if given), and the
    results of the labeled tweets to ``labeled`` (if given). ``tweets`` may
    be any iterable of Tweet; nothing is kept per tweet but the labeled
    results. Output order equals input order regardless of worker count, so
    parallel and serial runs produce identical bytes.
    """
    if scorer is None:
        scorer = make_scorer(config)
    if config.jobs:
        jobs = config.jobs
    elif hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        jobs = len(os.sched_getaffinity(0))
    else:
        jobs = os.cpu_count() or 1
    done, last = 0, time.monotonic()
    with contextlib.ExitStack() as stack:
        write = None
        if out_path is not None:
            write = stack.enter_context(open(out_path, "w", encoding="utf-8", newline="")).write
        stream = stack.enter_context(contextlib.closing(_scored_blocks(jobs, scorer, tweets)))
        for block, (text, (ordinals, scores, rumor), hits) in stream:
            if write:
                write(text)
            if labeled is not None:
                labeled.add_block([t.id for t in block], ordinals, scores, rumor)
            if acc is not None:
                acc.add_block(block, rumor, _rumor_articles(scorer.article_ids, ordinals, rumor),
                              hits)
            done += len(block)
            if not config.quiet and time.monotonic() - last >= PROGRESS_S:
                print(f"matched {done:,} tweets", file=sys.stderr)
                last = time.monotonic()


def load_detections(path, article_ids: Optional[Container[str]] = None
                    ) -> Iterator[tuple[int, str, Optional[str], bool]]:
    """Yield (line_no, tweet_id, article_id, rumor) for each line of a
    matches.jsonl, in file order; article_id is None for a NONRUMOR line
    and for a LEXICON rumor. Each line is checked before it is yielded,
    against ``article_ids`` too when given."""
    for line_no, obj in corpus._iter_jsonl(path):
        tweet_id = corpus._require(obj, "tweet_id", path, line_no)
        if type(tweet_id) is not str:
            raise MalformedLineError(path, line_no,
                                     f"tweet_id must be a string, got {tweet_id!r}")
        corpus._encodable(tweet_id, "tweet_id", path, line_no)
        label = corpus._require(obj, "label", path, line_no)
        if label not in (Label.RUMOR.value, Label.NONRUMOR.value):
            raise MalformedLineError(path, line_no,
                                     f"label must be RUMOR or NONRUMOR, got {label!r}")
        rumor = label == Label.RUMOR.value
        article_id = obj.get("article_id") if rumor else None
        if article_id is not None:
            if type(article_id) is not str:
                raise MalformedLineError(path, line_no,
                                         f"article_id must be a string, got {article_id!r}")
            corpus._encodable(article_id, "article_id", path, line_no)
        if article_ids is not None and article_id is not None and article_id not in article_ids:
            raise MalformedLineError(path, line_no,
                                     f"article_id {article_id!r} is not the id of an article")
        yield line_no, tweet_id, article_id, rumor


# ---------------------------------------------------------------------------
# subcommands


def cmd_index(config: RunConfig, stage, articles=None) -> matchers.ArticleIndex:
    """Build the index, save it, and return it for the rest of the run.
    Without ``articles``, the articles file is streamed into the build."""
    if articles is None:
        articles = corpus.iter_articles(_require_file(config.articles, "articles"))
    tok = config.tokenizer_config()
    index = matchers.build_index(articles, tok)
    out = config.index_path or os.path.join(config.out, "index.rmix")
    save_index(index, stage(out), index_provenance(tok, config.articles))
    if not config.quiet:
        print(f"indexed {index.n_articles} articles -> {out}", file=sys.stderr)
    return index


def cmd_match(config: RunConfig, stage) -> None:
    tweets = corpus.iter_tweets(_require_file(config.tweets, "tweets"))
    scorer = make_scorer(config)  # a set-up fault stages nothing, so out/ is not made
    run_match(config, tweets, stage(os.path.join(config.out, "matches.jsonl")), scorer=scorer)


def _read_labels(config: RunConfig, articles) -> corpus.LabelSet:
    return corpus.read_labels(_require_file(config.labels, "labels"), [a.id for a in articles])


PR_HEADER = ("threshold", "precision", "recall", "f1")


def pr_rows(points: Iterable[evaluation.PRPoint]) -> Iterator[tuple]:
    """PR points as CSV rows, one at a time; a fixed (threshold-free) point carries 'fixed'."""
    for p in points:
        yield ("fixed" if math.isnan(p.threshold) else p.threshold, p.precision, p.recall, p.f1)


def _write_classify(config: RunConfig, stage, labels, results: LabeledResults) -> None:
    """pr_curve.csv and max_f1.csv from the labeled tweets' results."""
    if config.matcher == "LEXICON":
        point = evaluation.fixed_point_eval(results.rumor, labels)
        points, best = [point], point
    else:
        result = evaluation.sweep(results.scores, labels)
        points, best = result.points, result.max_f1_point
    write_csv(stage(os.path.join(config.out, "pr_curve.csv")), PR_HEADER, pr_rows(points))
    write_csv(stage(os.path.join(config.out, "max_f1.csv")), PR_HEADER, pr_rows([best]))


def cmd_eval(config: RunConfig, stage, task: str) -> None:
    if task == "IDENTIFY" and config.matcher == "LEXICON":
        raise ValueError("eval identify needs a matcher that names an article: "
                         f"{', '.join(VECTOR_MATCHERS)} or ALL, not LEXICON")
    tweets_path = _require_file(config.tweets, "tweets")
    articles = _load_articles(config)
    labels = _read_labels(config, articles)
    # a label-class fault needs no tweet: it is raised before any is read
    evaluation.check_classes(labels, fixed_point=task == "IDENTIFY" or config.matcher == "LEXICON")
    labeled = LabeledResults(labels)
    tweets = labeled.select(corpus.iter_tweets(tweets_path))
    os.makedirs(config.out, exist_ok=True)

    if task == "CLASSIFY":
        run_match(config, tweets, scorer=make_scorer(config, articles), labeled=labeled)
        labeled.check_seen()
        _write_classify(config, stage, labels, labeled)
        return

    # IDENTIFY: the labeled RUMOR tweets are held, and each matcher scores them into one
    # result set; once every label is seen, each run rewrites every entry of it
    results = LabeledResults(labels.subset(labels.rumor))
    tweets = list(results.select(tweets))
    labeled.check_seen()
    names = [config.matcher]
    if config.matcher == "ALL":  # skip a vector matcher without its file; a named one needs it
        missing = {"EMBEDDING": not config.embeddings, "DOCVEC": not config.doc_vectors}
        names = [name for name in VECTOR_MATCHERS if not missing.get(name)]
    index = _get_index(config, articles) if set(names) & set(POSTINGS_MATCHERS) else None
    rows = []
    for name in names:
        # threshold -inf: identification needs the argmax article of every tweet;
        # a copy keeps the tokenizer config the run has built
        sub = copy.copy(config)
        sub.matcher, sub.threshold = name, float("-inf")
        scorer = make_scorer(sub, articles, index)
        run_match(sub, tweets, scorer=scorer, labeled=results)
        best = _rumor_articles(scorer.article_ids, results.ordinals.tolist(),
                               results.rumor.tolist())
        accuracy = evaluation.identification_accuracy(best, results.labels)
        rows.append((name, accuracy, len(results.labels)))
    write_csv(stage(os.path.join(config.out, "identification.csv")),
              ("matcher", "accuracy", "n_evaluated"), rows)


ANALYSES = ("ratio", "users", "keywords", "attribution", "timeline")


def _accumulator(config: RunConfig, which=ANALYSES) -> analysis.Accumulator:
    """The accumulator of the analyses in ``which``, counting keyword hits for keywords only."""
    keywords = config.keywords if "keywords" in which else []
    tok = config.tokenizer_config() if keywords else None
    return analysis.Accumulator(config.window(), config.bin_width, keywords, tok)


def _write_analyses(config: RunConfig, stage, acc, which, articles) -> None:
    """Write the selected analyses, in ANALYSES order, from one filled accumulator."""
    groups = acc.groups()

    def write(name, header, rows):
        write_csv(stage(os.path.join(config.out, name)), header, rows)

    if "ratio" in which:
        write("group_ratio.csv", ("group", "window", "ratio"),
              [(group, window, acc.group_ratio(group, windowed=window == "election"))
               for group in groups for window in ("entire", "election")])

    if "users" in which:
        write("concentration.csv", ("fraction", "share"),
              [(f, acc.user_concentration(f)) for f in config.top_fractions])
        write("user_ranking.csv", ("user_id", "rumor_count", "total_count", "ratio"),
              acc.user_ranking(config.top_n))

    if "keywords" in which and config.keywords:
        write("keywords.csv", ("keyword", "rumor_count", "nonrumor_count"),
              [(k, *counts) for k, counts in acc.keyword_breakdown().items()])

    if "attribution" in which:
        rows = []
        for group in groups:
            values = acc.content_attribution(articles, group)
            for subject, value in sorted(values.items(), key=lambda kv: kv[0].value):
                rows.append((group, subject, value))
        write("attribution.csv", ("group", "subject", "value"), rows)

    if "timeline" in which:  # one array of counts; a row is made as it is written
        counts = acc.timeline_counts()
        peaks = set(analysis.detect_peaks(counts, config.peak_k))
        start, width = acc.window.start, acc.bin_width
        write("timeline.csv", ("bin_start_iso8601", "count", "is_peak"),
              ((time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(start + i * width)), int(count),
                "true" if i in peaks else "false")
               for i, count in enumerate(counts)))


def cmd_analyze(config: RunConfig, stage, which: list[str]) -> None:
    matches_path = os.path.join(config.out, "matches.jsonl")
    _require_file(matches_path, "matches")
    tweets_path = _require_file(config.tweets, "tweets")
    articles = article_ids = None
    if "attribution" in which:  # a subject that no article is about fails before the pass
        articles = _load_articles(config)
        analysis.subject_article_counts(articles)
        article_ids = {a.id for a in articles}
    acc = _accumulator(config, which)

    def pairs():
        # line k of matches.jsonl is the result for the k-th tweet, as run_match writes it
        line_no = 0
        for t, line in itertools.zip_longest(corpus.iter_tweets(tweets_path),
                                             load_detections(matches_path, article_ids)):
            line_no, tweet_id, article_id, rumor = line or (line_no + 1, None, None, False)
            if t is None or tweet_id != t.id:
                raise MalformedLineError(matches_path, line_no, (
                    f"no line for tweet {t.id!r}" if line is None else
                    f"tweet {tweet_id!r} after the last tweet" if t is None else
                    f"tweet {tweet_id!r} where {t.id!r} is due"
                ) + f"; the lines must follow the tweets of {tweets_path} one for one")
            yield t, rumor, article_id

    for block in _batches(pairs(), BLOCK):
        acc.add_block(*zip(*block))
    _write_analyses(config, stage, acc, which, articles)


def cmd_all(config: RunConfig, stage) -> None:
    """index, match, eval classify (with labels) and every analysis in one pass.

    The articles are read and indexed once, and only the index's impact
    table is kept for the pass; each tweet is read, tokenized and scored
    once, and its result feeds matches.jsonl, the labeled scores and the
    analysis accumulator. The files are the bytes the four commands write
    when run one after another; `index.rmix`, staged first, is renamed last.
    """
    articles = _load_articles(config)
    # the faults that the articles and labels show are raised before any output
    analysis.subject_article_counts(articles)
    labels = _read_labels(config, articles) if config.labels else None
    if labels is not None:
        evaluation.check_classes(labels, fixed_point=config.matcher == "LEXICON")
    acc = _accumulator(config)
    scorer = make_scorer(config, articles, cmd_index(config, stage, articles), acc.wanted)
    labeled = LabeledResults(labels) if labels is not None else None
    run_match(
        config, corpus.iter_tweets(_require_file(config.tweets, "tweets")),
        stage(os.path.join(config.out, "matches.jsonl")), scorer=scorer, labeled=labeled, acc=acc,
    )
    if labeled is not None:
        labeled.check_seen()
        _write_classify(config, stage, labels, labeled)
    _write_analyses(config, stage, acc, ANALYSES, articles)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumormatch",
        description="Detect rumor tweets by matching them against verified rumor articles.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--matcher", help=f"matching algorithm: {', '.join(MATCHERS)}, "
                        "or ALL for eval identify (any case)")
    parser.add_argument("--threshold", type=float, help="classification threshold h")
    parser.add_argument("--jobs", type=int, help="parallel workers for match "
                        "(0 = every CPU this process may run on)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--quiet", action="store_true", default=None)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("index", help="build and serialize the article index")
    sub.add_parser("match", help="score and classify every tweet")
    eval_p = sub.add_parser("eval", help="run an evaluation protocol")
    eval_p.add_argument("task", choices=["classify", "identify"])
    analyze_p = sub.add_parser("analyze", help="corpus analyses over match output")
    # no `choices`: argparse would check the list default against them as one value
    analyze_p.add_argument("which", nargs="*", default=list(ANALYSES),
                           help=f"analyses to run (default: all of {', '.join(ANALYSES)})")
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
        if config.matcher == "ALL" and getattr(args, "task", None) != "identify":
            raise ValueError("config key 'matcher' may be ALL only for eval identify")
        with contextlib.ExitStack() as outputs:  # renamed last staged first, or removed on a fault
            def stage(path):
                return outputs.enter_context(atomic_write_text(path))
            if args.command == "index":
                cmd_index(config, stage)
            elif args.command == "match":
                cmd_match(config, stage)
            elif args.command == "eval":
                cmd_eval(config, stage, args.task.upper())
            elif args.command == "analyze":
                unknown = [w for w in args.which if w not in ANALYSES]
                if unknown:
                    raise ValueError(f"unknown analysis {unknown[0]!r} "
                                     f"(choose from {', '.join(ANALYSES)})")
                cmd_analyze(config, stage, args.which)
            elif args.command == "all":
                cmd_all(config, stage)
    except (OSError, CorpusError, InputFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EmptyCorpusError, AllEmptyAfterTokenizeError,
            EmptyDenominatorError, NoRumorsError, ZeroArticlesForSubjectError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (DegenerateLabelsError, NoRumorLabelsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except RumorMatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
