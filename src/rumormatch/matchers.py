"""The five scoring algorithms behind one contract: given a tweet, produce
per-article scores and the best-matching reference article.

Articles are the indexed documents, tweets are queries: the reference set is
small and fixed while tweets number in the millions, so all per-article
statistics are precomputed once into an inverted index.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

import numpy as np

from .corpus import Label, RumorArticle
from .errors import (
    AllEmptyAfterTokenizeError,
    DimMismatchError,
    EmptyCorpusError,
    EmptyScoresError,
)
from .textpipe import TokenizerConfig, build_vocabulary, tokenize


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2  # term-frequency saturation
    b: float = 0.75  # document-length normalization

    def __post_init__(self):
        if self.k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


# A term that posts to at least 1/DENSE_SHARE of the articles gets a dense
# impact row; all other terms are stored as CSR rows.
DENSE_SHARE = 5


@dataclass(frozen=True)
class ImpactTable:
    """Per-term impact rows over article ordinals for one weighting.

    Term t scores ``impact[t, j]`` on article j. Head terms (see DENSE_SHARE)
    keep a dense row ``dense_rows[dense_slot[t]]`` and an empty CSR row; all
    other terms keep their postings in ``indptr``/``indices``/``data`` with
    ordinals ascending. ``query_idf`` is set for TF-IDF, whose query terms
    carry the weight ``count * idf / |q|``; BM25 queries weigh each unique
    term once.
    """

    n_articles: int
    indptr: np.ndarray  # (V + 1,) int64
    indices: np.ndarray  # (nnz,) int64 article ordinals
    data: np.ndarray  # (nnz,) float64 impacts
    dense_slot: np.ndarray  # (V,) int64 row of dense_rows, or -1
    dense_rows: np.ndarray  # (n_dense, n_articles) float64
    query_idf: Optional[np.ndarray] = None  # (V,) float64, TF-IDF only


class ArticleIndex:
    """Inverted index over the reference articles.

    Immutable after construction. Holds the raw postings as CSR arrays over
    term ids (``indptr``, ``ordinals``, ``counts``; ordinals ascending within
    a term) and builds one ImpactTable per weighting on first use: BM25 per
    BM25Params, TF-IDF from the L2-normalized tf*idf postings.
    """

    def __init__(self, articles: list[RumorArticle], tok: Optional[TokenizerConfig] = None):
        if not articles:
            raise EmptyCorpusError("no articles to index")
        self.tokenizer_config = tok or TokenizerConfig()
        self.article_ids = [a.id for a in articles]
        docs = [tokenize(a.body, self.tokenizer_config) for a in articles]
        if all(not d for d in docs):
            raise AllEmptyAfterTokenizeError("every article tokenized to empty")
        self.empty_article_ids = [a.id for a, d in zip(articles, docs) if not d]
        self.vocabulary = build_vocabulary(docs)
        self.doc_len = np.array([len(d) for d in docs], dtype=np.float64)

        # one (term id, ordinal) key per token; unique keys sort term-major
        term_ids = self.vocabulary.term_ids
        ids = np.fromiter((term_ids[t] for d in docs for t in d), dtype=np.int64,
                          count=int(self.doc_len.sum()))
        ords = np.repeat(np.arange(len(docs), dtype=np.int64), self.doc_len.astype(np.int64))
        keys, counts = np.unique(ids * len(docs) + ords, return_counts=True)
        self.indptr = np.zeros(self.vocabulary.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // len(docs), minlength=self.vocabulary.size),
                  out=self.indptr[1:])
        self.ordinals = keys % len(docs)
        self.counts = counts.astype(np.float64)
        self._tables: dict[object, ImpactTable] = {}

    @classmethod
    def from_parts(cls, article_ids, empty_article_ids, doc_len, avgdl, terms, postings):
        """Rebuild an index from serialized parts (see cli.save_index)."""
        from .textpipe import Vocabulary  # local to avoid shadowing module import

        index = cls.__new__(cls)
        index.tokenizer_config = None  # not needed once postings exist
        index.article_ids = list(article_ids)
        index.empty_article_ids = list(empty_article_ids)
        index.doc_len = np.asarray(doc_len, dtype=np.float64)
        df = [len(postings[t][0]) for t in terms]
        index.vocabulary = Vocabulary(
            term_ids={t: i for i, t in enumerate(terms)},
            doc_freq=dict(zip(terms, df)),
            n_docs=len(article_ids),
            avgdl=avgdl,
        )
        index.indptr = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(df, out=index.indptr[1:])
        index.ordinals = np.fromiter((o for t in terms for o in postings[t][0]),
                                     dtype=np.int64, count=int(index.indptr[-1]))
        index.counts = np.fromiter((c for t in terms for c in postings[t][1]),
                                   dtype=np.float64, count=int(index.indptr[-1]))
        index._tables = {}
        return index

    @property
    def n_articles(self) -> int:
        return len(self.article_ids)

    @property
    def postings(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per-term (ordinals, counts) views of the raw postings, for serialization."""
        p = self.indptr
        return {t: (self.ordinals[p[i]:p[i + 1]], self.counts[p[i]:p[i + 1]])
                for t, i in self.vocabulary.term_ids.items()}

    def _posting_terms(self) -> np.ndarray:
        """Term id of every raw posting."""
        return np.repeat(np.arange(self.vocabulary.size, dtype=np.int64), np.diff(self.indptr))

    def _idf(self, formula) -> np.ndarray:
        """Per-term idf from document frequency; math.log keeps it the same on every host."""
        n = self.n_articles
        return np.array([formula(n, int(df)) for df in np.diff(self.indptr)], dtype=np.float64)

    def bm25_table(self, params: BM25Params) -> ImpactTable:
        """Impacts idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)), cached per params."""
        table = self._tables.get(params)
        if table is None:
            k1, b = params.k1, params.b
            norm = k1 * (1.0 - b + b * self.doc_len / max(self.vocabulary.avgdl, 1e-12))
            idf = self._idf(lambda n, df: math.log(1.0 + (n - df + 0.5) / (df + 0.5)))
            counts = self.counts
            impacts = idf[self._posting_terms()] * counts * (k1 + 1.0) / (
                counts + norm[self.ordinals])
            table = self._tables[params] = self._impact_table(impacts)
        return table

    def tfidf_table(self) -> ImpactTable:
        """Impacts tf * idf / |d|, idf = ln(N / df); all-zero articles stay zero."""
        table = self._tables.get("TFIDF")
        if table is None:
            idf = self._idf(lambda n, df: math.log(n / df))
            w = self.counts * idf[self._posting_terms()]
            # per-article squared norms, summed in ascending term id
            norms = np.sqrt(np.bincount(self.ordinals, weights=w * w, minlength=self.n_articles))
            safe = np.where(norms > 0, norms, 1.0)
            table = self._tables["TFIDF"] = self._impact_table(w / safe[self.ordinals], idf)
        return table

    def _impact_table(self, impacts, query_idf=None) -> ImpactTable:
        df = np.diff(self.indptr)
        dense = df * DENSE_SHARE >= self.n_articles
        dense_slot = np.where(dense, np.cumsum(dense) - 1, -1)
        terms = self._posting_terms()
        head = dense[terms]
        dense_rows = np.zeros((int(dense.sum()), self.n_articles))
        dense_rows[dense_slot[terms[head]], self.ordinals[head]] = impacts[head]
        indptr = np.zeros_like(self.indptr)
        np.cumsum(np.where(dense, 0, df), out=indptr[1:])
        return ImpactTable(
            n_articles=self.n_articles, indptr=indptr, indices=self.ordinals[~head],
            data=impacts[~head], dense_slot=dense_slot, dense_rows=dense_rows,
            query_idf=query_idf,
        )


def build_index(articles, tok: Optional[TokenizerConfig] = None) -> ArticleIndex:
    return ArticleIndex(articles, tok)


def score_block(token_lists: list[list[str]], index: ArticleIndex,
                table: ImpactTable) -> np.ndarray:
    """Scores of a block of tweets against every article, shape (B, n_articles).

    Each tweet's tokens become its sorted unique term ids. Every score sums
    its terms in one canonical order: CSR terms in ascending term id (one
    bincount over row * N + ordinal), then dense terms in ascending term id.
    A row's result therefore does not depend on the other rows of the block,
    the block size, the worker count or the string hash seed.
    """
    n_rows, n, vocab = len(token_lists), table.n_articles, index.vocabulary.size
    term_ids = index.vocabulary.term_ids
    ids = np.array([term_ids.get(t, -1) for toks in token_lists for t in toks], dtype=np.int64)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), [len(toks) for toks in token_lists])
    known = ids >= 0
    keys, tf = np.unique(rows[known] * vocab + ids[known], return_counts=True)
    rows, ids = keys // vocab, keys % vocab

    scale = None
    if table.query_idf is not None:
        w = tf * table.query_idf[ids]
        # |q| sums w^2 in ascending term id; a zero query scores zero everywhere
        q_norm = np.sqrt(np.bincount(rows, weights=w * w, minlength=n_rows))
        keep = q_norm[rows] > 0
        rows, ids = rows[keep], ids[keep]
        scale = w[keep] / q_norm[rows]

    slot = table.dense_slot[ids]
    tail = slot < 0
    starts = table.indptr[ids[tail]]
    lens = table.indptr[ids[tail] + 1] - starts
    ends = np.cumsum(lens)
    pos = np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - lens), lens)
    impacts = table.data[pos]
    if scale is not None:
        impacts = impacts * np.repeat(scale[tail], lens)
    scores = np.bincount(np.repeat(rows[tail] * n, lens) + table.indices[pos],
                         weights=impacts, minlength=n_rows * n)
    # bincount of no postings returns integer zeros
    scores = scores.astype(np.float64, copy=False).reshape(n_rows, n)

    head = ~tail
    dense = table.dense_rows
    if scale is None:
        for r, k in zip(rows[head].tolist(), slot[head].tolist()):
            scores[r] += dense[k]
    else:
        for r, k, q in zip(rows[head].tolist(), slot[head].tolist(), scale[head].tolist()):
            scores[r] += q * dense[k]
    return scores


def score_tfidf(tweet_tokens: list[str], index: ArticleIndex) -> np.ndarray:
    """Cosine between the tweet's TF-IDF vector and each article's; in [0, 1]."""
    return score_block([tweet_tokens], index, index.tfidf_table())[0]


def score_bm25(
    tweet_tokens: list[str], index: ArticleIndex, params: Optional[BM25Params] = None
) -> np.ndarray:
    """BM25 with the tweet as query; each unique query term contributes once."""
    return score_block([tweet_tokens], index, index.bm25_table(params or BM25Params()))[0]


@dataclass
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]

    def __contains__(self, term):
        return term in self.vectors


def load_embeddings(path) -> EmbeddingTable:
    """word2vec text format: header '<count> <dim>', then 'term v1 .. vdim'."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected '<count> <dim>' header")
        dim = int(header[1])
        vectors = {}
        for line_no, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            term, values = parts[0], parts[1:]
            if len(values) != dim:
                raise DimMismatchError(
                    f"{path}:{line_no}: expected {dim} components, got {len(values)}"
                )
            vectors[term] = np.array(values, dtype=np.float64)
    return EmbeddingTable(dim=dim, vectors=vectors)


def embed_tokens(tokens: list[str], table: EmbeddingTable) -> Optional[np.ndarray]:
    """Mean of the table vectors of in-vocabulary tokens; None when undefined."""
    vecs = [table.vectors[t] for t in tokens if t in table.vectors]
    if not vecs:
        return None
    mean = np.mean(vecs, axis=0)
    if not np.any(mean):
        return None
    return mean


def embed_articles(articles, table: EmbeddingTable, tok=None) -> np.ndarray:
    """Average each article body through the table; undefined articles get zeros."""
    out = np.zeros((len(articles), table.dim))
    for i, article in enumerate(articles):
        vec = embed_tokens(tokenize(article.body, tok or TokenizerConfig()), table)
        if vec is not None:
            out[i] = vec
    return out


def article_vectors_from_file(article_ids, path) -> np.ndarray:
    """Doc2Vec pathway: per-article vectors keyed by article id, same file format."""
    table = load_embeddings(path)
    out = np.zeros((len(article_ids), table.dim))
    for i, aid in enumerate(article_ids):
        if aid in table.vectors:
            out[i] = table.vectors[aid]
    return out


def score_embedding(
    tweet_tokens: list[str], article_vectors: np.ndarray, table: EmbeddingTable
) -> tuple[np.ndarray, bool]:
    """Cosine of mean tweet vector against each article vector.

    Returns (scores, defined). When the tweet has no in-vocabulary tokens or
    averages to the zero vector, all scores are 0 and defined is False
    (UNDEFINED_REPRESENTATION).
    """
    if article_vectors.ndim != 2 or article_vectors.shape[1] != table.dim:
        raise DimMismatchError(
            f"article vectors have dim {article_vectors.shape[-1]}, table has {table.dim}"
        )
    n = article_vectors.shape[0]
    q = embed_tokens(tweet_tokens, table)
    if q is None:
        return np.zeros(n), False
    q_norm = np.linalg.norm(q)
    a_norms = np.linalg.norm(article_vectors, axis=1)
    safe = np.where(a_norms > 0, a_norms, 1.0)
    scores = (article_vectors @ q) / (safe * q_norm)
    scores[a_norms == 0] = 0.0
    return scores, True


@dataclass
class LexiconPatternSet:
    patterns: list[re.Pattern] = field(default_factory=list)

    @classmethod
    def from_lines(cls, lines):
        patterns = []
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#"):
                patterns.append(re.compile(line, re.IGNORECASE))
        return cls(patterns=patterns)


def default_lexicon() -> LexiconPatternSet:
    text = resources.files("rumormatch.data").joinpath("lexicon.txt").read_text("utf-8")
    return LexiconPatternSet.from_lines(text.splitlines())


def load_lexicon(path) -> LexiconPatternSet:
    with open(path, encoding="utf-8") as fh:
        return LexiconPatternSet.from_lines(fh)


def match_lexicon(text: str, patterns: LexiconPatternSet) -> bool:
    """True iff any pattern matches the raw (pre-tokenization) text."""
    return any(p.search(text) for p in patterns.patterns)


@dataclass(frozen=True)
class MatchResult:
    tweet_id: str
    best_article_id: Optional[str]
    best_score: float


def best_match(scores: np.ndarray, index: ArticleIndex) -> tuple[str, float]:
    """Argmax over articles; ties break to the lowest ordinal."""
    if len(scores) == 0:
        raise EmptyScoresError("no scores to rank")
    if len(scores) != index.n_articles:
        raise ValueError("score list length does not match article count")
    ordinal = int(np.argmax(scores))  # argmax returns the first maximum
    return index.article_ids[ordinal], float(scores[ordinal])


def classify(result: MatchResult, threshold: float) -> Label:
    """RUMOR iff the best score is strictly larger than the threshold."""
    return Label.RUMOR if result.best_score > threshold else Label.NONRUMOR
