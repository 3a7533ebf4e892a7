"""The five scoring algorithms behind one contract: given a tweet, produce
per-article scores and the best-matching reference article.

Articles are the indexed documents, tweets are queries: the reference set is
small and fixed while tweets number in the millions, so all per-article
statistics are precomputed once into an inverted index.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
import os
import re
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .corpus import Label, _text_lines
from .errors import (
    AllEmptyAfterTokenizeError,
    DimMismatchError,
    EmptyCorpusError,
    EmptyScoresError,
    MalformedLineError,
)
from .textpipe import TokenizerConfig, entries, packaged_list, tokenize_texts


@dataclass(frozen=True)
class BM25Params:
    k1: float = 1.2  # term-frequency saturation
    b: float = 0.75  # document-length normalization

    def __post_init__(self):
        if not 0.0 <= self.k1 < math.inf:
            raise ValueError(f"'k1' must be finite and >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"'b' must be in [0, 1], got {self.b}")


# A term that posts to at least 1/DENSE_SHARE of the articles gets a dense
# impact row; all other terms are stored as CSR rows.
DENSE_SHARE = 5


@dataclass(frozen=True)
class ImpactTable:
    """Per-term impact rows over article ordinals for one weighting: all that
    score_block needs, so a scorer holds the table and not its ArticleIndex.

    ``term_ids`` maps each term to its id t: the index's own dict, shared,
    not copied. Term t scores ``impact[t, j]`` on article j. Head terms (see
    DENSE_SHARE) keep a dense row ``dense_rows[dense_slot[t]]`` and an empty
    CSR row; all other terms keep their postings in
    ``indptr``/``indices``/``data`` with ordinals ascending. ``query_idf`` is
    set for TF-IDF, whose query terms carry the weight ``count * idf / |q|``;
    BM25 queries weigh each unique term once.
    """

    term_ids: Mapping[str, int]
    n_articles: int
    indptr: np.ndarray  # (V + 1,) int64
    indices: np.ndarray  # (nnz,) int64 article ordinals
    data: np.ndarray  # (nnz,) float64 impacts
    dense_slot: np.ndarray  # (V,) int64 row of dense_rows, or -1
    dense_rows: np.ndarray  # (n_dense, n_articles) float64
    query_idf: Optional[np.ndarray] = None  # (V,) float64, TF-IDF only

    @functools.cached_property
    def dense_views(self) -> list[np.ndarray]:
        """The rows of dense_rows as a list of views, made once per table."""
        return list(self.dense_rows)


class ArticleIndex:
    """Inverted index over the reference articles: exactly its arrays.

    ``terms[t]`` is the term with id t. The raw postings are CSR arrays over
    term ids: ``ordinals[indptr[t]:indptr[t + 1]]`` are the articles term t
    occurs in (ascending) and ``counts`` its counts there. ``doc_len``, derived
    from them, holds each article's token count: its sum of posting counts.
    Immutable after construction; one ImpactTable per weighting is built on
    first use: BM25 per BM25Params, TF-IDF from the L2-normalized tf*idf postings.
    A table shares ``term_ids`` but holds no view of the raw postings, which
    are freed with the index once nothing else holds it.
    """

    def __init__(self, article_ids, terms, indptr, ordinals, counts):
        """Hold the arrays and derive doc_len; ValueError if they do not fit together."""
        self.article_ids = list(article_ids)
        self.terms = list(terms)
        self.term_ids = {t: i for i, t in enumerate(self.terms)}
        self.indptr = _int_array(indptr, "indptr")
        self.ordinals = _int_array(ordinals, "ordinals")
        self.counts = _int_array(counts, "counts")
        if any(a.ndim != 1 for a in (self.indptr, self.ordinals, self.counts)):
            raise ValueError("every array must be flat")
        if not self.article_ids:
            raise ValueError("no articles")
        if not set(map(type, self.article_ids)) | set(map(type, self.terms)) <= {str}:
            raise ValueError("article ids and terms must be strings")
        if len(set(self.article_ids)) != len(self.article_ids):
            raise ValueError("duplicate article id")
        if len(self.term_ids) != len(self.terms):
            raise ValueError("duplicate term")
        if len(self.indptr) != len(self.terms) + 1:
            raise ValueError(f"{len(self.indptr)} indptr for {len(self.terms)} terms")
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must start at 0 and rise")
        if not self.indptr[-1] == len(self.ordinals) == len(self.counts):
            raise ValueError(f"indptr ends at {self.indptr[-1]}, with {len(self.ordinals)} "
                             f"ordinals and {len(self.counts)} counts")
        ords = self.ordinals
        if len(ords) and not 0 <= ords.min() <= ords.max() < self.n_articles:
            raise ValueError(f"ordinal out of range for {self.n_articles} articles")
        first = np.zeros(len(ords) + 1, dtype=bool)
        first[self.indptr] = True  # each term's first posting, and the end
        if np.any((ords[1:] <= ords[:-1]) & ~first[1:-1]):
            raise ValueError("ordinals must rise within each term")
        if np.any(self.counts < 1):
            raise ValueError("every count must be 1 or more")
        # bincount of no postings returns integer zeros
        self.doc_len = np.bincount(ords, weights=self.counts, minlength=self.n_articles).astype(
            np.float64, copy=False)
        self._tables: dict[object, ImpactTable] = {}

    @property
    def n_articles(self) -> int:
        return len(self.article_ids)

    def _idf(self, formula) -> np.ndarray:
        """Per-term idf from document frequency, through math.log. A libm need not
        round log correctly (glibc 2.36 is more than 0.5 ulp off for some of
        these arguments), so a host with another libm may give other bits."""
        n = self.n_articles
        return np.array([formula(n, int(df)) for df in np.diff(self.indptr)], dtype=np.float64)

    def bm25_table(self, params: BM25Params) -> ImpactTable:
        """Impacts idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)), cached per params."""
        table = self._tables.get(params)
        if table is None:
            k1, b = params.k1, params.b
            # doc_len holds whole numbers: their sum is exact in any order below 2**53, so
            # the mean is one correctly rounded division on every host
            norm = k1 * (1.0 - b + b * self.doc_len / max(self.doc_len.mean(), 1e-12))
            idf = self._idf(lambda n, df: math.log(1.0 + (n - df + 0.5) / (df + 0.5)))
            # in place, in the formula's order of operations: one posting-long
            # temporary at a time, and the bits of the expression written out
            impacts = np.repeat(idf, np.diff(self.indptr))
            impacts *= self.counts
            impacts *= k1 + 1.0
            denominators = norm[self.ordinals]
            denominators += self.counts
            impacts /= denominators
            del denominators
            table = self._tables[params] = self._impact_table(impacts)
        return table

    def tfidf_table(self) -> ImpactTable:
        """Impacts tf * idf / |d|, idf = ln(N / df); all-zero articles stay zero."""
        table = self._tables.get("TFIDF")
        if table is None:
            idf = self._idf(lambda n, df: math.log(n / df))
            w = np.repeat(idf, np.diff(self.indptr))  # in place, as in bm25_table
            w *= self.counts
            # per-article squared norms, summed in ascending term id
            norms = np.sqrt(np.bincount(self.ordinals, weights=w * w, minlength=self.n_articles))
            safe = np.where(norms > 0, norms, 1.0)
            w /= safe[self.ordinals]
            table = self._tables["TFIDF"] = self._impact_table(w, idf)
        return table

    def _impact_table(self, impacts, query_idf=None) -> ImpactTable:
        df = np.diff(self.indptr)
        dense = df * DENSE_SHARE >= self.n_articles
        dense_slot = np.where(dense, np.cumsum(dense) - 1, -1)
        head = np.repeat(dense, df)
        dense_rows = np.zeros((int(dense.sum()), self.n_articles))
        dense_rows[np.repeat(dense_slot[dense], df[dense]), self.ordinals[head]] = impacts[head]
        tail = ~head
        del head
        indptr = np.zeros_like(self.indptr)
        np.cumsum(np.where(dense, 0, df), out=indptr[1:])
        return ImpactTable(
            term_ids=self.term_ids, n_articles=self.n_articles, indptr=indptr,
            indices=self.ordinals[tail], data=impacts[tail], dense_slot=dense_slot,
            dense_rows=dense_rows, query_idf=query_idf,
        )


def _int_array(values, name) -> np.ndarray:
    """``values`` as an int64 array; ValueError unless numpy gives them an integer dtype."""
    values = np.asarray(values)
    if values.dtype.kind != "i":
        raise ValueError(f"{name} must hold integers only")
    return values.astype(np.int64, copy=False)


# Articles tokenized at a time by build_index and embed_articles, and
# averaged at a time by embed_articles.
EMBED_BLOCK = 64


def build_index(articles, tok: Optional[TokenizerConfig] = None) -> ArticleIndex:
    """Tokenize the article bodies and index them; term ids follow first appearance.

    ``articles`` may be any iterable, such as corpus.iter_articles: one
    block of EMBED_BLOCK articles, and their tokens, is held at a time. Each
    token is mapped to its term id before the next block is read, so only
    the article ids and the int term ids of the whole corpus are kept until
    the postings are inverted. No article at all is an EmptyCorpusError.
    """
    tok = tok or TokenizerConfig()
    term_ids: dict[str, int] = {}
    article_ids = []
    ids = array.array("q")  # every token's term id, article by article
    doc_len = array.array("q")
    articles = iter(articles)
    while block := list(itertools.islice(articles, EMBED_BLOCK)):
        article_ids += [a.id for a in block]
        for tokens in tokenize_texts([a.body for a in block], tok):
            doc_len.append(len(tokens))
            ids.extend([term_ids.setdefault(t, len(term_ids)) for t in tokens])
    n = len(article_ids)
    if not n:
        raise EmptyCorpusError("no articles to index")
    if not ids:
        raise AllEmptyAfterTokenizeError("every article tokenized to empty")
    # one (term id, ordinal) key per token; unique keys sort term-major
    keys = np.frombuffer(ids, dtype=np.int64) * n
    del ids
    keys += np.repeat(np.arange(n, dtype=np.int64), np.frombuffer(doc_len, dtype=np.int64))
    keys, counts = np.unique(keys, return_counts=True)
    indptr = np.zeros(len(term_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=len(term_ids)), out=indptr[1:])
    ordinals = np.remainder(keys, n, out=keys)
    return ArticleIndex(article_ids, list(term_ids), indptr, ordinals, counts)


def lookup_ids(vocab: Mapping[str, int], token_lists: list[list[str]]
               ) -> tuple[np.ndarray, list[int]]:
    """Every token's id in vocab, -1 where it has none, as one int64 array
    in order, and the number of tokens in each list."""
    lens = [len(tokens) for tokens in token_lists]
    ids = np.fromiter(map(vocab.get, itertools.chain.from_iterable(token_lists),
                          itertools.repeat(-1)), dtype=np.int64, count=sum(lens))
    return ids, lens


def score_block(token_lists: list[list[str]], table: ImpactTable) -> np.ndarray:
    """Scores of a block of tweets against every article, shape (B, n_articles),
    from their tokens; a token that is no term of the table adds nothing.

    Each row's tokens become its sorted unique term ids, looked up in
    ``table.term_ids``. Every score sums its terms in one canonical order:
    CSR terms in ascending term id (one bincount over row * N + ordinal),
    then dense terms in ascending term id.
    A row's result therefore does not depend on the other rows of the block,
    the block size, the worker count or the string hash seed.
    """
    ids, lens = lookup_ids(table.term_ids, token_lists)
    n_rows, n, vocab = len(lens), table.n_articles, len(table.dense_slot)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
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
    spans = table.indptr[ids[tail] + 1] - starts
    ends = np.cumsum(spans)
    # each posting-long array is made once and then changed in place: at most
    # three are held at a time, and two next to the (B, n) scores
    pos = np.repeat(starts - (ends - spans), spans)
    pos += np.arange(len(pos))
    keys = table.indices[pos]
    keys += np.repeat(rows[tail] * n, spans)
    impacts = table.data[pos]
    del pos
    if scale is not None:
        impacts *= np.repeat(scale[tail], spans)
    scores = np.bincount(keys, weights=impacts, minlength=n_rows * n)
    del keys, impacts
    # bincount of no postings returns integer zeros
    scores = scores.astype(np.float64, copy=False).reshape(n_rows, n)

    head = ~tail
    dense, out = table.dense_views, list(scores)
    # in place on row views: no temporary row and no write-back per term
    if scale is None:
        for r, k in zip(rows[head].tolist(), slot[head].tolist()):
            row = out[r]
            np.add(row, dense[k], row)
    else:
        buf = np.empty(n)
        for r, k, q in zip(rows[head].tolist(), slot[head].tolist(), scale[head].tolist()):
            row = out[r]
            np.add(row, np.multiply(dense[k], q, buf), row)
    return scores


def score_tfidf(tweet_tokens: list[str], index: ArticleIndex) -> np.ndarray:
    """Cosine between the tweet's TF-IDF vector and each article's; in [0, 1]."""
    return score_block([tweet_tokens], index.tfidf_table())[0]


def score_bm25(
    tweet_tokens: list[str], index: ArticleIndex, params: Optional[BM25Params] = None
) -> np.ndarray:
    """BM25 with the tweet as query; each unique query term contributes once."""
    return score_block([tweet_tokens], index.bm25_table(params or BM25Params()))[0]


class EmbeddingTable:
    """Term vectors as one (V, dim) float64 matrix: term t's vector is
    ``matrix[rows[t]]``.

    ``EmbeddingTable(dim, {term: vector})`` copies the vectors into a new
    matrix; ``EmbeddingTable.from_matrix(matrix, rows)`` adopts one as it is.
    """

    def __init__(self, dim: int, vectors: Mapping):
        self.dim = dim
        self.rows = {term: i for i, term in enumerate(vectors)}
        self.matrix = np.zeros((len(self.rows), dim))
        for i, (term, vec) in enumerate(vectors.items()):
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (dim,):
                raise DimMismatchError(f"vector of {term!r} has shape {vec.shape}, "
                                       f"table has dim {dim}")
            self.matrix[i] = vec

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, rows: dict[str, int]) -> "EmbeddingTable":
        """The table whose term t has the vector ``matrix[rows[t]]``; no copy is made."""
        table = cls(matrix.shape[1], {})
        table.matrix, table.rows = matrix, rows
        return table

    @property
    def vectors(self) -> dict[str, np.ndarray]:
        """term -> its row of the matrix (a view, not a copy)."""
        return {term: self.matrix[i] for term, i in self.rows.items()}

    def __contains__(self, term):
        return term in self.rows

    def lookup(self, keys) -> np.ndarray:
        """(len(keys), dim): the vector of each key, zeros where there is none.

        In Fortran order, as cosine_block takes its article vectors, gathered
        without a temporary copy.
        """
        get = self.rows.get
        rows = np.array([get(key, -1) for key in keys], dtype=np.int64)
        cols = np.zeros((self.dim, len(keys)))
        if len(self.matrix):
            np.take(self.matrix.T, np.maximum(rows, 0), axis=1, out=cols, mode="clip")
            cols[:, rows < 0] = 0.0
        return cols.T


# Characters of lines load_embeddings parses at a time: 1 MB parsed a
# few percent faster but held about 1 MB more at the peak.
VECTOR_BATCH_BYTES = 1 << 18


def load_embeddings(path) -> EmbeddingTable:
    """word2vec text format: header '<count> <dim>', then 'term v1 .. vdim'.

    A line without a space is skipped; any other line must hold exactly dim
    single-space-separated numbers after its term, and may end in one space
    before its newline, as word2vec's and fastText's writers leave it. The
    first header or line that breaks these rules, or that holds a byte that
    is not UTF-8, is named by a MalformedLineError. A repeated term keeps its
    last vector. The components are parsed a batch of lines at a time by
    numpy's C reader into one preallocated matrix, so no per-term array is
    built.
    """
    file_lines = _text_lines(path)
    header = next(file_lines, "").split()
    try:
        count, dim = map(int, header)
    except ValueError:  # not two fields, or not two integers
        count = dim = -1
    if count < 0 or dim < 0:
        raise MalformedLineError(path, 1, f"expected a '<count> <dim>' header, got {header}")
    # the header's count is a hint: a row takes at least 2 * dim + 1 bytes
    matrix = np.empty((min(count, os.path.getsize(path) // (2 * dim + 1)), dim))
    rows: dict[str, int] = {}
    n = line_no = 0
    for batch in _line_batches(file_lines, VECTOR_BATCH_BYTES):
        spaces = [line.count(" ") for line in batch]  # components: len(line.split(" ")) - 1
        spaces = [k - 1 if k == dim + 1 and line.endswith((" \n", " \r\n")) else k
                  for k, line in zip(spaces, batch)]  # but a row's end space
        at = [i for i, k in enumerate(spaces) if k]  # a line without a space is skipped
        wrong = next((j for j, i in enumerate(at) if spaces[i] != dim), None)
        line_nos = [line_no + 2 + i for i in at]  # the header is line 1
        line_no += len(batch)
        if wrong is not None:
            _parse_rows(path, [batch[i] for i in at[:wrong]], line_nos, dim)  # first error first
            raise MalformedLineError(path, line_nos[wrong],
                                     f"expected {dim} components, got {spaces[at[wrong]]}")
        if not at:
            continue
        lines = [batch[i] for i in at]
        rows.update(zip([line[:line.index(" ")] for line in lines], range(n, n + len(at))))
        if n + len(at) > len(matrix):  # the header undercounts
            matrix.resize((max(2 * len(matrix), n + len(at)), dim), refcheck=False)
        matrix[n:n + len(at)] = _parse_rows(path, lines, line_nos, dim)
        n += len(at)
    matrix.resize((n, dim), refcheck=False)  # no view of it is held
    return EmbeddingTable.from_matrix(matrix, rows)


def _line_batches(lines, size) -> Iterator[list[str]]:
    """The lines in lists of consecutive lines of about size characters each.
    A MalformedLineError from ``lines`` is raised after the lines before it
    were yielded, so that a fault in one of them is named first."""
    batch, chars = [], 0
    try:
        for line in lines:
            batch.append(line)
            chars += len(line)
            if chars >= size:
                yield batch
                batch, chars = [], 0
    except MalformedLineError:
        yield batch
        raise
    yield batch


def _parse_rows(path, lines, line_nos, dim) -> np.ndarray:
    """(len(lines), dim) components of 'term v1 .. vdim' lines; a
    MalformedLineError names the first line that does not parse."""
    if not lines:
        return np.empty((0, dim))
    try:
        return np.loadtxt(lines, dtype=np.float64, delimiter=" ", usecols=range(1, dim + 1),
                          comments=None, quotechar=None, ndmin=2)
    except ValueError:
        if len(lines) == 1:
            raise MalformedLineError(path, line_nos[0], f"expected {dim} numbers after the term")
        for line, line_no in zip(lines, line_nos):
            _parse_rows(path, [line], [line_no], dim)
        raise


def mean_vectors(token_lists: list[list[str]], table: EmbeddingTable) -> np.ndarray:
    """(B, dim): each token list's mean over the vectors of its in-vocabulary
    tokens, zeros where it has none.

    Each component is summed in token order, the first vector then each next
    one added, and divided by the count. The rows are ranked longest first,
    so the vectors at one token position are added with one gather into a
    prefix of the ranks.
    """
    ids, lens = lookup_ids(table.rows, token_lists)
    n_rows = len(lens)
    owner = np.repeat(np.arange(n_rows), lens)
    known = ids >= 0
    ids, owner = ids[known], owner[known]
    lens = np.bincount(owner, minlength=n_rows)
    order = np.argsort(-lens, kind="stable")  # rank -> row
    rank = np.empty_like(order)
    rank[order] = np.arange(n_rows)
    pos = np.arange(len(ids)) - (np.cumsum(lens) - lens)[owner]  # position among its row's ids
    ids = ids[np.argsort(pos * n_rows + rank[owner])]  # by position, then by rank
    acc = np.zeros((n_rows, table.dim))
    start = 0
    for p, k in enumerate(np.bincount(pos).tolist()):  # the k rows with more than p ids
        vecs = table.matrix[ids[start:start + k]]
        if p:
            acc[:k] += vecs
        else:
            acc[:k] = vecs
        start += k
    has = int(np.count_nonzero(lens))
    acc[:has] /= lens[order[:has], None]
    return acc[rank]


def embed_articles(articles, table: EmbeddingTable, tok=None) -> np.ndarray:
    """Average each article body through the table; undefined articles get zeros.

    EMBED_BLOCK articles at a time, so that the token lists and the
    temporaries of mean_vectors stay small; a row's mean does not depend on
    the other rows. The result is in Fortran order, as cosine_block takes it.
    """
    tok = tok or TokenizerConfig()
    cols = np.empty((table.dim, len(articles)))
    for start in range(0, len(articles), EMBED_BLOCK):
        block = articles[start:start + EMBED_BLOCK]
        cols[:, start:start + len(block)] = mean_vectors(
            tokenize_texts([a.body for a in block], tok), table).T
    return cols.T


def _squared_norms(vectors: np.ndarray) -> np.ndarray:
    """Each row's sum of squares over dims in ascending order: the last of its
    running sums, whose order add.accumulate fixes by definition."""
    sq = np.square(vectors)
    np.add.accumulate(sq, axis=1, out=sq)
    return sq[:, -1].copy() if sq.shape[1] else np.zeros(len(sq))


def article_norms(article_vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The divisor cosine_block uses per article (its L2 norm, 1 where that
    is 0) and the mask of zero-norm articles, which score 0."""
    a_norms = np.sqrt(_squared_norms(article_vectors))
    return np.where(a_norms > 0, a_norms, 1.0), a_norms == 0


def cosine_block(
    queries: np.ndarray, article_vectors: np.ndarray,
    norms: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine of each query vector (row of ``queries``, (B, dim)) against each
    article vector: (scores of shape (B, n_articles), defined mask of shape (B,)).

    A query that is zero in every component is undefined and scores 0 on
    every article; a zero-norm article scores 0. Every dot product and
    squared norm is summed from 0 over dims in ascending order, and no sum
    goes through BLAS, whose summation order depends on the CPU kernel: a
    row's result depends neither on the BLAS build nor on the other rows of
    the block. The dot products are one einsum over the (dim, n_articles)
    rows of the article vectors, whose inner loop adds ``q[b, d] * rows[d]``
    into row b for d ascending. A numpy build without FMA in its baseline
    (the x86-64 wheels) rounds each product before it adds it, as the loop
    references in tests/test_kernel.py check; one with FMA (aarch64) fuses
    the two. ``norms`` is ``article_norms(article_vectors)``, computed once
    by a caller that scores many blocks; the scores are the same bits either
    way. Article vectors in Fortran order, as embed_articles and
    EmbeddingTable.lookup return them, spare a copy per call.
    """
    if queries.shape[1] != article_vectors.shape[1]:
        raise DimMismatchError(f"query vectors have dim {queries.shape[1]}, "
                               f"article vectors {article_vectors.shape[1]}")
    safe, zero = norms if norms is not None else article_norms(article_vectors)
    n = len(article_vectors)
    rows = np.ascontiguousarray(article_vectors.T)
    if n == 1:  # einsum drops a length-1 axis and would loop over dims innermost
        rows = np.hstack([rows, np.zeros_like(rows)])
    queries = np.ascontiguousarray(queries)
    dots = np.einsum("bd,dn->bn", queries, rows, optimize=False)[:, :n]  # optimize would use BLAS
    defined = np.any(queries != 0, axis=1)
    q_norms = np.sqrt(_squared_norms(queries))
    with np.errstate(divide="ignore", invalid="ignore"):  # undefined rows are zeroed below
        scores = np.multiply.outer(q_norms, safe)
        np.divide(dots, scores, out=scores)
    scores[:, zero] = 0.0
    scores[~defined] = 0.0
    return scores, defined


def score_embedding(
    tweet_tokens: list[str], article_vectors: np.ndarray, table: EmbeddingTable,
    norms: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[np.ndarray, bool]:
    """Cosine of mean tweet vector against each article vector, as a block of one.

    Returns (scores, defined); the tweet is undefined when it has no
    in-vocabulary tokens or averages to the zero vector.
    """
    if article_vectors.ndim != 2 or article_vectors.shape[1] != table.dim:
        raise DimMismatchError(
            f"article vectors have dim {article_vectors.shape[-1]}, table has {table.dim}"
        )
    scores, defined = cosine_block(mean_vectors([tweet_tokens], table), article_vectors, norms)
    return scores[0], bool(defined[0])


def default_lexicon() -> list[re.Pattern]:
    """The packaged signal phrases, compiled case-insensitive."""
    return [re.compile(p, re.IGNORECASE) for p in packaged_list("lexicon.txt")]


def load_lexicon(path) -> list[re.Pattern]:
    """The patterns of a lexicon file, case-insensitive; a pattern that does
    not compile is a MalformedLineError naming its line and the re.error."""
    patterns = []
    for line_no, entry in entries(_text_lines(path)):
        try:
            patterns.append(re.compile(entry, re.IGNORECASE))
        except re.error as exc:
            raise MalformedLineError(path, line_no, str(exc)) from None
    return patterns


def match_lexicon(text: str, patterns: list[re.Pattern]) -> bool:
    """True iff any pattern matches the raw (pre-tokenization) text."""
    return any(p.search(text) for p in patterns)


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
