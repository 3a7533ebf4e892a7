"""Data model and JSONL ingestion for tweets, reference articles and labels.

All three input files are JSON Lines (one object per line, UTF-8, LF).
Loading is fail-fast: the first malformed line aborts the load so that
evaluation never runs over a silently truncated corpus.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Container, Iterator, NamedTuple, Optional

import numpy as np

from .errors import (
    CorpusError,
    DanglingArticleRefError,
    DanglingTweetRefError,
    DuplicateIdError,
    EmptyBodyError,
    MalformedLineError,
    RumorWithoutArticleError,
)


class Group(str, Enum):
    CLINTON_FOLLOWER = "CLINTON_FOLLOWER"
    TRUMP_FOLLOWER = "TRUMP_FOLLOWER"
    OTHER = "OTHER"


class Subject(str, Enum):
    CLINTON = "CLINTON"
    TRUMP = "TRUMP"
    OTHER = "OTHER"


class Label(str, Enum):
    RUMOR = "RUMOR"
    NONRUMOR = "NONRUMOR"


class Tweet(NamedTuple):
    id: str
    user_id: str
    group: Group
    timestamp: int  # UTC epoch seconds
    text: str


@dataclass(frozen=True)
class RumorArticle:
    id: str
    title: str
    body: str
    subjects: frozenset[Subject] = frozenset({Subject.OTHER})
    source_url: Optional[str] = None


@dataclass(frozen=True)
class LabeledTweet:
    tweet_id: str
    label: Label
    article_id: Optional[str] = None  # present iff label == RUMOR


def _iter_jsonl(path):
    """Yield (line_no, parsed object) for each non-blank line, fail-fast."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLineError(path, line_no, str(exc)) from exc
            if not isinstance(obj, dict):
                raise MalformedLineError(path, line_no, "expected a JSON object")
            yield line_no, obj


def _require(obj, key, path, line_no):
    if key not in obj:
        raise MalformedLineError(path, line_no, f"missing field {key!r}")
    return obj[key]


_GROUPS = {g.value: g for g in Group}


BATCH = 1024  # tweet lines parsed, then checked for duplicate ids, before any is yielded


def _id_key(tid: str) -> int:
    """The 64-bit key a tweet id is kept as; equal ids give equal keys."""
    return hash(tid)


class _SeenIds:
    """The ids of the tweets read so far, 8 bytes each.

    Each id is kept as its 64-bit key in sorted int64 runs that merge like a
    binary counter, so there are at most about log2(n / BATCH) runs. A key
    already seen only makes its id a suspect: the earlier lines are re-read
    and the ids compared, so a key collision never raises by itself.
    """

    def __init__(self, path):
        self.path = path
        self.runs: list[np.ndarray] = []

    def add(self, ids: list[str], line_nos: list[int]) -> None:
        """Add one batch of ids in file order; raise DuplicateIdError naming
        the first id that repeats one before it, in the batch or earlier."""
        if not ids:
            return
        keys = np.sort(np.fromiter(map(_id_key, ids), np.int64, len(ids)))
        repeated = set(keys[1:][keys[1:] == keys[:-1]].tolist())
        earlier = set()
        for run in self.runs:
            at = np.minimum(run.searchsorted(keys), len(run) - 1)
            earlier.update(keys[run[at] == keys].tolist())
        if repeated or earlier:
            self._confirm(ids, line_nos, repeated | earlier, earlier)
        self._push(keys)

    def _confirm(self, ids, line_nos, suspects, earlier) -> None:
        """Compare the ids of the batch whose keys are suspects with the ids
        before them; the lines before the batch are re-read, in one pass,
        only for the keys in earlier."""
        seen = set()
        if earlier:
            with contextlib.closing(_iter_jsonl(self.path)) as lines:
                for line_no, obj in lines:
                    if line_no >= line_nos[0]:
                        break
                    tid = str(obj["id"])
                    if _id_key(tid) in earlier:
                        seen.add(tid)
        for tid, line_no in zip(ids, line_nos):
            if _id_key(tid) in suspects:
                if tid in seen:
                    raise DuplicateIdError(self.path, line_no, tid)
                seen.add(tid)

    def _push(self, run: np.ndarray) -> None:
        runs = self.runs
        runs.append(run)
        while len(runs) > 1 and len(runs[-2]) <= len(runs[-1]):
            merged = np.concatenate((runs.pop(), runs.pop()))
            merged.sort(kind="stable")  # timsort: one linear merge of the two runs
            runs.append(merged)


def iter_tweets(path) -> Iterator[Tweet]:
    """Parse tweets.jsonl one tweet at a time, in file order.

    Reads up to one batch (BATCH lines) ahead: a batch is parsed and its ids
    checked against every id before it, and only then are its tweets
    yielded. Fails at the first malformed line or duplicate id in file
    order; a caller that stops early has only validated the batches it
    read. A line in the plain case (a non-empty str id, a str text that is
    not blank, a str user_id, an int timestamp and a known group) is taken as
    it is; every other line goes through _checked_id and _checked_tweet,
    which coerce and raise field by field.
    """
    seen = _SeenIds(path)
    lines = _iter_jsonl(path)
    while True:
        tweets, ids, line_nos = [], [], []
        error = None
        try:
            for line_no, obj in itertools.islice(lines, BATCH):
                try:
                    tid, user_id, group, ts, text = (
                        obj["id"], obj["user_id"], _GROUPS[obj["group"]], obj["timestamp"],
                        obj["text"])
                except (KeyError, TypeError):
                    tid = None
                plain = (type(tid) is str and tid and type(user_id) is str
                         and type(ts) is int and type(text) is str and text.strip())
                if not plain:
                    tid = _checked_id(obj, path, line_no)
                ids.append(tid)  # before the other fields: a duplicate id is the first fault
                line_nos.append(line_no)
                if not plain:
                    user_id, group, ts, text = _checked_tweet(obj, tid, path, line_no)
                tweets.append(Tweet(tid, user_id, group, ts, text))
        except CorpusError as exc:  # the batch's ids up to the fault are checked first
            error = exc
        seen.add(ids, line_nos)
        if error is not None:
            raise error
        if not tweets:
            return
        yield from tweets


def _checked_id(obj, path, line_no) -> str:
    """The id of one tweet line, coerced to str; raises if missing or empty."""
    tid = str(_require(obj, "id", path, line_no))
    if not tid:
        raise MalformedLineError(path, line_no, "empty id")
    return tid


def _checked_tweet(obj, tid, path, line_no) -> tuple:
    """(user_id, group, timestamp, text) of the tweet line with id tid,
    checked and coerced one field at a time; raises at the first field at
    fault."""
    text = str(_require(obj, "text", path, line_no))
    if not text.strip():
        raise MalformedLineError(path, line_no, f"tweet {tid!r} has empty text")
    try:
        group = Group(_require(obj, "group", path, line_no))
    except ValueError as exc:
        raise MalformedLineError(path, line_no, str(exc)) from exc
    ts = _require(obj, "timestamp", path, line_no)
    if not isinstance(ts, int):
        raise MalformedLineError(path, line_no, "timestamp must be an integer")
    return str(_require(obj, "user_id", path, line_no)), group, ts, text


def load_tweets(path) -> list[Tweet]:
    """Parse tweets.jsonl; preserves file order."""
    return list(iter_tweets(path))


def load_articles(path) -> list[RumorArticle]:
    """Parse articles.jsonl; a missing, null or empty subjects list defaults to {OTHER}."""
    articles = []
    seen = set()
    for line_no, obj in _iter_jsonl(path):
        aid = str(_require(obj, "id", path, line_no))
        if not aid:
            raise MalformedLineError(path, line_no, "empty id")
        if aid in seen:
            raise DuplicateIdError(path, line_no, aid)
        seen.add(aid)
        body = str(_require(obj, "body", path, line_no))
        if not body.strip():
            raise EmptyBodyError(path, line_no, aid)
        raw_subjects = obj.get("subjects")
        if raw_subjects is not None and type(raw_subjects) is not list:
            raise MalformedLineError(path, line_no,
                                     f"subjects must be a list, got {raw_subjects!r}")
        try:
            subjects = frozenset(Subject(s) for s in raw_subjects or ["OTHER"])
        except ValueError as exc:
            raise MalformedLineError(path, line_no, str(exc)) from exc
        articles.append(
            RumorArticle(
                id=aid,
                title=str(obj.get("title", "")),
                body=body,
                subjects=subjects,
                source_url=obj.get("source_url"),
            )
        )
    return articles


def read_labels(path, article_ids: Container[str]) -> list[LabeledTweet]:
    """Parse labels.jsonl, checking every article reference, then that no
    tweet is labeled twice (naming the second line).

    Tweet references are left to check_label_tweets, so that a caller can
    check them against tweets it streams instead of holding.
    """
    labels = []
    for line_no, obj in _iter_jsonl(path):
        tweet_id = str(_require(obj, "tweet_id", path, line_no))
        try:
            label = Label(_require(obj, "label", path, line_no))
        except ValueError as exc:
            raise MalformedLineError(path, line_no, str(exc)) from exc
        article_id = obj.get("article_id")
        if article_id is not None and type(article_id) is not str:
            raise MalformedLineError(path, line_no,
                                     f"article_id must be a string, got {article_id!r}")
        if label is Label.RUMOR:
            if article_id is None:
                raise RumorWithoutArticleError(tweet_id)
            if article_id not in article_ids:
                raise DanglingArticleRefError(article_id)
        elif article_id is not None:
            raise RumorWithoutArticleError(
                tweet_id, f"nonrumor label for tweet {tweet_id!r} carries an article_id"
            )
        labels.append(LabeledTweet(tweet_id=tweet_id, label=label, article_id=article_id))
    # checked once all are read, on a sorted list of the ids: a set of them,
    # grown in the loop or built after it, left 3.4-4 MB more peak RSS for
    # `all` on 20k labels
    ids = sorted(l.tweet_id for l in labels)
    if any(a == b for a, b in zip(ids, itertools.islice(ids, 1, None))):
        seen = set()
        for line_no, obj in _iter_jsonl(path):
            tweet_id = str(obj["tweet_id"])
            if tweet_id in seen:
                raise DuplicateIdError(path, line_no, tweet_id)
            seen.add(tweet_id)
    return labels


def check_label_tweets(labels: list[LabeledTweet], tweet_ids: Container[str]) -> None:
    """Raise DanglingTweetRefError for the first label whose tweet is not in tweet_ids."""
    for l in labels:
        if l.tweet_id not in tweet_ids:
            raise DanglingTweetRefError(l.tweet_id)


def load_labels(path, article_ids: Container[str],
                tweet_ids: Container[str]) -> list[LabeledTweet]:
    """Parse labels.jsonl, checking every article and tweet reference."""
    labels = read_labels(path, article_ids)
    check_label_tweets(labels, tweet_ids)
    return labels
