"""Data model and JSONL ingestion for tweets, reference articles and labels.

All three input files are JSON Lines (one object per line, UTF-8, LF).
Loading is fail-fast: the first malformed line aborts the load so that
evaluation never runs over a silently truncated corpus. _text_lines is the
line reader of every text input of the package.
"""

from __future__ import annotations

import array
import contextlib
import json
from dataclasses import dataclass
from enum import Enum
from typing import Container, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import CorpusError, DanglingTweetRefError, DuplicateIdError, MalformedLineError


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
    body: str
    subjects: frozenset[Subject] = frozenset({Subject.OTHER})


@dataclass(frozen=True, slots=True)
class LabeledTweet:
    tweet_id: str
    label: Label
    article_id: Optional[str] = None  # present iff label == RUMOR


# json.loads' own C scanner, without its checks for leading whitespace, a
# BOM and trailing data: _iter_jsonl takes its result only for a line that
# is one JSON value and its newline, for which json.loads gives the same.
_scan_value = json.scanner.make_scanner(json.JSONDecoder())


def _text_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 file, in order, each with its LF.

    The file is read as bytes and each line decoded on its own, so a line
    holding a byte that is not UTF-8 is a MalformedLineError naming it and
    the decode error, raised after the lines before it were yielded. Only
    LF ends a line: a CR stays in its line, where json.loads and str.strip
    take it as whitespace.
    """
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLineError(path, line_no, str(exc)) from None
            yield text


def _iter_jsonl(path):
    """Yield (line_no, parsed object) for each non-blank line, fail-fast.

    A line that is one JSON value followed by its newline is parsed by the
    scanner alone; any other line (blank, with whitespace around its value,
    a BOM, trailing data, no newline, or not JSON) goes through json.loads,
    which gives the same object or the error named.
    """
    for line_no, line in enumerate(_text_lines(path), start=1):
        try:
            obj, end = _scan_value(line, 0)
        except (ValueError, StopIteration):
            end = -1
        if end != len(line) - 1 or line[end] != "\n":
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
    """obj[key]; a missing key or a JSON null is a malformed line."""
    value = obj.get(key)
    if value is None:
        reason = f"field {key!r} is null" if key in obj else f"missing field {key!r}"
        raise MalformedLineError(path, line_no, reason)
    return value


def _id(obj, key, path, line_no) -> str:
    """obj[key] as an id string, a number as str() writes it; a JSON true
    or false, or a string that UTF-8 cannot encode (a lone surrogate, from
    a JSON escape such as \\ud800), is a malformed line."""
    value = _require(obj, key, path, line_no)
    if type(value) is bool:
        raise MalformedLineError(path, line_no, f"field {key!r} is {json.dumps(value)}, not an id")
    value = str(value)
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedLineError(path, line_no, f"field {key!r} holds a lone surrogate, "
                                 "which UTF-8 cannot encode") from None
    return value


_GROUPS = {g.value: g for g in Group}


def _id_key(tid: str) -> int:
    """The 64-bit key a tweet id is kept as; equal ids give equal keys."""
    return hash(tid)


def _check_repeats(path, keys: array.array) -> None:
    """Raise DuplicateIdError at the first tweet line whose id equals that
    of a line before it.

    keys holds the _id_key of the id of the file's first len(keys)
    non-blank lines, in file order; it is sorted in place, through a numpy
    view. A repeated key only makes its ids suspects: those lines are
    re-read and the ids compared, so a key collision never raises.
    """
    view = np.frombuffer(keys, dtype=np.int64)
    view.sort()
    suspects = set(view[1:][view[1:] == view[:-1]].tolist())
    if not suspects:
        return
    seen = set()
    with contextlib.closing(_iter_jsonl(path)) as lines:
        for _, (line_no, obj) in zip(range(len(keys)), lines):
            tid = str(obj["id"])
            if _id_key(tid) in suspects:
                if tid in seen:
                    raise DuplicateIdError(path, line_no, tid)
                seen.add(tid)


def iter_tweets(path) -> Iterator[Tweet]:
    """Parse tweets.jsonl one tweet at a time, in file order.

    Each tweet is yielded as soon as its line is parsed. The ids, kept as
    8-byte keys rather than as strings since the file may hold millions of
    lines, are checked once, when the file ends or at the first
    malformed line before that error is raised: a duplicate id is reported
    after the tweets before it were yielded, and the first fault in file
    order is named (a line whose own id repeats an earlier one is a
    duplicate before its other fields are checked). A caller that stops
    early has not had the ids checked. The CLI renames each output into
    place only when its writer succeeds, so a fault found here publishes no
    file that the pass over the tweets writes; a file written before that
    pass, such as the index that `all` saves, stays. A line in the plain
    case (a non-empty ASCII str id, a str text that is not blank, an ASCII
    str user_id, an int timestamp and a known group) is taken as it is;
    every other line goes through _checked_id and _checked_tweet, which
    coerce and raise field by field.
    """
    keys = array.array("q")
    try:
        for line_no, obj in _iter_jsonl(path):
            try:
                tid, user_id, group, ts, text = (
                    obj["id"], obj["user_id"], _GROUPS[obj["group"]], obj["timestamp"],
                    obj["text"])
            except (KeyError, TypeError):
                tid = None
            plain = (type(tid) is str and tid and tid.isascii() and type(user_id) is str
                     and user_id.isascii() and type(ts) is int and type(text) is str
                     and text.strip())
            if not plain:
                tid = _checked_id(obj, path, line_no)
            keys.append(_id_key(tid))  # before the other fields: a duplicate id is the first fault
            if not plain:
                user_id, group, ts, text = _checked_tweet(obj, tid, path, line_no)
            yield Tweet(tid, user_id, group, ts, text)
    except CorpusError:  # a repeated id up to the faulty line is the first fault
        _check_repeats(path, keys)
        raise
    _check_repeats(path, keys)


def _checked_id(obj, path, line_no) -> str:
    """The id of one tweet or article line; raises if missing, a bool or empty."""
    tid = _id(obj, "id", path, line_no)
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
    if type(ts) is not int:  # JSON true is a bool, which is an int
        raise MalformedLineError(path, line_no, "timestamp must be an integer")
    return _id(obj, "user_id", path, line_no), group, ts, text


def load_tweets(path) -> list[Tweet]:
    """Parse tweets.jsonl; preserves file order."""
    return list(iter_tweets(path))


def load_articles(path) -> list[RumorArticle]:
    """Parse articles.jsonl; a missing, null or empty subjects list defaults
    to {OTHER}."""
    articles = []
    seen = set()
    for line_no, obj in _iter_jsonl(path):
        aid = _checked_id(obj, path, line_no)
        if aid in seen:
            raise DuplicateIdError(path, line_no, aid)
        seen.add(aid)
        body = str(_require(obj, "body", path, line_no))
        if not body.strip():
            raise MalformedLineError(path, line_no, f"article {aid!r} has empty body")
        raw_subjects = obj.get("subjects")
        if raw_subjects is not None and type(raw_subjects) is not list:
            raise MalformedLineError(path, line_no,
                                     f"subjects must be a list, got {raw_subjects!r}")
        try:
            subjects = frozenset(Subject(s) for s in raw_subjects or ["OTHER"])
        except ValueError as exc:
            raise MalformedLineError(path, line_no, str(exc)) from exc
        articles.append(RumorArticle(aid, body, subjects))
    return articles


def read_labels(path, article_ids: Iterable[str]) -> list[LabeledTweet]:
    """Parse labels.jsonl, checking every article reference and that no
    tweet is labeled twice (naming the second line, before its other
    fields are checked).

    A RUMOR label's article_id is the string of ``article_ids`` it equals,
    so the labels of one article share one string. Tweet references are
    left to check_label_tweets, so that a caller can check them against
    tweets it streams instead of holding.
    """
    labels = []
    seen = set()
    own = {aid: aid for aid in article_ids}
    for line_no, obj in _iter_jsonl(path):
        tweet_id = _id(obj, "tweet_id", path, line_no)
        if tweet_id in seen:
            raise DuplicateIdError(path, line_no, tweet_id)
        seen.add(tweet_id)
        try:
            label = Label(_require(obj, "label", path, line_no))
        except ValueError as exc:
            raise MalformedLineError(path, line_no, str(exc)) from exc
        article_id = obj.get("article_id")
        if article_id is not None and type(article_id) is not str:
            raise MalformedLineError(path, line_no,
                                     f"article_id must be a string, got {article_id!r}")
        if (label is Label.RUMOR) != (article_id is not None):
            raise MalformedLineError(path, line_no, (
                f"{label.value} label for tweet {tweet_id!r} has article_id {article_id!r}; "
                "RUMOR needs one, NONRUMOR takes none"))
        if article_id is not None:
            if article_id not in own:
                raise MalformedLineError(path, line_no,
                                         f"label references unknown article {article_id!r}")
            article_id = own[article_id]
        labels.append(LabeledTweet(tweet_id=tweet_id, label=label, article_id=article_id))
    return labels


def check_label_tweets(labels: list[LabeledTweet], tweet_ids: Container[str]) -> None:
    """Raise DanglingTweetRefError for the first label whose tweet is not in tweet_ids."""
    for l in labels:
        if l.tweet_id not in tweet_ids:
            raise DanglingTweetRefError(l.tweet_id)


def load_labels(path, article_ids: Iterable[str],
                tweet_ids: Container[str]) -> list[LabeledTweet]:
    """Parse labels.jsonl, checking every article and tweet reference."""
    labels = read_labels(path, article_ids)
    check_label_tweets(labels, tweet_ids)
    return labels
