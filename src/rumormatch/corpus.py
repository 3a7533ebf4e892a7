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
import operator
from collections.abc import Sequence
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
    return _encodable(str(value), key, path, line_no)


def _encodable(value: str, key, path, line_no) -> str:
    """value, the string of field key; one that UTF-8 cannot encode (a lone
    surrogate, from a JSON escape such as \\ud800) is a malformed line."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedLineError(path, line_no, f"field {key!r} holds a lone surrogate, "
                                 "which UTF-8 cannot encode") from None
    return value


_GROUPS = {g.value: g for g in Group}


# The 64-bit key a tweet id is kept as; equal ids give equal keys. A str
# caches its hash, so the key of an id read once more costs no hashing.
_id_key = hash


def _check_repeats(path, keys: np.ndarray, field: str = "id") -> None:
    """Raise DuplicateIdError at the first line whose ``field`` id equals
    that of a line before it.

    keys holds, sorted, the _id_key of that id on each of the file's first
    len(keys) non-blank lines. A repeated key only makes its ids suspects:
    those lines are re-read and the ids compared, so a key collision never
    raises.
    """
    suspects = set(keys[1:][keys[1:] == keys[:-1]].tolist())
    if not suspects:
        return
    seen = set()
    with contextlib.closing(_iter_jsonl(path)) as lines:
        for _, (line_no, obj) in zip(range(len(keys)), lines):
            tid = str(obj[field])
            if _id_key(tid) in suspects:
                if tid in seen:
                    raise DuplicateIdError(path, line_no, tid)
                seen.add(tid)


def _sorted(keys: array.array) -> np.ndarray:
    """keys, sorted in place, through a numpy view."""
    view = np.frombuffer(keys, dtype=np.int64)
    view.sort()
    return view


def iter_tweets(path) -> Iterator[Tweet]:
    """Parse tweets.jsonl one tweet at a time, in file order.

    Each tweet is yielded as soon as its line is parsed. The ids, kept as
    8-byte keys rather than as strings since the file may hold millions of
    lines, are checked once, when the file ends or at the first
    malformed line before that error is raised: a duplicate id is reported
    after the tweets before it were yielded, and the first fault in file
    order is named (a line whose own id repeats an earlier one is a
    duplicate before its other fields are checked). A caller that stops
    early has not had the ids checked. The CLI renames a command's outputs
    into place only when the whole command succeeds, so a fault found here
    publishes none of them, not even a file written before the pass, such as
    the index that `all` saves. A line in the plain
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
        _check_repeats(path, _sorted(keys))
        raise
    _check_repeats(path, _sorted(keys))


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
    """Parse articles.jsonl into a list: list(iter_articles(path))."""
    return list(iter_articles(path))


def iter_articles(path) -> Iterator[RumorArticle]:
    """Parse articles.jsonl one article at a time, in file order.

    An article is yielded once its line passes every check, so a fault is
    raised, naming path:line, after the articles before it. A missing, null
    or empty subjects list defaults to {OTHER}; equal subject lists share
    one frozenset.
    """
    seen = set()
    shared = {}
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
        yield RumorArticle(aid, body, shared.setdefault(subjects, subjects))


class LabelSet(Sequence):
    """The labels of a labels.jsonl, held as numbers by label position.

    ``rumor`` (bool) and ``article`` (int32 ordinal in ``article_ids``, -1
    for none) hold one entry per label. The tweet ids are one UTF-8 buffer
    with int64 offsets, and their _id_key values are kept sorted, each with
    its label position. No object is kept per label: each LabeledTweet is
    built when it is read. The tweet ids are unique.
    """

    def __init__(self, article_ids: list[str], ids: bytes, offsets, keys, rumor, article):
        self.article_ids = article_ids
        self._ids = ids
        self._offsets = np.array(offsets, dtype=np.int64)
        keys = np.array(keys, dtype=np.int64)  # by label position
        self._order = np.argsort(keys, kind="stable").astype(np.int32)
        self._keys = keys[self._order]
        self.rumor = np.array(rumor, dtype=bool)
        self.article = np.array(article, dtype=np.int32)

    @classmethod
    def of(cls, labels: Sequence[LabeledTweet]) -> LabelSet:
        """``labels`` as a LabelSet: itself if it is one, else one of its items."""
        if isinstance(labels, LabelSet):
            return labels
        ordinals = {}  # each article id's ordinal, in the order of first use
        article = [-1 if l.article_id is None else ordinals.setdefault(l.article_id, len(ordinals))
                   for l in labels]
        ids = [l.tweet_id.encode("utf-8") for l in labels]
        return cls(list(ordinals), b"".join(ids), np.cumsum([0, *map(len, ids)]),
                   [_id_key(l.tweet_id) for l in labels],
                   [l.label is Label.RUMOR for l in labels], article)

    def __len__(self) -> int:
        return len(self.rumor)

    def __getitem__(self, i: int) -> LabeledTweet:
        i = range(len(self))[operator.index(i)]  # from the end if negative; IndexError past it
        a = int(self.article[i])
        return LabeledTweet(self._tweet_id(i), Label.RUMOR if self.rumor[i] else Label.NONRUMOR,
                            self.article_ids[a] if a >= 0 else None)

    def _tweet_id(self, i: int) -> str:
        return self._ids[self._offsets[i]:self._offsets[i + 1]].decode("utf-8")

    def positions(self, tweet_ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(js, label positions): each tweet_ids[j] of js, in order, is the
        tweet id of the label at the position alongside.

        Each id's key is looked up in the sorted keys, and the bytes of the
        first label of that key compared with the id's: a key collision, where
        they differ, is resolved by _find, so it never finds another label.
        """
        keys = np.fromiter(map(_id_key, tweet_ids), np.int64, len(tweet_ids))
        at = np.searchsorted(self._keys, keys)  # the first label of each key, if any
        js = np.flatnonzero(self._keys.take(at, mode="clip") == keys) if len(self) else at[:0]
        found = self._order.take(at[js])
        ids, offsets = self._ids, self._offsets
        collided = False
        for i, (j, start, end) in enumerate(zip(js.tolist(), offsets.take(found).tolist(),
                                                offsets.take(found + 1).tolist())):
            if ids[start:end] != tweet_ids[j].encode("utf-8"):
                found[i] = self._find(tweet_ids[j], int(at[j]))
                collided = True
        if collided:
            js, found = js[found >= 0], found[found >= 0]
        return js, found

    def _find(self, tweet_id: str, k: int) -> int:
        """The position of the label whose id is tweet_id, looked for among the
        labels of the sorted keys from k on that equal keys[k]; -1 if none."""
        for k in range(k, np.searchsorted(self._keys, self._keys[k], side="right")):
            if self._tweet_id(self._order[k]) == tweet_id:
                return int(self._order[k])
        return -1

    def subset(self, mask) -> LabelSet:
        """The labels where ``mask`` is True, in label order."""
        at = np.flatnonzero(mask)
        starts, ends = self._offsets[at], self._offsets[at + 1]
        keys = np.empty_like(self._keys)
        keys[self._order] = self._keys
        return LabelSet(self.article_ids,
                        b"".join([self._ids[s:e] for s, e in zip(starts.tolist(), ends.tolist())]),
                        np.concatenate(([0], np.cumsum(ends - starts))), keys[at],
                        self.rumor[at], self.article[at])


def read_labels(path, article_ids: Iterable[str]) -> LabelSet:
    """Parse labels.jsonl, checking every article reference and that no
    tweet is labeled twice (naming the second line, before its other
    fields are checked).

    A label's article is kept as its ordinal in ``article_ids``. Tweet
    references are left to check_label_tweets, so that a caller can check
    them against tweets it streams instead of holding. A repeated tweet id
    is found from the sorted keys, as iter_tweets finds its own, and is the
    first fault in file order.
    """
    article_ids = list(article_ids)
    own = {aid: i for i, aid in enumerate(article_ids)}
    ids, offsets, keys = bytearray(), array.array("q", [0]), array.array("q")
    rumor, article = array.array("b"), array.array("i")
    try:
        for line_no, obj in _iter_jsonl(path):
            tweet_id = _id(obj, "tweet_id", path, line_no)
            keys.append(_id_key(tweet_id))  # before the other fields: a repeated id comes first
            try:
                label = Label(_require(obj, "label", path, line_no))
            except ValueError as exc:
                raise MalformedLineError(path, line_no, str(exc)) from exc
            article_id = obj.get("article_id")
            if article_id is not None:
                if type(article_id) is not str:
                    raise MalformedLineError(path, line_no,
                                             f"article_id must be a string, got {article_id!r}")
                _encodable(article_id, "article_id", path, line_no)
            if (label is Label.RUMOR) != (article_id is not None):
                raise MalformedLineError(path, line_no, (
                    f"{label.value} label for tweet {tweet_id!r} has article_id {article_id!r}; "
                    "RUMOR needs one, NONRUMOR takes none"))
            if article_id is not None and article_id not in own:
                raise MalformedLineError(path, line_no,
                                         f"label references unknown article {article_id!r}")
            ids += tweet_id.encode("utf-8")
            offsets.append(len(ids))
            rumor.append(label is Label.RUMOR)
            article.append(-1 if article_id is None else own[article_id])
    except CorpusError:  # a repeated id up to the faulty line is the first fault
        _check_repeats(path, _sorted(keys), "tweet_id")
        raise
    labels = LabelSet(article_ids, bytes(ids), offsets, keys, rumor, article)
    _check_repeats(path, labels._keys, "tweet_id")
    return labels


def check_label_tweets(labels: Sequence[LabeledTweet], tweet_ids: Container[str]) -> None:
    """Raise DanglingTweetRefError for the first label whose tweet is not in tweet_ids."""
    for l in labels:
        if l.tweet_id not in tweet_ids:
            raise DanglingTweetRefError(l.tweet_id)


def load_labels(path, article_ids: Iterable[str], tweet_ids: Container[str]) -> LabelSet:
    """Parse labels.jsonl, checking every article and tweet reference."""
    labels = read_labels(path, article_ids)
    check_label_tweets(labels, tweet_ids)
    return labels
