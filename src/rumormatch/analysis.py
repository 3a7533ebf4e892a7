"""Corpus-level analyses over detection output: group rumor ratios, user
concentration and ranking, keyword breakdowns, candidate content attribution,
and rumor timelines with peak detection.

Every analysis reads one Accumulator, fed a block of tweets at a time, so a
single pass over the tweets serves them all. The module functions are pure over
(tweets, detections, parameters); input ordering never changes a result.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import Group, RumorArticle, Subject, Tweet
from .errors import (
    EmptyDenominatorError,
    NoRumorsError,
    ZeroArticlesForSubjectError,
)
from .textpipe import TokenizerConfig, keyword_terms, tokenize_block


@dataclass(frozen=True)
class Detection:
    tweet_id: str
    is_rumor: bool
    article_id: Optional[str] = None  # present iff is_rumor

    def __post_init__(self):
        if self.is_rumor != (self.article_id is not None):
            raise ValueError("article_id must be present exactly when is_rumor")


@dataclass(frozen=True)
class TimeWindow:
    start: int  # inclusive, UTC epoch seconds
    end: int  # exclusive

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError("window start must precede end")

    def __contains__(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end


# Election-period default: 2016-04-01T00:00Z through 2016-10-01T00:00Z.
ELECTION_WINDOW = TimeWindow(start=1459468800, end=1475280000)

# The most timeline bins a window may hold: hourly bins over a century, or
# minute bins over a year. The timeline keeps a row per bin.
MAX_BINS = 10**6


def bin_count(window: TimeWindow, bin_width: int) -> int:
    """The timeline bins of ``window``, the last one maybe partial. The ceiling
    is taken in integers: a float quotient can round down past a last bin."""
    return -(-(window.end - window.start) // bin_width)


class Accumulator:
    """The counters every analysis reads, fed a block of tweets at a time.

    Counts are kept per (group, in window), per user, per (group, article)
    and per timeline bin, never per tweet, so a pass over any number of
    tweets keeps it small. ``window`` splits the group ratios into entire
    and windowed and bounds the timeline; every other reading covers all
    tweets fed. A rumor without an article (LEXICON) counts everywhere but
    in the content attribution. ``wanted`` holds the terms ``tok`` makes of the keywords.
    """

    def __init__(
        self,
        window: TimeWindow = ELECTION_WINDOW,
        bin_width: int = 86400,
        keywords: Sequence[str] = (),
        tok: Optional[TokenizerConfig] = None,
    ):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.window = window
        self.bin_width = bin_width
        self.tok = tok
        self.keyword_terms = keyword_terms(keywords, tok)
        self.wanted = frozenset(self.keyword_terms.values())
        self.group_tweets: Counter[tuple[Group, bool]] = Counter()
        self.group_rumors: Counter[tuple[Group, bool]] = Counter()
        self.user_tweets: Counter[str] = Counter()
        self.user_rumors: Counter[str] = Counter()
        self.article_rumors: Counter[tuple[Group, Optional[str]]] = Counter()
        self.bin_rumors: Counter[int] = Counter()
        self.keyword_counts: Counter[tuple[str, bool]] = Counter()

    def add_block(self, tweets: Sequence[Tweet], rumors: Sequence[bool],
                  article_ids: Sequence[Optional[str]], hits=None) -> None:
        """Count a block of tweets, each with its detection; ``hits`` are the
        wanted terms among each tweet's tokens, by default those of one
        tokenize_block of the block's texts."""
        if hits is None and self.wanted:  # keywords are terms
            hits = [self.wanted.intersection(w)
                    for w in tokenize_block([t.text for t in tweets], self.tok)]
        keys = [(t.group, t.timestamp in self.window) for t in tweets]
        self.group_tweets.update(keys)
        self.user_tweets.update([t.user_id for t in tweets])
        found = [(t, key, a) for t, key, r, a in zip(tweets, keys, rumors, article_ids) if r]
        self.group_rumors.update([key for _, key, _ in found])
        self.user_rumors.update([t.user_id for t, _, _ in found])
        self.article_rumors.update([(t.group, a) for t, _, a in found])
        self.bin_rumors.update([(t.timestamp - self.window.start) // self.bin_width
                                for t, (_, in_window), _ in found if in_window])
        if hits:
            self.keyword_counts.update([(k, r) for h, r in zip(hits, rumors) for k in h])

    def groups(self) -> list[Group]:
        """The follower groups seen, in name order."""
        return sorted({g for g, _ in self.group_tweets}, key=lambda g: g.value)

    def group_ratio(self, group: Group, windowed: bool = False) -> float:
        keys = [(group, True)] if windowed else [(group, True), (group, False)]
        total = sum(self.group_tweets[k] for k in keys)
        if total == 0:
            raise EmptyDenominatorError(f"no tweets for group {group.value} in scope")
        return sum(self.group_rumors[k] for k in keys) / total

    def user_concentration(self, top_fraction: float) -> float:
        """Share of the rumor tweets posted by the top ceil(top_fraction * n_users) posters,
        top_fraction read as the decimal it prints as (0.07 of 100 users is 7, not 8)."""
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        total_rumors = sum(self.user_rumors.values())
        if total_rumors == 0:
            raise NoRumorsError("no rumor tweets in scope")
        # top_fraction is digits / 10**scale, exactly; the ceiling is taken in integers
        mantissa, _, exponent = repr(float(top_fraction)).partition("e")
        whole, _, decimals = mantissa.partition(".")
        scale = len(decimals) - int(exponent or 0)
        top_n = -(-int(whole + decimals) * len(self.user_tweets) // 10 ** scale)
        # the largest counts: their sum is the same whichever of the tied users are kept
        return sum(heapq.nlargest(top_n, self.user_rumors.values())) / total_rumors

    def user_ranking(self, top_n: int) -> list[tuple[str, int, int, float]]:
        if top_n < 0:
            raise ValueError(f"top_n must be 0 or more, got {top_n}")
        rumors = self.user_rumors
        # nsmallest(n, ...) is sorted(...)[:n], without a row per user
        top = heapq.nsmallest(top_n, self.user_tweets.items(), key=lambda item: (
            -(rumors[item[0]] / item[1]), -rumors[item[0]], item[0]))
        return [(user, rumors[user], total, rumors[user] / total) for user, total in top]

    def keyword_breakdown(self) -> dict[str, tuple[int, int]]:
        counts = self.keyword_counts
        return {k: (counts[t, True], counts[t, False]) for k, t in self.keyword_terms.items()}

    def content_attribution(self, articles: list[RumorArticle],
                            group: Group) -> dict[Subject, float]:
        article_counts = subject_article_counts(articles)
        article_subjects = {a.id: a.subjects for a in articles}
        tweet_counts: Counter[Subject] = Counter()
        for (g, article_id), n in self.article_rumors.items():
            if g is group:
                for s in article_subjects.get(article_id, frozenset()):
                    tweet_counts[s] += n
        return {s: tweet_counts[s] / count for s, count in article_counts.items()}

    def timeline(self) -> list[tuple[int, int]]:
        start, width = self.window.start, self.bin_width
        return [(start + i * width, self.bin_rumors[i])
                for i in range(bin_count(self.window, width))]


def subject_article_counts(articles: list[RumorArticle]) -> dict[Subject, int]:
    """The number of articles about CLINTON and about TRUMP, which the content
    attribution divides by: a subject of none is a ZeroArticlesForSubjectError,
    which a caller can raise before any tweet is read."""
    counts = Counter(s for a in articles for s in a.subjects)
    attributed = {s: counts[s] for s in (Subject.CLINTON, Subject.TRUMP)}
    for s, n in attributed.items():
        if n == 0:
            raise ZeroArticlesForSubjectError(s.value)
    return attributed


def _accumulate(
    tweets: Iterable[Tweet],
    detections: Mapping[str, Detection],
    scope: Optional[TimeWindow] = None,
    tok: Optional[TokenizerConfig] = None,
    **params,
) -> Accumulator:
    """An accumulator fed the tweets in scope as one block, keyword hits as ``tok`` tokenizes."""
    acc = Accumulator(tok=tok, **params)
    block = [t for t in tweets if scope is None or t.timestamp in scope]
    found = [detections.get(t.id) for t in block]
    acc.add_block(block, [det is not None and det.is_rumor for det in found],
                  [det.article_id if det else None for det in found])
    return acc


def group_rumor_ratio(
    tweets: list[Tweet],
    detections: Mapping[str, Detection],
    group: Group,
    window: Optional[TimeWindow] = None,
) -> float:
    """Share of a follower group's tweets detected as rumors, optionally windowed."""
    return _accumulate(tweets, detections, window).group_ratio(group)


def user_concentration(
    tweets: list[Tweet],
    detections: Mapping[str, Detection],
    top_fraction: float,
    window: Optional[TimeWindow] = None,
) -> float:
    """Share of all rumor tweets posted by the heaviest rumor posters.

    Users are ranked by rumor-tweet count descending (ties by user_id
    ascending); the top ceil(top_fraction * n_users) are counted, where
    n_users covers every user with at least one tweet in scope and
    top_fraction is read as the decimal it prints as (0.07 of 100 users is
    7 users, not 8).
    """
    return _accumulate(tweets, detections, window).user_concentration(top_fraction)


def user_rumor_ratio_ranking(
    tweets: list[Tweet],
    detections: Mapping[str, Detection],
    top_n: int,
    window: Optional[TimeWindow] = None,
) -> list[tuple[str, int, int, float]]:
    """Top users by the share of rumor tweets among their own tweets.

    Returns (user_id, rumor_count, total_count, ratio), sorted by ratio
    descending, ties by rumor_count descending then user_id ascending.
    """
    return _accumulate(tweets, detections, window).user_ranking(top_n)


def keyword_breakdown(
    tweets: list[Tweet],
    detections: Mapping[str, Detection],
    keywords: list[str],
    tok: Optional[TokenizerConfig] = None,
) -> dict[str, tuple[int, int]]:
    """Per keyword: (rumor tweet count, nonrumor tweet count) containing it.

    Counts tweets, not occurrences; a tweet containing k of the keywords
    contributes to k cells.
    """
    acc = _accumulate(tweets, detections, tok=tok or TokenizerConfig(), keywords=keywords)
    return acc.keyword_breakdown()


def content_attribution(
    tweets: list[Tweet],
    detections: Mapping[str, Detection],
    articles: list[RumorArticle],
    group: Group,
    window: Optional[TimeWindow] = None,
) -> dict[Subject, float]:
    """Rumor tweets about CLINTON and about TRUMP, each normalized by that
    subject's article count.

    A tweet matched to a multi-subject article counts once per subject.
    """
    return _accumulate(tweets, detections, window).content_attribution(articles, group)


def timeline(
    tweets: list[Tweet],
    detections: Mapping[str, Detection],
    bin_width: int,
    window: TimeWindow,
) -> list[tuple[int, int]]:
    """Rumor-tweet counts per half-open bin tiling [window.start, window.end)."""
    return _accumulate(tweets, detections, window=window, bin_width=bin_width).timeline()


def detect_peaks(series: list[int], k: float = 2.0) -> list[int]:
    """Strict local maxima exceeding mean + k*stddev (population stddev).

    Boundary bins are compared against their single neighbor.
    """
    if not series:
        raise ValueError("series must be nonempty")
    n = len(series)
    mean = sum(series) / n
    # d * d and fsum: IEEE basic operations only, so every host gives the same bits
    std = math.sqrt(math.fsum(d * d for d in [x - mean for x in series]) / n)
    cutoff = mean + k * std
    peaks = []
    for i, x in enumerate(series):
        if x <= cutoff:
            continue
        left_ok = i == 0 or x > series[i - 1]
        right_ok = i == n - 1 or x > series[i + 1]
        if left_ok and right_ok:
            peaks.append(i)
    return peaks
