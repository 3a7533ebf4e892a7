"""Corpus-level analyses over detection output: group rumor ratios, user
concentration and ranking, keyword breakdowns, candidate content attribution,
and rumor timelines with peak detection.

Every analysis reads one Accumulator, fed one tweet at a time, so a single
pass over the tweets serves them all. The module functions are pure over
(tweets, detections, parameters); input ordering never changes a result.
"""

from __future__ import annotations

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
from .textpipe import TokenizerConfig, keyword_terms, tokenize


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


def _in_window(tweet: Tweet, window: Optional[TimeWindow]) -> bool:
    return window is None or tweet.timestamp in window


class Accumulator:
    """The counters every analysis reads, fed one tweet at a time.

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
        self.keyword_terms = keyword_terms(keywords, tok)
        self.wanted = frozenset(self.keyword_terms.values())
        self.group_tweets: Counter[tuple[Group, bool]] = Counter()
        self.group_rumors: Counter[tuple[Group, bool]] = Counter()
        self.user_tweets: Counter[str] = Counter()
        self.user_rumors: Counter[str] = Counter()
        self.article_rumors: Counter[tuple[Group, Optional[str]]] = Counter()
        self.bin_rumors: Counter[int] = Counter()
        self.keyword_counts = {k: [0, 0] for k in self.wanted}

    def add(
        self, tweet: Tweet, rumor: bool, article_id: Optional[str] = None,
        hits: Iterable[str] = (),
    ) -> None:
        """Count one tweet; ``hits`` are the wanted terms among its tokens."""
        in_window = tweet.timestamp in self.window
        key = (tweet.group, in_window)
        self.group_tweets[key] += 1
        self.user_tweets[tweet.user_id] += 1
        for k in hits:
            self.keyword_counts[k][0 if rumor else 1] += 1
        if rumor:
            self.group_rumors[key] += 1
            self.user_rumors[tweet.user_id] += 1
            self.article_rumors[tweet.group, article_id] += 1
            if in_window:
                self.bin_rumors[(tweet.timestamp - self.window.start) // self.bin_width] += 1

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
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        total_rumors = sum(self.user_rumors.values())
        if total_rumors == 0:
            raise NoRumorsError("no rumor tweets in scope")
        ranked = sorted(self.user_tweets, key=lambda u: (-self.user_rumors[u], u))
        top_n = math.ceil(top_fraction * len(ranked))
        return sum(self.user_rumors[u] for u in ranked[:top_n]) / total_rumors

    def user_ranking(self, top_n: int) -> list[tuple[str, int, int, float]]:
        if top_n < 0:
            raise ValueError(f"top_n must be 0 or more, got {top_n}")
        rows = [
            (user, self.user_rumors[user], total, self.user_rumors[user] / total)
            for user, total in self.user_tweets.items()
        ]
        rows.sort(key=lambda r: (-r[3], -r[1], r[0]))
        return rows[:top_n]

    def keyword_breakdown(self) -> dict[str, tuple[int, int]]:
        return {k: tuple(self.keyword_counts[t]) for k, t in self.keyword_terms.items()}

    def content_attribution(
        self, articles: list[RumorArticle], group: Group,
        subjects: Optional[list[Subject]] = None,
    ) -> dict[Subject, float]:
        subjects = subjects or [Subject.CLINTON, Subject.TRUMP]
        article_subjects = {a.id: a.subjects for a in articles}
        subject_article_count = Counter()
        for a in articles:
            for s in a.subjects:
                subject_article_count[s] += 1
        for s in subjects:
            if subject_article_count[s] == 0:
                raise ZeroArticlesForSubjectError(s.value)
        tweet_counts: Counter[Subject] = Counter()
        for (g, article_id), n in self.article_rumors.items():
            if g is group:
                for s in article_subjects.get(article_id, frozenset()):
                    tweet_counts[s] += n
        return {s: tweet_counts[s] / subject_article_count[s] for s in subjects}

    def timeline(self) -> list[tuple[int, int]]:
        start, width = self.window.start, self.bin_width
        n_bins = math.ceil((self.window.end - start) / width)
        return [(start + i * width, self.bin_rumors[i]) for i in range(n_bins)]


def _accumulate(
    tweets: Iterable[Tweet],
    detections: Mapping[str, Detection],
    scope: Optional[TimeWindow] = None,
    tok: Optional[TokenizerConfig] = None,
    **params,
) -> Accumulator:
    """An accumulator fed the tweets in scope, keyword hits as ``tok`` tokenizes."""
    acc = Accumulator(tok=tok, **params)
    for t in tweets:
        if not _in_window(t, scope):
            continue
        det = detections.get(t.id)
        rumor = det is not None and det.is_rumor
        hits = acc.wanted.intersection(tokenize(t.text, tok)) if acc.wanted else ()
        acc.add(t, rumor, det.article_id if rumor else None, hits)
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
    n_users covers every user with at least one tweet in scope.
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
    subjects: Optional[list[Subject]] = None,
    window: Optional[TimeWindow] = None,
) -> dict[Subject, float]:
    """Rumor tweets per subject, normalized by that subject's article count.

    A tweet matched to a multi-subject article counts once per subject.
    """
    return _accumulate(tweets, detections, window).content_attribution(
        articles, group, subjects)


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
    std = math.sqrt(sum((x - mean) ** 2 for x in series) / n)
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
