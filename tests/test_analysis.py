import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from fixture_analysis import ARTICLES, DAY, DAY0, DETECTIONS, TWEETS, WEEK_WINDOW
from oracles import analyses_oracle

from rumormatch import analysis
from rumormatch.analysis import (
    Detection,
    TimeWindow,
    content_attribution,
    detect_peaks,
    group_rumor_ratio,
    keyword_breakdown,
    timeline,
    user_concentration,
    user_rumor_ratio_ranking,
)
from rumormatch.corpus import Group, RumorArticle, Subject, Tweet
from rumormatch.textpipe import TokenizerConfig
from rumormatch.errors import (
    EmptyDenominatorError,
    NoRumorsError,
    ZeroArticlesForSubjectError,
)


ELECTION = analysis.ELECTION_WINDOW


class TestGroupRumorRatio:
    def test_clinton_entire_time(self):
        # u1: 3 rumors of 10 tweets
        ratio = group_rumor_ratio(TWEETS, DETECTIONS, Group.CLINTON_FOLLOWER)
        assert ratio == 3 / 10

    def test_clinton_election_window(self):
        # in window: t1,t2,t4..t7 (6 tweets), rumors t1,t2
        ratio = group_rumor_ratio(TWEETS, DETECTIONS, Group.CLINTON_FOLLOWER, ELECTION)
        assert ratio == pytest.approx(2 / 6)

    def test_trump_entire_time(self):
        # u2: 4/8, u3: 0/6 -> 4/14
        ratio = group_rumor_ratio(TWEETS, DETECTIONS, Group.TRUMP_FOLLOWER)
        assert ratio == pytest.approx(4 / 14)

    def test_trump_election_window(self):
        # in window: u2 t11,t12,t13,t15,t16 + u3 t19,t20,t21 = 8; rumors 3
        ratio = group_rumor_ratio(TWEETS, DETECTIONS, Group.TRUMP_FOLLOWER, ELECTION)
        assert ratio == 3 / 8

    def test_window_excluding_all_rumors(self):
        quiet = TimeWindow(DAY0 + 2 * DAY, DAY0 + 4 * DAY)
        assert group_rumor_ratio(TWEETS, DETECTIONS, Group.CLINTON_FOLLOWER, quiet) == 0.0

    def test_empty_denominator(self):
        with pytest.raises(EmptyDenominatorError):
            group_rumor_ratio(TWEETS, DETECTIONS, Group.OTHER)

    def test_disjoint_window_union_is_weighted_mean(self):
        early = TimeWindow(DAY0, DAY0 + 2 * DAY)
        late = TimeWindow(DAY0 + 2 * DAY, DAY0 + 7 * DAY)
        union = TimeWindow(DAY0, DAY0 + 7 * DAY)
        group = Group.TRUMP_FOLLOWER

        def count(window):
            return sum(
                1 for t in TWEETS if t.group is group and t.timestamp in window
            )

        n_early, n_late = count(early), count(late)
        weighted = (
            n_early * group_rumor_ratio(TWEETS, DETECTIONS, group, early)
            + n_late * group_rumor_ratio(TWEETS, DETECTIONS, group, late)
        ) / (n_early + n_late)
        assert group_rumor_ratio(TWEETS, DETECTIONS, group, union) == pytest.approx(weighted)


class TestUserConcentration:
    def test_fixture_top_10_and_20_percent(self):
        # rumor counts: u2=4, u1=3, u3=0; total 7; 3 users
        # ceil(0.1*3)=1 and ceil(0.2*3)=1 -> top user u2 -> 4/7
        assert user_concentration(TWEETS, DETECTIONS, 0.1) == 4 / 7
        assert user_concentration(TWEETS, DETECTIONS, 0.2) == 4 / 7

    def test_uniform_users(self):
        tweets = [
            analysis.Tweet(id=f"t{i}", user_id=f"u{i}", group=Group.OTHER,
                           timestamp=DAY0, text="x y")
            for i in range(10)
        ]
        detections = {
            t.id: Detection(t.id, True, "a1") for t in tweets
        }
        assert user_concentration(tweets, detections, 0.1) == pytest.approx(0.1)

    @pytest.mark.parametrize("fraction, n_users, n_top", [(0.07, 100, 7), (0.14, 50, 7),
                                                          (0.28, 25, 7), (0.55, 100, 55)])
    def test_top_users_by_the_printed_fraction(self, fraction, n_users, n_top):
        # fraction * n_users is a whole number that the float product rounds up
        # (0.07 * 100 == 7.000000000000001): the top 7 of 100 users are counted, not 8
        tweets = [
            analysis.Tweet(id=f"t{i}", user_id=f"u{i}", group=Group.OTHER,
                           timestamp=DAY0, text="x y")
            for i in range(n_users)
        ]
        detections = {t.id: Detection(t.id, True, "a1") for t in tweets}
        assert user_concentration(tweets, detections, fraction) == n_top / n_users

    def test_single_dominant_user(self):
        tweets = [
            analysis.Tweet(id=f"t{i}", user_id=f"u{i}", group=Group.OTHER,
                           timestamp=DAY0, text="x y")
            for i in range(10)
        ]
        detections = {"t0": Detection("t0", True, "a1")}
        assert user_concentration(tweets, detections, 0.1) == 1.0

    def test_monotone_and_one_at_full_fraction(self):
        values = [
            user_concentration(TWEETS, DETECTIONS, f)
            for f in (0.1, 0.34, 0.5, 0.67, 1.0)
        ]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_no_rumors(self):
        detections = {t.id: Detection(t.id, False) for t in TWEETS}
        with pytest.raises(NoRumorsError):
            user_concentration(TWEETS, detections, 0.1)


class TestUserRanking:
    def test_fixture_order(self):
        rows = user_rumor_ratio_ranking(TWEETS, DETECTIONS, top_n=10)
        assert rows == [
            ("u2", 4, 8, 0.5),
            ("u1", 3, 10, 0.3),
            ("u3", 0, 6, 0.0),
        ]

    def test_truncation(self):
        assert len(user_rumor_ratio_ranking(TWEETS, DETECTIONS, top_n=2)) == 2

    def test_ratio_ordering_beats_volume(self):
        # 1/10 ranks above 2/100
        tweets = []
        for i in range(10):
            tweets.append(analysis.Tweet(f"s{i}", "small", Group.OTHER, DAY0, "x y"))
        for i in range(100):
            tweets.append(analysis.Tweet(f"b{i}", "big", Group.OTHER, DAY0, "x y"))
        detections = {
            "s0": Detection("s0", True, "a1"),
            "b0": Detection("b0", True, "a1"),
            "b1": Detection("b1", True, "a1"),
        }
        rows = user_rumor_ratio_ranking(tweets, detections, top_n=2)
        assert [r[0] for r in rows] == ["small", "big"]

    def test_percentage_rounding_arithmetic(self):
        # 307 rumors of 3,211 tweets rounds to 9.6%
        assert round(307 / 3211 * 100, 1) == 9.6


class TestKeywordBreakdown:
    def test_fixture_user_u1(self):
        u1_tweets = [t for t in TWEETS if t.user_id == "u1"]
        got = keyword_breakdown(u1_tweets, DETECTIONS, ["clinton", "email"])
        # clinton: rumors t1,t2,t3; nonrumors t6,t8. email: rumor t2; nonrumors t4,t10
        assert got == {"clinton": (3, 2), "email": (1, 2)}

    def test_absent_keyword(self):
        got = keyword_breakdown(TWEETS, DETECTIONS, ["nonexistentword"])
        assert got == {"nonexistentword": (0, 0)}

    def test_tweet_with_multiple_keywords_counts_in_each(self):
        # t2 contains both clinton and email and is a rumor
        got = keyword_breakdown(
            [t for t in TWEETS if t.id == "t2"], DETECTIONS, ["clinton", "email"]
        )
        assert got == {"clinton": (1, 0), "email": (1, 0)}

    def test_stemmed_keyword_counts_its_stem(self):
        got = keyword_breakdown(TWEETS, DETECTIONS, ["Emails", "diagnosis"],
                                TokenizerConfig(stemming=True))
        # email: rumor t2; nonrumors t4,t10. diagnosis: rumors t1,t13
        assert got == {"emails": (1, 2), "diagnosis": (2, 0)}
        assert keyword_breakdown(TWEETS, DETECTIONS, ["emails"]) == {"emails": (0, 0)}

    @pytest.mark.parametrize("keyword", ["the", "@cnn", "hillary clinton"])
    def test_keyword_of_no_single_term_rejected(self, keyword):
        with pytest.raises(ValueError, match=re.escape(repr(keyword))):
            keyword_breakdown(TWEETS, DETECTIONS, ["clinton", keyword])


class TestContentAttribution:
    # subject article counts: CLINTON in a1,a2,a4 = 3; TRUMP in a3,a4 = 2

    def test_clinton_followers(self):
        values = content_attribution(TWEETS, DETECTIONS, ARTICLES, Group.CLINTON_FOLLOWER)
        # rumors t1->a1, t2->a2, t3->a4: CLINTON numerator 3, TRUMP numerator 1
        assert values[Subject.CLINTON] == 3 / 3
        assert values[Subject.TRUMP] == 1 / 2

    def test_trump_followers(self):
        values = content_attribution(TWEETS, DETECTIONS, ARTICLES, Group.TRUMP_FOLLOWER)
        # rumors t11,t12->a3, t13->a1, t14->a5(OTHER)
        assert values[Subject.CLINTON] == 1 / 3
        assert values[Subject.TRUMP] == 2 / 2

    def test_dual_subject_article_counts_once_per_subject(self):
        only_t3 = {"t3": DETECTIONS["t3"]}
        values = content_attribution(TWEETS, only_t3, ARTICLES, Group.CLINTON_FOLLOWER)
        assert values[Subject.CLINTON] == 1 / 3
        assert values[Subject.TRUMP] == 1 / 2

    def test_no_rumor_tweets_for_subject(self):
        detections = {t.id: Detection(t.id, False) for t in TWEETS}
        values = content_attribution(TWEETS, detections, ARTICLES, Group.CLINTON_FOLLOWER)
        assert values[Subject.CLINTON] == 0.0

    def test_zero_articles_for_subject(self):
        no_trump = [a for a in ARTICLES if Subject.TRUMP not in a.subjects]
        with pytest.raises(ZeroArticlesForSubjectError):
            content_attribution(TWEETS, DETECTIONS, no_trump, Group.CLINTON_FOLLOWER)

    def test_subject_article_counts(self):
        assert analysis.subject_article_counts(ARTICLES) == {Subject.CLINTON: 3, Subject.TRUMP: 2}
        with pytest.raises(ZeroArticlesForSubjectError, match="TRUMP"):
            analysis.subject_article_counts(ARTICLES[:2])


class TestTimeline:
    def test_fixture_week_daily_bins(self):
        bins = timeline(TWEETS, DETECTIONS, DAY, WEEK_WINDOW)
        # day0: t1,t11,t12; day1: t2 (boundary ts),t13; rest zero
        assert bins == [
            (DAY0, 3),
            (DAY0 + DAY, 2),
            (DAY0 + 2 * DAY, 0),
            (DAY0 + 3 * DAY, 0),
            (DAY0 + 4 * DAY, 0),
            (DAY0 + 5 * DAY, 0),
            (DAY0 + 6 * DAY, 0),
        ]

    def test_boundary_timestamp_falls_in_its_bin(self):
        # t2 sits exactly on the day-1 bin start
        bins = timeline([TWEETS[1]], DETECTIONS, DAY, WEEK_WINDOW)
        assert bins[1] == (DAY0 + DAY, 1)

    def test_counts_sum_to_windowed_rumor_total(self):
        bins = timeline(TWEETS, DETECTIONS, DAY, WEEK_WINDOW)
        in_window = sum(
            1 for t in TWEETS
            if t.timestamp in WEEK_WINDOW and DETECTIONS[t.id].is_rumor
        )
        assert sum(c for _, c in bins) == in_window == 5

    def test_single_cluster_week(self):
        one_day = [t for t in TWEETS if t.id in ("t1", "t11", "t12")]
        bins = timeline(one_day, DETECTIONS, DAY, WEEK_WINDOW)
        assert [c for _, c in bins] == [3, 0, 0, 0, 0, 0, 0]


    def test_rumor_in_the_last_bin_of_a_window_the_float_quotient_rounds_down(self):
        # the window spans 999,999 bins and one second: 999,999.0000000000149 bins, which
        # rounds to 999,999.0 as a float; the rumor at end - 1 is in bin 999,999, the 10**6th
        width = 67_000_000_001
        window = TimeWindow(0, width * 999_999 + 1)
        acc = analysis.Accumulator(window, width)
        acc.add_block([Tweet("t1", "u1", Group.OTHER, window.end - 1, "x")], [True], [None])
        bins = acc.timeline()
        assert len(bins) == analysis.bin_count(window, width) == analysis.MAX_BINS
        assert bins[-1] == (width * 999_999, 1)
        assert sum(c for _, c in bins) == 1


class TestDetectPeaks:
    def test_flat_series(self):
        assert detect_peaks([4, 4, 4, 4]) == []

    def test_single_spike(self):
        # with a 12-bin baseline the spike clears mean + 2*stddev
        series = [1] * 7 + [10] + [1] * 4
        assert detect_peaks(series) == [7]

    def test_two_spike_fixture_hand_computed(self):
        # series [0, 8, 0, 0, 9, 0]: mean 17/6, std sqrt(sum((x-m)^2)/6)
        series = [0, 8, 0, 0, 9, 0]
        mean = 17 / 6
        std = math.sqrt(sum((x - mean) ** 2 for x in series) / 6)
        assert 8 > mean + 1.0 * std and 9 > mean + 1.0 * std  # sanity of hand calc
        assert detect_peaks(series, k=1.0) == [1, 4]
        assert detect_peaks(series, k=2.0) == []

    def test_fixture_timeline_peak(self):
        bins = timeline(TWEETS, DETECTIONS, DAY, WEEK_WINDOW)
        counts = [c for _, c in bins]
        # series [3,2,0,0,0,0,0]: mean 5/7, std sqrt(66)/7; cutoff at k=1 is
        # (5+sqrt(66))/7 ~ 1.875, so only the day-0 bin (count 3) qualifies
        assert detect_peaks(counts, k=1.0) == [0]

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            detect_peaks([])

    def test_cutoff_rounds_the_same_on_every_host(self):
        # the exact cutoff is 28.99999999999999732... (80 digits), so both 29s
        # are above it; squares by libm pow or a plain float sum can round it to 29
        series = [16, 26, 29, 21, 6, 0, 23, 3, 20, 5, 15, 24, 18, 19, 24, 12, 15, 6, 16, 2,
                  17, 23, 18, 9, 16, 22, 16, 14, 17, 9, 11, 16, 3, 13, 28, 5, 18, 3, 9, 21,
                  28, 12, 15, 17, 23, 21, 27, 28, 8, 15, 11, 29, 10, 1, 13]
        assert detect_peaks(series, 1.7379453335986241) == [2, 51]


class TestDetectionInvariant:
    def test_article_id_iff_rumor(self):
        with pytest.raises(ValueError):
            Detection("t1", True, None)
        with pytest.raises(ValueError):
            Detection("t1", False, "a1")


class TestOrderIndependence:
    def test_analyses_ignore_input_order(self):
        reversed_tweets = list(reversed(TWEETS))
        assert group_rumor_ratio(TWEETS, DETECTIONS, Group.TRUMP_FOLLOWER) == \
            group_rumor_ratio(reversed_tweets, DETECTIONS, Group.TRUMP_FOLLOWER)
        assert user_rumor_ratio_ranking(TWEETS, DETECTIONS, 5) == \
            user_rumor_ratio_ranking(reversed_tweets, DETECTIONS, 5)
        assert timeline(TWEETS, DETECTIONS, DAY, WEEK_WINDOW) == \
            timeline(reversed_tweets, DETECTIONS, DAY, WEEK_WINDOW)


class TestAccumulator:
    def test_one_pass_feeds_every_analysis(self):
        acc = analysis.Accumulator(WEEK_WINDOW, DAY, ["clinton", "Email"])
        dets = [DETECTIONS[t.id] for t in TWEETS]
        acc.add_block(TWEETS, [d.is_rumor for d in dets], [d.article_id for d in dets])
        assert acc.groups() == [Group.CLINTON_FOLLOWER, Group.TRUMP_FOLLOWER]
        assert acc.group_ratio(Group.CLINTON_FOLLOWER) == 3 / 10
        assert acc.group_ratio(Group.CLINTON_FOLLOWER, windowed=True) == 2 / 6
        assert acc.group_ratio(Group.TRUMP_FOLLOWER) == 4 / 14
        assert acc.group_ratio(Group.TRUMP_FOLLOWER, windowed=True) == 3 / 8
        with pytest.raises(EmptyDenominatorError):
            acc.group_ratio(Group.OTHER)
        assert acc.user_concentration(0.1) == 4 / 7
        assert acc.user_ranking(10) == [("u2", 4, 8, 0.5), ("u1", 3, 10, 0.3), ("u3", 0, 6, 0.0)]
        # clinton: rumors t1,t2,t3,t13; nonrumors t6,t8. email: rumor t2; nonrumors t4,t10
        assert acc.keyword_breakdown() == {"clinton": (4, 2), "email": (1, 2)}
        assert acc.content_attribution(ARTICLES, Group.CLINTON_FOLLOWER) == {
            Subject.CLINTON: 3 / 3, Subject.TRUMP: 1 / 2}
        assert [c for _, c in acc.timeline()] == [3, 2, 0, 0, 0, 0, 0]

    def test_bin_width_must_be_positive(self):
        with pytest.raises(ValueError):
            analysis.Accumulator(WEEK_WINDOW, 0)

    @pytest.mark.parametrize("end", [DAY0, DAY0 - 1])
    def test_window_start_must_precede_end(self, end):
        with pytest.raises(ValueError, match="window start must precede end"):
            TimeWindow(DAY0, end)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5, float("nan")])
    def test_top_fraction_outside_0_1_rejected(self, fraction):
        with pytest.raises(ValueError, match=re.escape("top_fraction must be in (0, 1]")):
            analysis.Accumulator(WEEK_WINDOW, DAY).user_concentration(fraction)

    def test_negative_top_n_rejected(self):
        with pytest.raises(ValueError, match="top_n must be 0 or more, got -1"):
            analysis.Accumulator(WEEK_WINDOW, DAY).user_ranking(-1)


# A small world for generated blocks: two bins' worth of edge timestamps, and
# words that keep, drop or split a keyword (mentions, URLs, a hashtag).
GEN_WINDOW = TimeWindow(1000, 1700)
GEN_ARTICLES = [
    RumorArticle("a1", "x", frozenset({Subject.CLINTON})),
    RumorArticle("a2", "x", frozenset({Subject.TRUMP})),
    RumorArticle("a3", "x", frozenset({Subject.CLINTON, Subject.TRUMP})),
    RumorArticle("a4", "x"),
]
GEN_KEYWORDS = ["Clinton", "email", "hoaxes"]
GEN_WORDS = ["clinton", "Clinton's", "email", "e-mail", "hoaxes", "#hoaxes", "@clinton",
             "www.email.com", "the", "a", "tax", "\x00", "clintonemail"]
GEN_TWEETS = st.lists(
    st.builds(
        Tweet,
        id=st.just(""),
        user_id=st.sampled_from(["u0", "u1", "u2", "u3"]),
        group=st.sampled_from(list(Group)),
        timestamp=st.one_of(st.sampled_from([999, 1000, 1099, 1100, 1699, 1700]),
                            st.integers(900, 1800)),
        text=st.lists(st.sampled_from(GEN_WORDS), max_size=5).map(" ".join),
    ),
    max_size=30,
)
GEN_DETECTIONS = st.one_of(st.just((False, None)),
                           st.tuples(st.just(True), st.sampled_from(["a1", "a2", "a3", "a4"])),
                           st.just((True, None)))  # a LEXICON rumor names no article


class TestAddBlockEqualsRecount:
    """add_block over any split of the tweets into blocks gives every analysis
    the counts of a naive tweet-by-tweet recount (oracles.analyses_oracle)."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(GEN_TWEETS, st.data(), st.sampled_from([1, 100, 333, 700, 1000]), st.booleans())
    def test_any_split(self, tweets, data, bin_width, stemming):
        detections = data.draw(st.lists(GEN_DETECTIONS, min_size=len(tweets),
                                        max_size=len(tweets)))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(tweets)), max_size=4)))
        tok = TokenizerConfig(stemming=stemming)
        acc = analysis.Accumulator(GEN_WINDOW, bin_width, GEN_KEYWORDS, tok)
        for lo, hi in zip([0, *cuts], [*cuts, len(tweets)]):
            acc.add_block(tweets[lo:hi], [r for r, _ in detections[lo:hi]],
                          [a for _, a in detections[lo:hi]])
        subjects = [Subject.CLINTON, Subject.TRUMP]
        want = analyses_oracle(tweets, detections, GEN_WINDOW, bin_width, GEN_KEYWORDS,
                               GEN_ARTICLES, subjects, tok)

        assert acc.groups() == sorted({g for g, _ in want["ratio"]}, key=lambda g: g.value)
        for (group, windowed), ratio in want["ratio"].items():
            if ratio is None:
                with pytest.raises(EmptyDenominatorError):
                    acc.group_ratio(group, windowed)
            else:
                assert acc.group_ratio(group, windowed) == ratio
        for fraction, share in want["concentration"].items():
            if share is None:
                with pytest.raises(NoRumorsError):
                    acc.user_concentration(fraction)
            else:
                assert acc.user_concentration(fraction) == share
        assert acc.user_ranking(len(tweets)) == want["ranking"]
        for k in range(len(want["ranking"])):  # every cut, ties at the cut among them
            assert acc.user_ranking(k) == want["ranking"][:k]
        assert acc.keyword_breakdown() == want["keywords"]
        for group, values in want["attribution"].items():
            assert acc.content_attribution(GEN_ARTICLES, group) == values
        assert acc.timeline() == want["timeline"]
