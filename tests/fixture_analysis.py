"""Committed hand-checkable corpus for the analysis module: 24 tweets,
3 users, 2 follower groups, 5 reference articles.

Every expected value asserted against this fixture was computed by hand
from the counts below (see the inline per-user layout).
"""

from rumormatch.analysis import Detection, TimeWindow
from rumormatch.corpus import Group, RumorArticle, Subject, Tweet

DAY = 86400
DAY0 = 1462060800  # 2016-05-01T00:00Z, inside the election window
MARCH = 1456790400  # 2016-03-01T00:00Z, outside it

WEEK_WINDOW = TimeWindow(start=DAY0, end=DAY0 + 7 * DAY)

ARTICLES = [
    RumorArticle(id="a1", body="clinton parkinsons diagnosis",
                 subjects=frozenset({Subject.CLINTON})),
    RumorArticle(id="a2", body="clinton email server scandal",
                 subjects=frozenset({Subject.CLINTON})),
    RumorArticle(id="a3", body="trump tax returns hidden",
                 subjects=frozenset({Subject.TRUMP})),
    RumorArticle(id="a4", body="clinton trump debate fix",
                 subjects=frozenset({Subject.CLINTON, Subject.TRUMP})),
    RumorArticle(id="a5", body="celebrity endorsement hoax",
                 subjects=frozenset({Subject.OTHER})),
]


def _t(tid, user, group, ts, text):
    return Tweet(id=tid, user_id=user, group=group, timestamp=ts, text=text)


C = Group.CLINTON_FOLLOWER
T = Group.TRUMP_FOLLOWER

# u1 (Clinton follower), 10 tweets: rumors t1->a1, t2->a2 (in window), t3->a4 (March)
# u2 (Trump follower), 8 tweets: rumors t11,t12->a3, t13->a1 (in window), t14->a5 (March)
# u3 (Trump follower), 6 tweets: no rumors
TWEETS = [
    _t("t1", "u1", C, DAY0 + 100, "Clinton hiding Parkinsons diagnosis"),
    _t("t2", "u1", C, DAY0 + 1 * DAY, "Clinton email server leak scandal"),
    _t("t3", "u1", C, MARCH, "Clinton and Trump debate rumor mill"),
    _t("t4", "u1", C, DAY0 + 2 * DAY + 5, "email dump coming soon folks"),
    _t("t5", "u1", C, DAY0 + 3 * DAY, "lovely weather in rochester today"),
    _t("t6", "u1", C, DAY0 + 4 * DAY, "Clinton rally downtown was huge"),
    _t("t7", "u1", C, DAY0 + 5 * DAY, "baseball game tonight go team"),
    _t("t8", "u1", C, MARCH + 10, "Clinton speech transcript released"),
    _t("t9", "u1", C, MARCH + 20, "my cat sleeps all day long"),
    _t("t10", "u1", C, MARCH + 30, "email privacy matters to everyone"),
    _t("t11", "u2", T, DAY0 + 10, "trump tax returns hidden they say"),
    _t("t12", "u2", T, DAY0 + 20, "tax returns still hidden folks"),
    _t("t13", "u2", T, DAY0 + 1 * DAY + 50, "parkinsons diagnosis for clinton confirmed"),
    _t("t14", "u2", T, MARCH + 40, "celebrity endorsement hoax strikes again"),
    _t("t15", "u2", T, DAY0 + 2 * DAY, "great rally crowd tonight"),
    _t("t16", "u2", T, DAY0 + 3 * DAY, "debate night who is watching"),
    _t("t17", "u2", T, MARCH + 50, "spring weather finally here"),
    _t("t18", "u2", T, MARCH + 60, "coffee first politics later"),
    _t("t19", "u3", T, DAY0 + 4 * DAY, "football season cannot come sooner"),
    _t("t20", "u3", T, DAY0 + 5 * DAY, "new phone battery lasts forever"),
    _t("t21", "u3", T, DAY0 + 6 * DAY, "reading a great novel this week"),
    _t("t22", "u3", T, MARCH + 70, "gardening tips for the spring"),
    _t("t23", "u3", T, MARCH + 80, "recipe of the day pasta"),
    _t("t24", "u3", T, MARCH + 90, "morning run done feeling good"),
]

_RUMOR_ARTICLES = {
    "t1": "a1", "t2": "a2", "t3": "a4",
    "t11": "a3", "t12": "a3", "t13": "a1", "t14": "a5",
}

DETECTIONS = {
    t.id: Detection(
        tweet_id=t.id,
        is_rumor=t.id in _RUMOR_ARTICLES,
        article_id=_RUMOR_ARTICLES.get(t.id),
    )
    for t in TWEETS
}
