import collections
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rumormatch import cli, corpus
from rumormatch.corpus import Group, Label, Subject
from rumormatch.errors import DanglingTweetRefError, DuplicateIdError, MalformedLineError


def write_jsonl(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


TWEETS = [
    {"id": "t1", "user_id": "u1", "group": "CLINTON_FOLLOWER", "timestamp": 1462060800,
     "text": "Hillary collapse at Ground Zero!"},
    {"id": "t2", "user_id": "u2", "group": "TRUMP_FOLLOWER", "timestamp": 1462060801,
     "text": "lovely weather today"},
    {"id": "t3", "user_id": "u1", "group": "OTHER", "timestamp": 1462060802,
     "text": "is it true that this happened?"},
]

ARTICLES = [
    {"id": "a1", "title": "Shaky Diagnosis", "body": "clinton parkinsons disease",
     "subjects": ["CLINTON"], "source_url": "http://example.com/a1"},
    {"id": "a2", "title": "Tax Returns", "body": "trump tax returns hidden",
     "subjects": ["TRUMP"]},
]


class TestLoadTweets:
    def test_three_valid_lines(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        write_jsonl(p, TWEETS)
        tweets = corpus.load_tweets(p)
        assert [t.id for t in tweets] == ["t1", "t2", "t3"]
        assert tweets[0].group is Group.CLINTON_FOLLOWER
        assert tweets[0].timestamp == 1462060800

    def test_empty_file(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        p.write_text("")
        assert corpus.load_tweets(p) == []

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        write_jsonl(p, [TWEETS[0], TWEETS[0]])
        with pytest.raises(DuplicateIdError) as exc:
            corpus.load_tweets(p)
        assert exc.value.dup_id == "t1"

    def test_malformed_line_fails_fast(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        p.write_text(json.dumps(TWEETS[0]) + "\nnot json\n")
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_tweets(p)
        assert exc.value.line_no == 2

    def test_blank_text_rejected(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        write_jsonl(p, [dict(TWEETS[0], text="   ")])
        with pytest.raises(MalformedLineError):
            corpus.load_tweets(p)


def tweet_line(**changes):
    """A valid tweet line with fields changed; a field set to None is removed."""
    obj = dict(TWEETS[0], **changes)
    return json.dumps({k: v for k, v in obj.items() if v is not None})


class TestTweetLineEdges:
    """Lines off the plain case: each is coerced, or fails with the class,
    message and path:line of the per-field checks."""

    @pytest.mark.parametrize("lines,error,suffix", [
        pytest.param([tweet_line(), "", "   ", tweet_line(id="t2", text=" ")],
                     MalformedLineError, ":4: malformed line: tweet 't2' has empty text",
                     id="blank-lines-are-skipped-and-counted"),
        pytest.param([tweet_line(id=5), tweet_line(id="5")],
                     DuplicateIdError, ":2: duplicate id '5'", id="int-id-then-its-str"),
        pytest.param([tweet_line(), tweet_line()], DuplicateIdError, ":2: duplicate id 't1'",
                     id="duplicate-id"),
        pytest.param([tweet_line(id="")], MalformedLineError, ":1: malformed line: empty id",
                     id="empty-id"),
        *[pytest.param([tweet_line(**{key: None})], MalformedLineError,
                       f":1: malformed line: missing field {key!r}", id=f"missing-{key}")
          for key in ("id", "text", "group", "timestamp", "user_id")],
        pytest.param([tweet_line(group="NOBODY")], MalformedLineError,
                     ":1: malformed line: 'NOBODY' is not a valid Group", id="unknown-group"),
        pytest.param([tweet_line(group=["OTHER"])], MalformedLineError,
                     ":1: malformed line: ['OTHER'] is not a valid Group", id="list-group"),
        pytest.param([tweet_line(timestamp=1462060800.0)], MalformedLineError,
                     ":1: malformed line: timestamp must be an integer", id="float-timestamp"),
        pytest.param([tweet_line(timestamp=True)], MalformedLineError,  # bool is an int
                     ":1: malformed line: timestamp must be an integer", id="bool-timestamp"),
        pytest.param([tweet_line(text=" \t ")], MalformedLineError,
                     ":1: malformed line: tweet 't1' has empty text", id="blank-text"),
        pytest.param(['["t1"]'], MalformedLineError, ":1: malformed line: expected a JSON object",
                     id="array-line"),
        pytest.param(['"t1"'], MalformedLineError, ":1: malformed line: expected a JSON object",
                     id="string-line"),
        pytest.param(['{"id": '], MalformedLineError,
                     ":1: malformed line: Expecting value: line 2 column 1 (char 8)",
                     id="truncated-json"),
        # raw lines, as tweet_line drops a None key: a null is missing, not "None"
        *[pytest.param([json.dumps(dict(TWEETS[0], **{key: None}))], MalformedLineError,
                       f":1: malformed line: field {key!r} is null", id=f"null-{key}")
          for key in ("id", "text", "group", "timestamp", "user_id")],
        pytest.param(['{"id": null, "user_id": null, "group": "OTHER", "timestamp": 5, '
                      '"text": "a b"}'],
                     MalformedLineError, ":1: malformed line: field 'id' is null",
                     id="null-ids"),
        pytest.param([tweet_line(id=True, user_id=False)], MalformedLineError,
                     ":1: malformed line: field 'id' is true, not an id", id="bool-id"),
        pytest.param([tweet_line(), tweet_line(id="t2", user_id=False)], MalformedLineError,
                     ":2: malformed line: field 'user_id' is false, not an id",
                     id="bool-user-id"),
    ])
    def test_error(self, tmp_path, lines, error, suffix):
        p = tmp_path / "tweets.jsonl"
        p.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        with pytest.raises(error) as exc:
            corpus.load_tweets(p)
        assert type(exc.value) is error
        assert str(exc.value) == f"{p}{suffix}"

    @pytest.mark.parametrize("changes,field,value", [
        ({"id": 5}, "id", "5"),
        ({"id": 1.5}, "id", "1.5"),
        ({"user_id": 7}, "user_id", "7"),
        ({"text": 42}, "text", "42"),
        ({"text": ["a b"]}, "text", "['a b']"),
    ])
    def test_coerced(self, tmp_path, changes, field, value):
        p = tmp_path / "tweets.jsonl"
        p.write_text(tweet_line(**changes) + "\n", encoding="utf-8")
        (tweet,) = corpus.load_tweets(p)
        assert {f: getattr(tweet, f) for f in TWEETS[0]} == dict(
            TWEETS[0], group=Group.CLINTON_FOLLOWER, **{field: value})
        assert type(getattr(tweet, field)) is type(value)

    def test_tweet_is_an_immutable_record(self):
        t = corpus.Tweet("t1", "u1", Group.OTHER, 5, "x")
        assert t == corpus.Tweet(id="t1", user_id="u1", group=Group.OTHER, timestamp=5, text="x")
        assert t != corpus.Tweet("t1", "u1", Group.OTHER, 6, "x")
        assert (t.id, t.user_id, t.group, t.timestamp, t.text) == ("t1", "u1", Group.OTHER, 5, "x")
        with pytest.raises(AttributeError):
            t.text = "y"


def numbered_lines(n, dups=None):
    """n valid tweet lines with ids t1..tn; dups maps a line number to the
    number of the earlier line whose id it repeats."""
    return [tweet_line(id=f"t{(dups or {}).get(i, i)}") for i in range(1, n + 1)]


def write_lines(path, lines):
    path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")


def tail_lines(n):
    """n valid tweet lines whose ids no numbered line has."""
    return [tweet_line(id=f"tail{i}") for i in range(n)]


class TestDuplicateCheck:
    """iter_tweets keeps 8-byte keys of the ids it has read and raises only
    for a real repeat, at the first fault in file order. tail is the number
    of valid lines after the case: the ids are checked when the file ends or
    at the first malformed line, so the lines after a fault never change
    which fault is named."""

    @pytest.mark.parametrize("tail,dup_line,of_line", [
        (1024, 5, 2), (2, 3, 2), (2, 5, 1), (2, 9, 4), (2, 17, 1), (2, 17, 16)])
    def test_duplicate_within_and_across_batches(self, tmp_path, tail, dup_line, of_line):
        p = tmp_path / "tweets.jsonl"
        write_lines(p, numbered_lines(20, {dup_line: of_line}) + tail_lines(tail))
        with pytest.raises(DuplicateIdError) as exc:
            corpus.load_tweets(p)
        assert str(exc.value) == f"{p}:{dup_line}: duplicate id 't{of_line}'"

    @pytest.mark.parametrize("tail", [3, 1024])
    def test_duplicate_before_a_malformed_line_wins(self, tmp_path, tail):
        p = tmp_path / "tweets.jsonl"
        write_lines(p, numbered_lines(5, {5: 1}) + ["not json"] + tail_lines(tail))
        with pytest.raises(DuplicateIdError) as exc:
            corpus.load_tweets(p)
        assert str(exc.value) == f"{p}:5: duplicate id 't1'"

    @pytest.mark.parametrize("tail", [3, 1024])
    def test_malformed_line_before_a_duplicate_wins(self, tmp_path, tail):
        p = tmp_path / "tweets.jsonl"
        write_lines(p, numbered_lines(4) + [tweet_line(id="t5", group="NOBODY"),
                                            tweet_line(id="t1")] + tail_lines(tail))
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_tweets(p)
        assert str(exc.value) == f"{p}:5: malformed line: 'NOBODY' is not a valid Group"

    @pytest.mark.parametrize("tail", [3, 1024])
    def test_duplicate_id_on_a_malformed_line_is_the_first_fault(self, tmp_path, tail):
        p = tmp_path / "tweets.jsonl"
        write_lines(p, numbered_lines(4) + [tweet_line(id="t2", text=" ")] + tail_lines(tail))
        with pytest.raises(DuplicateIdError) as exc:
            corpus.load_tweets(p)
        assert str(exc.value) == f"{p}:5: duplicate id 't2'"

    @pytest.mark.parametrize("tail", [1, 3, 1024])
    def test_key_collisions_never_raise(self, tmp_path, monkeypatch, tail):
        monkeypatch.setattr(corpus, "_id_key", lambda tid: 7)
        p = tmp_path / "tweets.jsonl"
        write_lines(p, numbered_lines(10) + tail_lines(tail))
        assert [t.id for t in corpus.load_tweets(p)] == (
            [f"t{i}" for i in range(1, 11)] + [f"tail{i}" for i in range(tail)])
        write_lines(p, numbered_lines(10, {8: 6}) + tail_lines(tail))  # a real repeat is found
        with pytest.raises(DuplicateIdError) as exc:
            corpus.load_tweets(p)
        assert str(exc.value) == f"{p}:8: duplicate id 't6'"
        # the suspects' lines are re-read up to the faulty line, not past it
        write_lines(p, numbered_lines(10) + [tweet_line(id=None)] + tail_lines(tail))
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_tweets(p)
        assert str(exc.value) == f"{p}:11: malformed line: missing field 'id'"

    def test_error_text_does_not_depend_on_hash_seed(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        write_lines(p, numbered_lines(40, {29: 3, 33: 30}))
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = ("import sys\nfrom rumormatch import corpus\n"
                  "try:\n    corpus.load_tweets(sys.argv[1])\n"
                  "except Exception as exc:\n    print(type(exc).__name__, exc)\n")
        texts = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            texts.append(subprocess.run([sys.executable, "-c", script, str(p)], env=env,
                                        check=True, timeout=60, capture_output=True,
                                        text=True).stdout)
        assert texts[0] == texts[1] == f"DuplicateIdError {p}:29: duplicate id 't3'\n"

    def test_memory_per_tweet_is_bounded(self, tmp_path):
        # a set of 200k 18-digit id strings alone traces about 23 MB; keys take 1.6 MB
        p = tmp_path / "tweets.jsonl"
        with open(p, "w", encoding="utf-8") as fh:
            for i in range(200_000):
                fh.write(f'{{"id": "{700000000000000000 + i}", "user_id": "u", '
                         f'"group": "OTHER", "timestamp": 1, "text": "x"}}\n')
        tracemalloc.start()
        try:
            collections.deque(corpus.iter_tweets(p), maxlen=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def reference_jsonl(path):
    """_iter_jsonl without its scanner fast path: json.loads on every non-blank line."""
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


def outcome(lines):
    """The (line_no, repr(object)) pairs a reader yields, or the text of its error."""
    try:
        return [(n, repr(obj)) for n, obj in lines]
    except MalformedLineError as exc:
        return str(exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=6)
# what a line is turned into: its JSON text as it is, or mutated
MUTATIONS = {
    "plain": lambda text: text,
    "leading space": lambda text: " " + text,
    "trailing space": lambda text: text + " \t",
    "bom": lambda text: "\ufeff" + text,
    "extra data": lambda text: text + " {}",
    "junk": lambda text: text + "x",
    "truncated": lambda text: text[:len(text) // 2],
    "blank": lambda text: "  ",
    "empty": lambda text: "",
    "nan": lambda text: '{"x": NaN, "y": -Infinity}',
    "array": lambda text: "[1, 2]",
    "crlf": lambda text: text + "\r",
}
LINES = st.tuples(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=3),
                  st.sampled_from(sorted(MUTATIONS)), st.booleans()).map(
    lambda t: MUTATIONS[t[1]](json.dumps(t[0], ensure_ascii=t[2])))


class TestLineReader:
    """The scanner fast path of _iter_jsonl gives the objects, or the error
    text, of json.loads on every line; a byte that is not UTF-8 is a
    malformed line named by its number, in file order."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(LINES, max_size=6), st.booleans())
    def test_same_as_json_loads(self, tmp_path_factory, lines, last_newline):
        p = tmp_path_factory.mktemp("lines") / "in.jsonl"
        with open(p, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + ("\n" if last_newline and lines else ""))
        assert outcome(corpus._iter_jsonl(p)) == outcome(reference_jsonl(p))

    @pytest.mark.parametrize("read,lines", [
        (corpus.load_tweets, [json.dumps(t) for t in TWEETS]),
        (corpus.load_articles, [json.dumps(dict(ARTICLES[0], id=f"a{i}")) for i in range(3)]),
        (lambda p: corpus.read_labels(p, {"a1"}), [
            json.dumps({"tweet_id": f"t{i}", "label": "NONRUMOR"}) for i in range(3)]),
        (lambda p: list(cli.load_detections(p)), [
            json.dumps({"tweet_id": f"t{i}", "article_id": None, "score": 0.0,
                        "label": "NONRUMOR"}) for i in range(3)]),
    ], ids=["tweets", "articles", "labels", "matches"])
    def test_bad_byte_names_its_line(self, tmp_path, read, lines):
        p = tmp_path / "in.jsonl"
        bad = lines[1].encode().replace(b'{"', b'{"\xff', 1)  # in the first key
        p.write_bytes(b"\n".join([lines[0].encode(), bad, lines[2].encode()]) + b"\n")
        with pytest.raises(MalformedLineError) as exc:
            read(p)
        assert str(exc.value) == (f"{p}:2: malformed line: 'utf-8' codec can't decode byte "
                                  "0xff in position 2: invalid start byte")

    def test_lines_before_a_bad_byte_are_read_in_order(self, tmp_path):
        # the bad byte is chunks past the first line, and the lines before it are yielded
        p = tmp_path / "tweets.jsonl"
        lines = [tweet_line(id=f"t{i}").encode() for i in range(1, 400)]
        p.write_bytes(b"\n".join(lines) + b"\n\xe2\x82\n" + lines[0] + b"\n")
        seen = []
        with pytest.raises(MalformedLineError) as exc:
            seen.extend(t.id for t in corpus.iter_tweets(p))
        assert seen == [f"t{i}" for i in range(1, 400)]
        assert str(exc.value) == (f"{p}:400: malformed line: 'utf-8' codec can't decode bytes "
                                  "in position 0-1: invalid continuation byte")

    def test_fault_before_a_bad_byte_wins(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        p.write_bytes(b"not json\n\xff\n")
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_tweets(p)
        assert str(exc.value) == f"{p}:1: malformed line: Expecting value: line 1 column 1 (char 0)"


class TestLoadArticles:
    def test_two_valid_lines(self, tmp_path):
        p = tmp_path / "articles.jsonl"
        write_jsonl(p, ARTICLES)
        articles = corpus.load_articles(p)
        assert len(articles) == 2
        assert articles[0].subjects == frozenset({Subject.CLINTON})

    def test_missing_subjects_defaults_to_other(self, tmp_path):
        p = tmp_path / "articles.jsonl"
        obj = dict(ARTICLES[0])
        del obj["subjects"]
        write_jsonl(p, [obj])
        (article,) = corpus.load_articles(p)
        assert article.subjects == frozenset({Subject.OTHER})

    def test_empty_body(self, tmp_path):
        p = tmp_path / "articles.jsonl"
        write_jsonl(p, [dict(ARTICLES[0], body=" ")])
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_articles(p)
        assert str(exc.value) == f"{p}:1: malformed line: article 'a1' has empty body"

    @pytest.mark.parametrize("lines,error,suffix", [
        pytest.param([dict(ARTICLES[0], id="")], MalformedLineError,
                     ":1: malformed line: empty id", id="empty-id"),
        pytest.param([ARTICLES[1], ARTICLES[0], ARTICLES[1]], DuplicateIdError,
                     ":3: duplicate id 'a2'", id="duplicate-id"),
        pytest.param([dict(ARTICLES[0], subjects=["CLINTON", "SANDERS"])], MalformedLineError,
                     ":1: malformed line: 'SANDERS' is not a valid Subject",
                     id="unknown-subject"),
        pytest.param([{"id": None, "body": None}], MalformedLineError,
                     ":1: malformed line: field 'id' is null", id="null-id-and-body"),
        pytest.param([dict(ARTICLES[0], body=None)], MalformedLineError,
                     ":1: malformed line: field 'body' is null", id="null-body"),
        pytest.param([ARTICLES[0], dict(ARTICLES[1], id=False)], MalformedLineError,
                     ":2: malformed line: field 'id' is false, not an id", id="bool-id"),
    ])
    def test_error(self, tmp_path, lines, error, suffix):
        p = tmp_path / "articles.jsonl"
        write_jsonl(p, lines)
        with pytest.raises(error) as exc:
            corpus.load_articles(p)
        assert type(exc.value) is error
        assert str(exc.value) == f"{p}{suffix}"

    def test_null_title_is_ignored(self, tmp_path):
        p = tmp_path / "articles.jsonl"
        write_jsonl(p, [dict(ARTICLES[0], title=None, subjects=None)])
        (article,) = corpus.load_articles(p)
        assert article == corpus.RumorArticle("a1", ARTICLES[0]["body"],
                                              frozenset({Subject.OTHER}))

    @pytest.mark.parametrize("subjects", [5, "CLINTON", {"CLINTON": True}])
    def test_subjects_not_a_list(self, tmp_path, subjects):
        p = tmp_path / "articles.jsonl"
        write_jsonl(p, [ARTICLES[1], dict(ARTICLES[0], subjects=subjects)])
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_articles(p)
        assert str(exc.value) == (
            f"{p}:2: malformed line: subjects must be a list, got {subjects!r}")


class TestLoadLabels:
    @pytest.fixture
    def loaded(self, tmp_path):
        write_jsonl(tmp_path / "tweets.jsonl", TWEETS)
        write_jsonl(tmp_path / "articles.jsonl", ARTICLES)
        return ({a.id for a in corpus.load_articles(tmp_path / "articles.jsonl")},
                {t.id for t in corpus.load_tweets(tmp_path / "tweets.jsonl")})

    def test_valid_labels(self, tmp_path, loaded):
        p = tmp_path / "labels.jsonl"
        write_jsonl(p, [
            {"tweet_id": "t1", "label": "RUMOR", "article_id": "a1"},
            {"tweet_id": "t2", "label": "NONRUMOR"},
        ])
        labels = corpus.load_labels(p, *loaded)
        assert labels[0].label is Label.RUMOR
        assert labels[1].article_id is None

    def test_dangling_tweet(self, tmp_path, loaded):
        p = tmp_path / "labels.jsonl"
        write_jsonl(p, [{"tweet_id": "t9", "label": "RUMOR", "article_id": "a1"}])
        with pytest.raises(DanglingTweetRefError):
            corpus.load_labels(p, *loaded)

    def test_dangling_article(self, tmp_path, loaded):
        p = tmp_path / "labels.jsonl"
        write_jsonl(p, [{"tweet_id": "t1", "label": "RUMOR", "article_id": "a9"}])
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_labels(p, *loaded)
        assert str(exc.value) == f"{p}:1: malformed line: label references unknown article 'a9'"

    def test_rumor_without_article(self, tmp_path, loaded):
        p = tmp_path / "labels.jsonl"
        write_jsonl(p, [{"tweet_id": "t1", "label": "RUMOR"}])
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_labels(p, *loaded)
        assert str(exc.value) == (f"{p}:1: malformed line: RUMOR label for tweet 't1' has "
                                  "article_id None; RUMOR needs one, NONRUMOR takes none")

    def test_nonrumor_with_article(self, tmp_path, loaded):
        p = tmp_path / "labels.jsonl"
        write_jsonl(p, [{"tweet_id": "t1", "label": "NONRUMOR", "article_id": "a1"}])
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_labels(p, *loaded)
        assert str(exc.value) == (f"{p}:1: malformed line: NONRUMOR label for tweet 't1' has "
                                  "article_id 'a1'; RUMOR needs one, NONRUMOR takes none")

    @pytest.mark.parametrize("line,reason", [
        pytest.param({"tweet_id": "t1", "label": "MAYBE"}, "'MAYBE' is not a valid Label",
                     id="unknown-label"),
        pytest.param({"tweet_id": None, "label": "NONRUMOR"}, "field 'tweet_id' is null",
                     id="null-tweet-id"),
        pytest.param({"tweet_id": "t1", "label": None}, "field 'label' is null",
                     id="null-label"),
        pytest.param({"tweet_id": True, "label": "NONRUMOR"},
                     "field 'tweet_id' is true, not an id", id="bool-tweet-id"),
    ])
    def test_malformed_label_line(self, tmp_path, loaded, line, reason):
        p = tmp_path / "labels.jsonl"
        write_jsonl(p, [{"tweet_id": "t2", "label": "NONRUMOR"}, line])
        with pytest.raises(MalformedLineError) as exc:
            corpus.read_labels(p, loaded[0])
        assert str(exc.value) == f"{p}:2: malformed line: {reason}"

    def test_tweet_labeled_twice(self, tmp_path, loaded):
        p = tmp_path / "labels.jsonl"
        write_jsonl(p, [{"tweet_id": "t1", "label": "RUMOR", "article_id": "a1"},
                        {"tweet_id": "t2", "label": "NONRUMOR"},
                        {"tweet_id": "t1", "label": "NONRUMOR"}])
        with pytest.raises(DuplicateIdError) as exc:
            corpus.read_labels(p, loaded[0])
        assert str(exc.value) == f"{p}:3: duplicate id 't1'"

    def test_repeat_before_a_faulty_line_is_named(self, tmp_path, loaded):
        p = tmp_path / "labels.jsonl"
        write_jsonl(p, [{"tweet_id": "t1", "label": "NONRUMOR"},
                        {"tweet_id": "t1", "label": "NONRUMOR"},
                        {"tweet_id": "t2", "label": "MAYBE"}])
        with pytest.raises(DuplicateIdError) as exc:
            corpus.read_labels(p, loaded[0])
        assert str(exc.value) == f"{p}:2: duplicate id 't1'"

    @pytest.mark.parametrize("article_id", [["a1"], 1, {"a1": True}])
    def test_non_string_article_id(self, tmp_path, loaded, article_id):
        p = tmp_path / "labels.jsonl"
        write_jsonl(p, [{"tweet_id": "t2", "label": "NONRUMOR"},
                        {"tweet_id": "t1", "label": "RUMOR", "article_id": article_id}])
        with pytest.raises(MalformedLineError) as exc:
            corpus.load_labels(p, *loaded)
        assert str(exc.value) == (
            f"{p}:2: malformed line: article_id must be a string, got {article_id!r}")
