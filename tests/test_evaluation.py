import math
import random
import tracemalloc

import pytest

from conftest import deadline
from oracles import sweep_oracle

from rumormatch.cli import (
    PR_HEADER,
    LabeledResults,
    RunConfig,
    _write_classify,
    pr_rows,
    write_csv,
)
from rumormatch.corpus import Label, LabeledTweet
from rumormatch.errors import (
    DegenerateLabelsError,
    NoRumorLabelsError,
)
from rumormatch.evaluation import (
    fixed_point_eval,
    identification_accuracy,
    sweep,
)


def rumor(tid, aid="a1"):
    return LabeledTweet(tweet_id=tid, label=Label.RUMOR, article_id=aid)


def nonrumor(tid):
    return LabeledTweet(tweet_id=tid, label=Label.NONRUMOR)


class TestSweep:
    def test_perfectly_separable(self):
        result = sweep([0.9, 0.1], [rumor("r1"), nonrumor("n1")])
        perfect = [p for p in result.points if p.precision == 1.0 and p.recall == 1.0]
        assert perfect
        assert result.max_f1_point.f1 == 1.0

    def test_inverted_scores(self):
        result = sweep([0.1, 0.9], [rumor("r1"), nonrumor("n1")])
        full_recall = [p for p in result.points if p.recall == 1.0]
        assert full_recall
        assert all(p.precision == 0.5 for p in full_recall)

    def test_six_tweet_fixture_hand_enumeration(self):
        # scores: r1 0.9, n1 0.8, r2 0.7, r3 0.5, n2 0.5, n3 0.2
        # thresholds (strict >): 0.9 -> 0P; 0.8 -> TP1 FP0; 0.7 -> TP1 FP1;
        # 0.5 -> TP2 FP1; 0.2 -> TP3 FP2; -inf -> TP3 FP3
        labels = [rumor("r1"), rumor("r2"), rumor("r3"),
                  nonrumor("n1"), nonrumor("n2"), nonrumor("n3")]
        result = sweep([0.9, 0.7, 0.5, 0.8, 0.5, 0.2], labels)
        got = [(p.threshold, p.tp, p.fp, p.fn) for p in result.points]
        assert got == [
            (0.9, 0, 0, 3),
            (0.8, 1, 0, 2),
            (0.7, 1, 1, 2),
            (0.5, 2, 1, 1),
            (0.2, 3, 2, 0),
            (float("-inf"), 3, 3, 0),
        ]
        # spot-check one point's derived values: threshold 0.5
        p = result.points[3]
        assert p.precision == pytest.approx(2 / 3)
        assert p.recall == pytest.approx(2 / 3)

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabelsError):
            sweep([0.9, 0.1], [rumor("r1"), rumor("r2")])

    def test_starts_at_precision_one_recall_zero(self):
        result = sweep([0.3, 0.7], [rumor("r1"), nonrumor("n1")])
        top = result.points[0]
        assert (top.precision, top.recall) == (1.0, 0.0)

    def test_matches_reclassification_oracle_randomly(self):
        rng = random.Random(31)
        for _ in range(100)        :
            n = rng.randint(2, 60)
            labels = []
            scores = {}
            # force both classes
            kinds = [True, False] + [rng.random() < 0.5 for _ in range(n - 2)]
            for i, is_rumor in enumerate(kinds):
                tid = f"t{i}"
                labels.append(rumor(tid) if is_rumor else nonrumor(tid))
                scores[tid] = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, rng.random()])
            result = sweep([scores[l.tweet_id] for l in labels], labels)
            expected = sweep_oracle(scores, labels)
            got = [(p.threshold, p.tp, p.fp, p.fn) for p in result.points]
            assert got == expected
            recalls = [p.recall for p in result.points]
            assert all(b >= a for a, b in zip(recalls, recalls[1:]))

    def test_nan_scores_are_below_every_threshold(self):
        # NaN > h is false: a NaN-scored tweet is no candidate and never positive,
        # not even at the final -inf point; the deadline fails a sweep that never ends
        nan = float("nan")
        scores = {"r1": 0.9, "r2": nan, "r3": 0.4, "n1": nan, "n2": 0.4}
        labels = [rumor("r1"), rumor("r2"), rumor("r3"), nonrumor("n1"), nonrumor("n2")]
        with deadline(0.5):
            result = sweep([scores[l.tweet_id] for l in labels], labels)
        got = [(p.threshold, p.tp, p.fp, p.fn) for p in result.points]
        assert got == [(0.9, 0, 0, 3), (0.4, 1, 0, 2), (float("-inf"), 2, 1, 1)]
        assert got == sweep_oracle(scores, labels)
        assert result.max_f1_point.threshold == float("-inf")
        assert result.max_f1_point.f1 == pytest.approx(2 / 3)

    def test_matches_the_oracle_with_nan_scores(self):
        rng = random.Random(7)
        for _ in range(100):
            kinds = [True, False] + [rng.random() < 0.5 for _ in range(rng.randint(0, 30))]
            labels = [rumor(f"t{i}") if r else nonrumor(f"t{i}") for i, r in enumerate(kinds)]
            scores = {l.tweet_id: rng.choice([float("nan"), 0.0, -0.0, 0.5, float("inf"),
                                              rng.random()]) for l in labels}
            with deadline(0.5):
                result = sweep([scores[l.tweet_id] for l in labels], labels)
            got = [(p.threshold, p.tp, p.fp, p.fn) for p in result.points]
            assert got == sweep_oracle(scores, labels)

    def test_max_f1_tie_goes_to_the_highest_threshold(self, tmp_path):
        # F1 2/3 at threshold 0.8 (TP1 FP0) and again at 0.5 (TP2 FP2), the same bits
        scores = {"r1": 0.9, "n1": 0.8, "n2": 0.7, "r2": 0.6, "n3": 0.5}
        labels = [rumor("r1"), rumor("r2"), nonrumor("n1"), nonrumor("n2"), nonrumor("n3")]
        result = sweep([scores[l.tweet_id] for l in labels], labels)
        ties = [p for p in result.points if p.f1 == result.max_f1_point.f1]
        assert [p.threshold for p in ties] == [0.8, 0.5]
        assert result.max_f1_point == ties[0]
        assert (result.max_f1_point.tp, result.max_f1_point.fp) == (1, 0)
        results = LabeledResults(labels)
        results.add_block(list(scores), [0] * len(scores), list(scores.values()),
                          [False] * len(scores))
        _write_classify(RunConfig(out=str(tmp_path)), labels, results)
        assert (tmp_path / "max_f1.csv").read_text().splitlines() == [
            "threshold,precision,recall,f1", "0.8,1.0,0.5,0.6666666666666666"]

    def test_result_holds_three_numbers_per_point(self):
        # 20k labeled tweets with distinct scores: 20,001 points; a PRPoint object per point
        # kept about 5.4 MB
        rng = random.Random(20_000)
        labels = [rumor(f"t{i}") if i % 2 else nonrumor(f"t{i}") for i in range(20_000)]
        scores = [rng.random() for _ in labels]
        tracemalloc.start()
        try:
            result = sweep(scores, labels)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.points) == 20_001
        assert retained < 1.5e6

    def test_confusion_identities(self):
        labels = [rumor("r1"), rumor("r2"), nonrumor("n1")]
        for p in sweep([0.9, 0.4, 0.6], labels).points:
            assert p.tp + p.fn == 2


class TestFixedPoint:
    def test_all_negative_predictions(self):
        labels = [rumor("r1"), nonrumor("n1")]
        point = fixed_point_eval([False, False], labels)
        assert (point.precision, point.recall, point.f1) == (1.0, 0.0, 0.0)

    def test_all_correct(self):
        labels = [rumor("r1"), nonrumor("n1")]
        point = fixed_point_eval([True, False], labels)
        assert (point.precision, point.recall) == (1.0, 1.0)

    def test_hand_confusion_matrix(self):
        # 1 TP, 1 FP, 3 FN
        labels = [rumor("r1"), rumor("r2"), rumor("r3"), rumor("r4"), nonrumor("n1")]
        point = fixed_point_eval([True, False, False, False, True], labels)
        assert point.precision == 0.5
        assert point.recall == 0.25
        assert point.f1 == pytest.approx(1 / 3)
        assert math.isnan(point.threshold)


class TestIdentification:
    def test_all_correct(self):
        labels = [rumor("r1", "a1"), rumor("r2", "a2")]
        assert identification_accuracy(["a1", "a2"], labels) == 1.0

    def test_none_correct(self):
        labels = [rumor("r1", "a1")]
        assert identification_accuracy(["a2"], labels) == 0.0

    def test_four_of_five(self):
        labels = [rumor(f"r{i}", f"a{i}") for i in range(5)]
        best = [f"a{i}" if i else "wrong" for i in range(5)]
        assert identification_accuracy(best, labels) == 0.8

    def test_nonrumor_labels_ignored(self):
        labels = [rumor("r1", "a1"), nonrumor("n1")]
        assert identification_accuracy(["a1", "a9"], labels) == 1.0

    def test_no_rumor_labels(self):
        with pytest.raises(NoRumorLabelsError):
            identification_accuracy([None], [nonrumor("n1")])

    def test_invariant_under_monotone_score_transform(self):
        # accuracy depends only on best_article_id, which argmax preserves
        labels = [rumor("r1", "a1")]
        for scale in (1.0, 2.0, 100.0):
            scores = {"a1": 5.0 * scale, "a2": 1.0 * scale}
            best = [max(scores, key=scores.get)]
            assert identification_accuracy(best, labels) == 1.0


class TestCsvExport:
    def test_pr_curve_format(self, tmp_path):
        result = sweep([0.9, 0.1], [rumor("r1"), nonrumor("n1")])
        p = tmp_path / "pr_curve.csv"
        write_csv(p, PR_HEADER, pr_rows(result.points))
        lines = p.read_text().splitlines()
        assert lines[0] == "threshold,precision,recall,f1"
        assert len(lines) == len(result.points) + 1

    def test_fixed_point_threshold_literal(self, tmp_path):
        point = fixed_point_eval([True, False], [rumor("r1"), nonrumor("n1")])
        p = tmp_path / "fixed.csv"
        write_csv(p, PR_HEADER, pr_rows([point]))
        assert p.read_text().splitlines()[1].startswith("fixed,")

    def test_identification_report(self, tmp_path):
        p = tmp_path / "identification.csv"
        write_csv(p, ("matcher", "accuracy", "n_evaluated"), [("BM25", 0.8, 5)])
        assert p.read_text().splitlines() == [
            "matcher,accuracy,n_evaluated", "BM25,0.8,5",
        ]


class TestLabelOrder:
    """Each evaluation takes one value per label, in label order, and refuses a
    tweet id Mapping, which it would iterate by its keys."""

    LABELS = [rumor("r1", "a1"), nonrumor("n1"), rumor("r2", "a2")]

    def test_sequence_in_label_order(self):
        points = sweep([0.9, 0.4, 0.1], self.LABELS).points
        assert [(p.threshold, p.tp, p.fp) for p in points] == [
            (0.9, 0, 0), (0.4, 1, 0), (0.1, 1, 1), (float("-inf"), 2, 1)]
        point = fixed_point_eval([True, True, False], self.LABELS)
        assert (point.tp, point.fp, point.fn) == (1, 1, 1)
        # a NONRUMOR label's entry is not read
        assert identification_accuracy(["a1", object(), "a9"], self.LABELS) == 0.5

    def test_length_must_match(self):
        with pytest.raises(ValueError, match="2 values for 3 labels"):
            sweep([0.9, 0.4], self.LABELS)

    def test_mapping_refused(self):
        # a dict of the right length would otherwise be read by its keys, with no error
        match = ("expected a sequence or array of one value per label, in label order, "
                 "not a Mapping")
        with pytest.raises(TypeError, match=match):
            sweep({"r1": 0.9, "n1": 0.4, "r2": 0.1}, self.LABELS)
        with pytest.raises(TypeError, match=match):
            fixed_point_eval({"r1": True, "n1": False, "r2": True}, self.LABELS)
        with pytest.raises(TypeError, match=match):
            identification_accuracy({"r1": "a1", "n1": None, "r2": "a2"}, self.LABELS)
