"""Threshold-sweep classification evaluation (precision/recall/F1 curves)
and identification accuracy (did the argmax article match the labeled one).

Precision convention: 0/0 -> 1 at zero-positive-prediction points, so every
curve starts at (recall 0, precision 1). Stated explicitly because toolkits
disagree on this convention.
"""

from __future__ import annotations

import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import Label, LabeledTweet
from .errors import (
    DegenerateLabelsError,
    NoRumorLabelsError,
)


@dataclass(frozen=True)
class PRPoint:
    threshold: float  # nan marks a fixed (threshold-free) operating point
    precision: float
    recall: float
    f1: float
    tp: int = 0
    fp: int = 0
    fn: int = 0


def _rates(tp, fp, n_rumor) -> tuple[float, float, float]:
    """(precision, recall, f1) with tp true and fp false positives of n_rumor rumors."""
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / n_rumor
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _pr_point(threshold, tp, fp, n_rumor) -> PRPoint:
    precision, recall, f1 = _rates(tp, fp, n_rumor)
    return PRPoint(
        threshold=threshold, precision=precision, recall=recall, f1=f1,
        tp=tp, fp=fp, fn=n_rumor - tp,
    )


class PRPoints(Sequence):
    """The points of a sweep, descending threshold, held as three numbers each.

    Only the threshold and the tp and fp counts are stored; each PRPoint is
    built by _pr_point when it is read.
    """

    def __init__(self, thresholds: array.array, tp: array.array, fp: array.array,
                 n_rumor: int):
        self._thresholds, self._tp, self._fp, self._n_rumor = thresholds, tp, fp, n_rumor

    def __len__(self) -> int:
        return len(self._thresholds)

    def __getitem__(self, i: int) -> PRPoint:
        return _pr_point(self._thresholds[i], self._tp[i], self._fp[i], self._n_rumor)


@dataclass(frozen=True)
class SweepResult:
    points: Sequence[PRPoint]  # descending threshold
    max_f1_point: PRPoint


def check_classes(labels: list[LabeledTweet], fixed_point: bool = False) -> int:
    """The number of RUMOR labels, if the labels can be evaluated: a sweep
    needs both classes (DegenerateLabelsError), a fixed point or an
    identification one RUMOR label (NoRumorLabelsError). Needs no score, so
    a caller can check before it reads a tweet."""
    n_rumor = sum(1 for l in labels if l.label is Label.RUMOR)
    if fixed_point:
        if n_rumor == 0:
            raise NoRumorLabelsError("no RUMOR labels to evaluate against")
    elif n_rumor == 0 or n_rumor == len(labels):
        raise DegenerateLabelsError("sweep needs at least one RUMOR and one NONRUMOR label")
    return n_rumor


def _per_label(values, labels: list[LabeledTweet]) -> Sequence:
    """``values``, checked to hold one value per label, in label order. A
    Mapping is refused: iterated, it would give its keys."""
    if isinstance(values, Mapping):
        raise TypeError("expected a sequence or array of one value per label, in label "
                        "order, not a Mapping")
    if len(values) != len(labels):
        raise ValueError(f"{len(values)} values for {len(labels)} labels")
    return values


def sweep(scores: Sequence[float], labels: list[LabeledTweet]) -> SweepResult:
    """Evaluate every classification threshold the score set can induce.

    Candidate thresholds are the distinct observed scores (classification is
    strict >, so each induces one confusion matrix), plus a final -inf point
    where every tweet is classified positive: without it the sweep could
    never reach recall 1. A NaN score is below every threshold, as in
    classification (NaN > h is false): it is never a candidate and its tweet
    is never counted positive, not even at the final -inf point. The max-F1
    point is the first, highest-threshold one among equal F1. ``scores``
    holds each label's score in label order.
    """
    values = np.asarray(_per_label(scores, labels), dtype=np.float64)
    n_rumor = check_classes(labels)
    is_rumor = np.fromiter((l.label is Label.RUMOR for l in labels), bool, len(labels))
    ranked = ~np.isnan(values)
    values, is_rumor = values[ranked], is_rumor[ranked]
    # descending score, RUMOR first among equal scores, then label order: a group
    # of equal scores (0.0 == -0.0) takes its threshold from its first member
    order = np.lexsort((~is_rumor, -values))
    values, is_rumor = values[order], is_rumor[order]
    first = np.ones(len(values), dtype=bool)  # the first tweet of each group of equal scores
    first[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(first)
    # the positives at a group's threshold are the tweets of the higher groups;
    # the final -inf point counts every ranked tweet
    ends = np.append(starts, len(values))
    tp = np.concatenate(([0], np.cumsum(is_rumor)))[ends]
    thresholds = array.array("d", np.append(values[starts], -np.inf).tobytes())
    tps = array.array("q", tp.astype(np.int64).tobytes())
    fps = array.array("q", (ends - tp).astype(np.int64).tobytes())

    points = PRPoints(thresholds, tps, fps, n_rumor)
    # max returns the first maximum; f1 alone spares building a PRPoint per point
    best = max(range(len(points)), key=lambda k: _rates(tps[k], fps[k], n_rumor)[2])
    return SweepResult(points=points, max_f1_point=points[best])


def fixed_point_eval(predictions: Sequence[bool], labels: list[LabeledTweet]) -> PRPoint:
    """Single PR point for a threshold-free classifier (lexicon matching);
    ``predictions`` holds each label's prediction in label order."""
    positive = _per_label(predictions, labels)
    n_rumor = check_classes(labels, fixed_point=True)
    tp = fp = 0
    for l, p in zip(labels, positive):
        if p:
            if l.label is Label.RUMOR:
                tp += 1
            else:
                fp += 1
    return _pr_point(float("nan"), tp, fp, n_rumor)


def identification_accuracy(best_articles: Sequence[Optional[str]],
                            labels: list[LabeledTweet]) -> float:
    """Fraction of rumor-labeled tweets whose best article equals the labeled one.

    ``best_articles`` holds each label's best article id in label order; a
    NONRUMOR label's is not read.
    """
    n_rumor = check_classes(labels, fixed_point=True)
    best = _per_label(best_articles, labels)
    return sum(a == l.article_id for l, a in zip(labels, best)
               if l.label is Label.RUMOR) / n_rumor
