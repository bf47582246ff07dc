"""Evaluation metrics, threshold sweeps and rank statistics.

Every metric over scored examples takes two equal-length arrays, the scores
and their 0/1 labels, and reads them in numpy passes. +Recall, -Recall, F1
and AUC are None where they are undefined (an empty denominator, or a class
with no examples) rather than 0. The Mann-Whitney-Wilcoxon test raises
instead, on samples it cannot judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "MwwResult",
    "auc",
    "check_thresholds",
    "confusion_at",
    "f1",
    "minus_recall",
    "mww_test",
    "plus_recall",
    "threshold_sweep",
]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int


def confusion_at(scores, labels, threshold: float) -> ConfusionMatrix:
    """Tally predictions at a threshold; score ties classify as positive."""
    predicted = np.asarray(scores) >= threshold
    actual = np.asarray(labels) == 1
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    return ConfusionMatrix(tp=tp, tn=len(predicted) - tp - fp - fn, fp=fp, fn=fn)


def plus_recall(cm: ConfusionMatrix) -> float | None:
    """tp / (tp + fn): share of correct patches identified; None without any."""
    return cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else None


def minus_recall(cm: ConfusionMatrix) -> float | None:
    """tn / (tn + fp): share of incorrect patches filtered out; None without any."""
    return cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp else None


def f1(cm: ConfusionMatrix) -> float | None:
    """2*tp / (2*tp + fp + fn); None when no positive is present or predicted."""
    denom = 2 * cm.tp + cm.fp + cm.fn
    return 2 * cm.tp / denom if denom else None


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks, where tied values share the mean of their ordinal
    ranks, and the size of each group of tied values."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the ordinal rank of each group's last member
    return (last - 0.5 * (counts - 1))[group], counts


def auc(scores, labels) -> float | None:
    """Probability that a random positive outscores a random negative, ties
    counting one half: the rank-sum form of the ROC trapezoid area. None
    unless both classes are present."""
    labels = np.asarray(labels)
    positive = labels == 1
    positives = int(positive.sum())
    negatives = int((labels == 0).sum())
    if positives == 0 or negatives == 0:
        return None
    ranks, _ = _midranks(np.asarray(scores, dtype=np.float64))
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)


@dataclass(frozen=True)
class MwwResult:
    u_statistic: float
    p_value: float


def mww_test(sample_a, sample_b) -> MwwResult:
    """Two-sided Mann-Whitney-Wilcoxon test with the normal approximation.

    The U statistic counts the pairs where the first sample exceeds the
    second, ties at one half. The z denominator carries the tie correction;
    samples whose pooled values are all identical have zero variance and are
    rejected. p = 2 * (1 - Phi(|z|)).
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    n1, n2 = a.shape[0], b.shape[0]
    if n1 < 3 or n2 < 3:
        raise ValueError("mww_test needs at least 3 elements in each sample")
    ranks, counts = _midranks(np.concatenate([a, b]))
    u_stat = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    n = n1 + n2
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        raise ValueError("zero variance: all values across both samples are identical")
    z = (u_stat - n1 * n2 / 2.0) / math.sqrt(variance)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return MwwResult(u_statistic=u_stat, p_value=p_value)


def check_thresholds(thresholds) -> tuple[float, ...]:
    """The thresholds as floats, if there is one or more, each in [0, 1], in
    ascending order."""
    ts = tuple(float(t) for t in thresholds)
    if not ts:
        raise ValueError("thresholds must not be empty")
    if not all(0.0 <= t <= 1.0 for t in ts):
        raise ValueError(f"thresholds must lie in [0, 1], not {list(ts)}")
    if list(ts) != sorted(ts):
        raise ValueError(f"thresholds must be sorted ascending, not {list(ts)}")
    return ts


def threshold_sweep(scores, labels, thresholds) -> list[dict]:
    """One row per threshold: the threshold, the confusion counts and the
    recalls and F1 (None where undefined).

    +Recall is non-increasing and -Recall non-decreasing in the threshold.
    """
    rows = []
    for t in check_thresholds(thresholds):
        cm = confusion_at(scores, labels, t)
        rows.append({"threshold": t, "tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn,
                     "plus_recall": plus_recall(cm), "minus_recall": minus_recall(cm),
                     "f1": f1(cm)})
    return rows
