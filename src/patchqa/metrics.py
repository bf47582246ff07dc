"""Evaluation metrics, threshold sweeps and rank statistics.

All operations are pure over immutable score lists. Recall metrics raise on
undefined denominators instead of reporting 0; the sweep maps undefined
entries to None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "DistanceStudy",
    "MwwResult",
    "ThresholdSweep",
    "auc",
    "check_thresholds",
    "confusion_at",
    "euclidean_distance_study",
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


def confusion_at(scored, threshold: float) -> ConfusionMatrix:
    """Tally predictions at a threshold; score ties classify as positive."""
    tp = tn = fp = fn = 0
    for score_value, label in scored:
        predicted = score_value >= threshold
        if predicted and label:
            tp += 1
        elif predicted:
            fp += 1
        elif label:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def plus_recall(cm: ConfusionMatrix) -> float:
    """tp / (tp + fn): share of correct patches identified."""
    if cm.tp + cm.fn == 0:
        raise ValueError("+Recall undefined: no positive examples")
    return cm.tp / (cm.tp + cm.fn)


def minus_recall(cm: ConfusionMatrix) -> float:
    """tn / (tn + fp): share of incorrect patches filtered out."""
    if cm.tn + cm.fp == 0:
        raise ValueError("-Recall undefined: no negative examples")
    return cm.tn / (cm.tn + cm.fp)


def f1(cm: ConfusionMatrix) -> float:
    """2*tp / (2*tp + fp + fn)."""
    denom = 2 * cm.tp + cm.fp + cm.fn
    if denom == 0:
        raise ValueError("F1 undefined: no positives present or predicted")
    return 2 * cm.tp / denom


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ordinal ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0])
    i = 0
    n = values.shape[0]
    while i < n:
        j = i
        while j < n and values[order[j]] == values[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)
        i = j
    return ranks


def auc(scored) -> float:
    """Probability that a random positive outscores a random negative.

    Ties count one half; rank-statistic formulation, equivalent to the ROC
    trapezoid area.
    """
    pairs = list(scored)
    scores = np.array([s for s, _ in pairs], dtype=np.float64)
    labels = np.array([label for _, label in pairs])
    positives = int((labels == 1).sum())
    negatives = int((labels == 0).sum())
    if positives == 0 or negatives == 0:
        raise ValueError("auc needs at least one positive and one negative")
    ranks = _midranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
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
    combined = np.concatenate([a, b])
    ranks = _midranks(combined)
    u_stat = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    n = n1 + n2
    _, counts = np.unique(combined, return_counts=True)
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        raise ValueError("zero variance: all values across both samples are identical")
    z = (u_stat - n1 * n2 / 2.0) / math.sqrt(variance)
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return MwwResult(u_statistic=u_stat, p_value=p_value)


@dataclass(frozen=True)
class DistanceStudy:
    original_distances: np.ndarray
    random_distances: np.ndarray
    u_statistic: float
    p_value: float

    @property
    def original_median(self) -> float:
        return float(np.median(self.original_distances))

    @property
    def random_median(self) -> float:
        return float(np.median(self.random_distances))


def _pair_distances(pairs) -> np.ndarray:
    out = []
    dim = None
    for a, b in pairs:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("vector dimension mismatch within a pair")
        if dim is None:
            dim = a.shape[0]
        elif a.shape[0] != dim:
            raise ValueError("inconsistent vector dimensions across pairs")
        out.append(float(np.linalg.norm(a - b)))
    return np.asarray(out)


def euclidean_distance_study(original_pairs, random_pairs) -> DistanceStudy:
    """Compare L2 distances of matched pairs against randomized pairs.

    The matched-text hypothesis holds when the original distances are
    stochastically smaller than the random ones (small p, smaller median).
    """
    original = _pair_distances(original_pairs)
    randomized = _pair_distances(random_pairs)
    result = mww_test(original, randomized)
    return DistanceStudy(original_distances=original, random_distances=randomized,
                         u_statistic=result.u_statistic, p_value=result.p_value)


@dataclass(frozen=True)
class ThresholdSweep:
    """One row per threshold: the threshold, the confusion counts and the
    recalls and F1 (None where undefined); plus the AUC (None if undefined)."""

    rows: list[dict]
    auc: float | None


def _maybe(fn, cm):
    try:
        return fn(cm)
    except ValueError:
        return None


def check_thresholds(thresholds) -> tuple[float, ...]:
    """The thresholds as floats, if each lies in [0, 1] in ascending order."""
    ts = tuple(float(t) for t in thresholds)
    if not all(0.0 <= t <= 1.0 for t in ts):
        raise ValueError(f"thresholds must lie in [0, 1], not {list(ts)}")
    if list(ts) != sorted(ts):
        raise ValueError(f"thresholds must be sorted ascending, not {list(ts)}")
    return ts


def threshold_sweep(scored, thresholds) -> ThresholdSweep:
    """Confusion counts and recalls per threshold, plus the global AUC.

    +Recall is non-increasing and -Recall non-decreasing in the threshold.
    """
    pairs = list(scored)
    rows = []
    for t in check_thresholds(thresholds):
        cm = confusion_at(pairs, t)
        rows.append({"threshold": t, "tp": cm.tp, "tn": cm.tn, "fp": cm.fp, "fn": cm.fn,
                     "plus_recall": _maybe(plus_recall, cm),
                     "minus_recall": _maybe(minus_recall, cm),
                     "f1": _maybe(f1, cm)})
    return ThresholdSweep(rows=rows, auc=_maybe(auc, pairs) if pairs else None)
