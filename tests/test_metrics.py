import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from patchqa.metrics import (
    ConfusionMatrix,
    auc,
    confusion_at,
    f1,
    minus_recall,
    mww_test,
    plus_recall,
    threshold_sweep,
)

# Published per-threshold confusion counts from the large-corpus evaluation,
# with the corresponding recall percentages.
PUBLISHED_ROWS = {
    0.1: (1591, 0, 7544, 0, 100.0, 0.0),
    0.2: (1582, 2388, 5156, 9, 99.4, 31.7),
    0.3: (1551, 3010, 4534, 40, 97.5, 39.9),
    0.4: (1475, 4653, 2891, 116, 92.7, 61.7),
    0.5: (1175, 6566, 978, 416, 73.9, 87.0),
    0.6: (583, 7261, 283, 1008, 36.6, 96.2),
    0.7: (189, 7522, 22, 1402, 11.9, 99.7),
    0.8: (0, 7544, 0, 1591, 0.0, 100.0),
    0.9: (0, 7544, 0, 1591, 0.0, 100.0),
}


def split(scored):
    """The score array and the label array of (score, label) points."""
    return (np.array([s for s, _ in scored], dtype=np.float64),
            np.array([y for _, y in scored], dtype=np.int64))


def test_confusion_all_positive_labels():
    cm = confusion_at([0.7, 0.3, 0.5], [1, 1, 1], 0.0)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (3, 0, 0, 0)


def test_confusion_matches_published_row_reconstruction():
    # Scores placed around t=0.4 so the tallies reproduce the published row.
    tp, tn, fp, fn = 1475, 4653, 2891, 116
    scores = np.repeat([0.5, 0.3, 0.5, 0.3], [tp, fn, fp, tn])
    labels = np.repeat([1, 1, 0, 0], [tp, fn, fp, tn])
    cm = confusion_at(scores, labels, 0.4)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (tp, tn, fp, fn)


def test_confusion_matches_brute_force_on_random_points():
    rng = np.random.default_rng(0)
    scored = [(float(rng.random()), int(rng.integers(0, 2))) for _ in range(20)]
    threshold = 0.37
    cm = confusion_at(*split(scored), threshold)
    tp = sum(1 for s, y in scored if s >= threshold and y == 1)
    fp = sum(1 for s, y in scored if s >= threshold and y == 0)
    fn = sum(1 for s, y in scored if s < threshold and y == 1)
    tn = sum(1 for s, y in scored if s < threshold and y == 0)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (tp, tn, fp, fn)
    assert all(type(n) is int for n in (cm.tp, cm.tn, cm.fp, cm.fn))


def test_confusion_tie_counts_as_positive():
    cm = confusion_at([0.5, 0.5], [1, 0], 0.5)
    assert cm.tp == 1 and cm.fp == 1


@pytest.mark.parametrize("threshold,row", sorted(PUBLISHED_ROWS.items()))
def test_recalls_reproduce_published_values(threshold, row):
    tp, tn, fp, fn, plus_pct, minus_pct = row
    cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
    assert plus_recall(cm) * 100 == pytest.approx(plus_pct, abs=0.05)
    assert minus_recall(cm) * 100 == pytest.approx(minus_pct, abs=0.05)


def test_recall_edge_values():
    assert plus_recall(ConfusionMatrix(5, 0, 0, 0)) == 1.0
    assert minus_recall(ConfusionMatrix(0, 5, 0, 0)) == 1.0
    assert plus_recall(ConfusionMatrix(0, 3, 2, 0)) is None
    assert minus_recall(ConfusionMatrix(3, 0, 0, 2)) is None


def test_f1_values():
    assert f1(ConfusionMatrix(1, 0, 1, 1)) == 0.5
    assert f1(ConfusionMatrix(10, 5, 0, 0)) == 1.0
    # arithmetic on the published threshold-0.4 row
    assert f1(ConfusionMatrix(1475, 4653, 2891, 116)) == pytest.approx(0.495, abs=5e-4)
    assert f1(ConfusionMatrix(0, 5, 0, 0)) is None


# --- AUC -----------------------------------------------------------------------


def brute_force_auc(scored):
    positives = [s for s, y in scored if y == 1]
    negatives = [s for s, y in scored if y == 0]
    total = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(positives) * len(negatives))


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_matches_brute_force_pair_counting():
    rng = np.random.default_rng(1)
    for _ in range(20):
        scored = [(float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])),
                   int(rng.integers(0, 2))) for _ in range(12)]
        labels = {y for _, y in scored}
        if labels != {0, 1}:
            continue
        assert auc(*split(scored)) == pytest.approx(brute_force_auc(scored), abs=1e-12)


def test_auc_rejects_single_class():
    assert auc([0.5, 0.7], [1, 1]) is None
    assert auc([0.5, 0.7], [0, 0]) is None
    assert auc([], []) is None


def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(2)
    scored = [(float(rng.random()), int(rng.integers(0, 2))) for _ in range(30)]
    scored[0] = (scored[0][0], 1)
    scored[1] = (scored[1][0], 0)
    transformed = [(math.exp(3 * s) + s, y) for s, y in scored]
    assert auc(*split(transformed)) == pytest.approx(auc(*split(scored)), abs=1e-12)


# --- Mann-Whitney-Wilcoxon -------------------------------------------------------


def brute_force_u(a, b):
    total = 0.0
    for x in a:
        for y in b:
            if x > y:
                total += 1.0
            elif x == y:
                total += 0.5
    return total


def test_mww_identical_samples_p_near_one():
    result = mww_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.u_statistic == 4.5
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_mww_complete_separation_u_zero():
    result = mww_test([1, 2, 3, 4, 5], [10, 11, 12, 13, 14])
    assert result.u_statistic == 0.0
    assert result.p_value < 0.05


def test_mww_matches_brute_force_pair_counting():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.integers(0, 10, size=8).astype(float)
        b = rng.integers(0, 10, size=8).astype(float)
        if np.all(a == a[0]) and np.all(b == a[0]):
            continue
        assert mww_test(a, b).u_statistic == pytest.approx(brute_force_u(a, b), abs=1e-12)


def test_mww_rejects_small_samples():
    with pytest.raises(ValueError):
        mww_test([1.0, 2.0], [1.0, 2.0, 3.0])


def test_mww_zero_variance_rejected():
    with pytest.raises(ValueError, match="zero variance"):
        mww_test([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])


def test_mww_direction():
    # first sample stochastically larger gives U near the n1*n2 maximum
    result = mww_test([10, 11, 12, 13], [1, 2, 3, 4])
    assert result.u_statistic == 16.0


@pytest.mark.parametrize("tied", [False, True])
def test_mww_agrees_with_scipy(tied):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(31 + tied)
    for _ in range(100):
        n1, n2 = (int(n) for n in rng.integers(3, 40, size=2))
        if tied:  # few distinct values, so most ranks are shared
            a = rng.integers(0, 4, size=n1).astype(float)
            b = rng.integers(1, 5, size=n2).astype(float)
            if np.all(np.concatenate([a, b]) == a[0]):
                continue
        else:
            a = rng.normal(size=n1)
            b = rng.normal(loc=0.5, size=n2)
        ours = mww_test(a, b)
        ref = stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic",
                                 use_continuity=False)
        assert ours.u_statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-12)


# --- threshold sweep ------------------------------------------------------------------


def test_sweep_single_threshold():
    rows = threshold_sweep([0.7, 0.3], [1, 0], [0.5])
    assert len(rows) == 1
    assert [rows[0][k] for k in ("tp", "tn", "fp", "fn")] == [1, 1, 0, 0]
    assert auc([0.7, 0.3], [1, 0]) == 1.0


def test_sweep_requires_sorted_thresholds():
    with pytest.raises(ValueError, match="sorted"):
        threshold_sweep([0.7, 0.3], [1, 0], [0.5, 0.4])


@pytest.mark.parametrize("thresholds", [[7.0], [-0.1, 0.5], [0.5, float("nan")]])
def test_sweep_requires_thresholds_in_unit_interval(thresholds):
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        threshold_sweep([0.7, 0.3], [1, 0], thresholds)


def test_sweep_low_threshold_row_on_banded_scores():
    # Model scores never leave [sigmoid(-1), sigmoid(1)], so a 0.1 threshold
    # predicts everything positive: +Recall 1, -Recall 0.
    rng = np.random.default_rng(5)
    scored = [(float(rng.uniform(0.2690, 0.7310)), int(rng.integers(0, 2)))
              for _ in range(50)]
    scored += [(0.5, 1), (0.5, 0)]
    rows = threshold_sweep(*split(scored), [0.1])
    assert rows[0]["plus_recall"] == 1.0
    assert rows[0]["minus_recall"] == 0.0


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                          st.integers(min_value=0, max_value=1)),
                min_size=1, max_size=40))
def test_sweep_recall_monotonicity(scored):
    thresholds = [0.1, 0.3, 0.5, 0.7, 0.9]
    rows = threshold_sweep(*split(scored), thresholds)
    plus = [r["plus_recall"] for r in rows if r["plus_recall"] is not None]
    minus = [r["minus_recall"] for r in rows if r["minus_recall"] is not None]
    assert all(a >= b - 1e-12 for a, b in zip(plus, plus[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(minus, minus[1:]))


def test_sweep_rows_shape():
    rows = threshold_sweep([0.7, 0.3], [1, 0], [0.2, 0.5])
    assert [r["threshold"] for r in rows] == [0.2, 0.5]
    assert set(rows[0]) == {"threshold", "tp", "tn", "fp", "fn",
                            "plus_recall", "minus_recall", "f1"}
