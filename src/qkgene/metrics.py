"""Binary classification metrics from confusion counts, plus ROC/AUC.

Every ratio with a zero denominator is reported as 0.0 together with a
`<name>_degenerate` flag instead of raising, so downstream JSON artifacts
stay complete on pathological predictions. roc_auc counts each class at
each distinct score, sums the counts from the top score down into every
curve row's integer (fp, tp), and takes the AUC as the trapezoid under that
curve (the Mann-Whitney U, ties counted one half) in integers, divided
once. Non-finite scores raise DataError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _check_labels(values, name):
    values = np.asarray(values)
    if values.size == 0:
        raise DataError(f"{name} is empty")
    extra = set(np.unique(values).tolist()) - {-1, 1}
    if extra:
        raise DataError(f"{name} must contain only -1/+1, found {sorted(extra)}")
    return values


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = _check_labels(y_true, "y_true")
    y_pred = _check_labels(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise DataError("y_true and y_pred lengths differ")
    return ConfusionMatrix(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        tn=int(np.sum((y_true == -1) & (y_pred == -1))),
        fp=int(np.sum((y_true == -1) & (y_pred == 1))),
        fn=int(np.sum((y_true == 1) & (y_pred == -1))),
    )


def _ratio(num: float, den: float) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def scores_from_confusion(cm: ConfusionMatrix) -> dict:
    """Flat dict of scores with degenerate-denominator flags.

    specificity is tn/(tn+fp), reported alongside recall tp/(tp+fn); the two
    are distinct outputs so consumers never have to disambiguate them.
    """
    if cm.total == 0:
        raise DataError("confusion matrix is empty")
    out: dict = {"accuracy": (cm.tp + cm.tn) / cm.total}
    for name, num, den in (("precision", cm.tp, cm.tp + cm.fp),
                           ("recall", cm.tp, cm.tp + cm.fn),
                           ("specificity", cm.tn, cm.tn + cm.fp),
                           ("fpr", cm.fp, cm.fp + cm.tn)):
        out[name], out[f"{name}_degenerate"] = _ratio(num, den)
    precision, recall = out["precision"], out["recall"]
    out["f1"], out["f1_degenerate"] = _ratio(2.0 * precision * recall, precision + recall)
    return out


def roc_auc(y_true, scores) -> tuple[float, list[tuple[float, float, float]]]:
    """(auc, curve) where curve rows are (threshold, fpr, tpr).

    A sample is predicted positive when its score >= threshold. The curve
    runs by descending threshold from +inf at (0, 0) to the minimum score at (1, 1).
    """
    y_true = _check_labels(y_true, "y_true")
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise DataError("y_true and scores lengths differ")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    positive = y_true == 1
    n_pos, n_neg = int(np.count_nonzero(positive)), int(np.count_nonzero(~positive))
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc_auc needs both classes present")
    # not return_inverse: its argsort may keep -0.0 where the sort keeps 0.0
    thresholds = np.unique(scores)
    group = np.searchsorted(thresholds, scores)
    pos = np.bincount(group[positive], minlength=thresholds.size)[::-1]
    neg = np.bincount(group[~positive], minlength=thresholds.size)[::-1]
    tp, fp = np.cumsum(pos), np.cumsum(neg)
    # trapezoid sum(dfp * (tp_prev + tp)) / 2, with tp_prev + tp = 2 tp - pos
    auc = int(neg @ (2 * tp - pos)) / (2 * n_pos * n_neg)
    rows = zip(thresholds[::-1].tolist(), fp.tolist(), tp.tolist())
    return auc, [(float("inf"), 0.0, 0.0)] + [(t, f / n_neg, p / n_pos) for t, f, p in rows]
